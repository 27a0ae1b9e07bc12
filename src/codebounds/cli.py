"""Command-line surface: single-query evaluation, table sweeps, reference-table
reproduction with diffing, and exhaustive oracle runs.

Exit codes: 0 success, 1 mismatch or contradiction, 2 usage or resource error.
All configuration is via flags; identical invocations produce byte-identical
output.

Importing this module loads the bound engine only.  A well-formed command
line is read against the grammar declared here (`_GRAMMAR`); argparse is
imported, and its parser built from the same grammar, only for a command line
that reading leaves out: help, a usage error, or a form such as an
abbreviated flag or `--flag=value`.  The reference table (`golden`) is
loaded by `table1` alone and the oracle by the `oracle` commands alone, each
on its first use.
"""

import os
import sys
from collections.abc import Callable, Sequence
from types import SimpleNamespace
from typing import NamedTuple, Optional

from .bounds import BLOCKS, BOUND_ALIASES, BOUND_IDS, bound_a_check, best_upper_k, best_upper_row
from .exactmath import DEFAULT_BUDGET, VARIANTS, VARIANT_WEIGHT, EnumerationBudgetError, check_query

__all__ = ["main", "entry"]


def _parse_bounds(text: str) -> list[str]:
    """Comma list of bound ids (aliases allowed), deduplicated, order kept."""
    out: list[str] = []
    for tok in text.split(","):
        tok = tok.strip().lower()
        if tok == "all":
            out.extend(BOUND_IDS)
        elif tok:
            tok = BOUND_ALIASES.get(tok, tok)
            if tok not in BOUND_IDS:
                raise ValueError(f"unknown bound {tok!r}; choose from {', '.join(BOUND_IDS)} or 'all'")
            out.append(tok)
    if not out:
        raise ValueError("no bounds selected")
    return list(dict.fromkeys(out))


def _span(single: Optional[int], text: Optional[str], flag: str) -> tuple[int, int]:
    """The range a --x / --x-range pair selects; the command line gives exactly one."""
    if text is None:
        return single, single
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"{flag} expects LO..HI, got {text!r}")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"{flag} expects integer endpoints, got {text!r}") from None
    if lo_i > hi_i:
        raise ValueError(f"{flag} range is empty: {text}")
    return lo_i, hi_i


def _fmt_k(k: Optional[int]) -> str:
    return "n/a" if k is None else str(k)


def _exact(x: int) -> str:
    """The decimal digits of a nonnegative integer of any length.

    str refuses an integer of more digits than the interpreter's limit (4300
    by default where there is one); past it, x is split at 10**e, about half
    its digits, and each part written on its own.  The other integers eval
    writes are at most n, which was read from a decimal string.
    """
    try:
        return str(x)
    except ValueError:
        hi, lo = divmod(x, 10 ** (e := x.bit_length() * 3 // 20))
        return _exact(hi) + _exact(lo).zfill(e)


def _cmd_eval(args: SimpleNamespace) -> int:
    bounds = _parse_bounds(args.bounds)
    results, k_min = best_upper_k(args.n, args.d, args.q, bounds, args.variant_a)
    lines = []
    for res in results:
        line = f"{res.bound_id} k_max={_fmt_k(res.k_max)}"
        if res.size_max is not None:
            line += f" size_max={_exact(res.size_max)}"
        if res.witness is not None:
            line += f" w={res.witness}"
        blocked = res.refutation
        if blocked is not None:
            line += (f" (k={res.k_max + 1} refuted at i={blocked.witness}:"
                     f" lhs={_exact(blocked.lhs)} > rhs={_exact(blocked.rhs)})")
        lines.append(line)
    lines.append(f"min k_max={_fmt_k(k_min)}")
    print("\n".join(lines))
    return 0


def _cmd_table(args: SimpleNamespace) -> int:
    bounds = _parse_bounds(args.bounds)
    n_lo, n_hi = _span(args.n, args.n_range, "--n-range")
    d_lo, d_hi = _span(args.d, args.d_range, "--d-range")
    # q and the smallest n are checked even when every cell has d > n
    check_query(n_lo, 1, args.q)
    header = ["q", "n", "d"] + bounds
    rows = []
    # a cell has d <= n, so a length below d_lo has none and d stops at n
    for n in range(max(n_lo, d_lo), n_hi + 1):
        ds = range(d_lo, min(d_hi, n) + 1)
        for d, (results, _) in zip(ds, best_upper_row(n, ds, args.q, bounds, args.variant_a)):
            caps = {r.bound_id: "" if r.k_max is None else str(r.k_max) for r in results}
            rows.append([str(args.q), str(n), str(d)] + [caps[b] for b in bounds])
    if args.format == "csv":
        lines = [",".join(row) for row in [header, *rows]]
    elif args.format == "records":
        lines = [" ".join(f"{h}={v if v else 'n/a'}" for h, v in zip(header, row)) for row in rows]
    else:
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        lines = ["  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in [header, *rows]]
    for line in lines:
        print(line)
    return 0


def diff_table1(*args, **kwargs) -> tuple:
    """golden.diff_table1, loaded on first use: only table1 reads the
    reference table.  It stays a name of this module, which bench/tracer.py
    wraps to time the table recomputation."""
    from .golden import diff_table1

    return diff_table1(*args, **kwargs)


def _cmd_table1(args: SimpleNamespace) -> int:
    blocks = BLOCKS if args.block == "all" else (args.block,)
    try:
        rows_checked, mismatches = diff_table1(blocks)
    except OSError as exc:  # a failed read of the reference table; nothing is written yet
        raise ValueError(f"cannot read {exc.filename}: {exc.strerror}") from None
    print(f"blocks {','.join(blocks)}: {rows_checked} rows checked")
    for mm in mismatches:
        name = f"k_{mm.row.block}" if mm.column == "k_competitor" else "k_A"
        tag = "" if mm.note is None else f" [documented]\n    note: {mm.note}"
        print(f"  block {mm.row.block} q={mm.row.q} n={mm.row.n} d={mm.row.d}: "
              f"{name} expected {mm.expected}, computed {mm.computed}{tag}")
    n_doc = sum(mm.note is not None for mm in mismatches)
    n_mm = len(mismatches) - n_doc
    print(f"mismatches: {n_mm} undocumented, {n_doc} documented")
    return 1 if n_mm or (n_doc and not args.allow_documented) else 0


def _cmd_best_d(args: SimpleNamespace) -> int:
    # imported here: loading the oracle with the module slows every command's start-up
    from .oracle import best_linear_d_witness

    d, tail = best_linear_d_witness(args.n, args.k, args.q, budget=args.budget)
    print(f"best minimum distance for ({args.n}, {args.k}) over q={args.q}: {d}")
    print("witness tail matrix (rows):")
    sep = " " if args.q > 10 else ""  # a symbol of two digits needs a separator
    for row in tail:
        print("  " + sep.join(map(str, row)))
    return 0


def refutation_crosscheck(*args, **kwargs) -> Optional[tuple]:
    """oracle.refutation_crosscheck, loaded on first use.  It stays a name
    of this module, which bench/tracer.py wraps to time the cross-checks."""
    from .oracle import refutation_crosscheck

    return refutation_crosscheck(*args, **kwargs)


def _cmd_refute_check(args: SimpleNamespace) -> int:
    """Cross-check every bound-A refutation of the box, one line each.

    A refuted triple is confirmed by a search (refutation_crosscheck) or from
    a triple already confirmed; confirmed[(n, k)] is the smallest d at which
    no code was found.  The search's budget guard, check_search_budget,
    returns the search it admits, and what a search at (n, k) finds no code
    among is every systematic code where the guard returns True (the
    nonlinear search fits the budget), and every standard-form code where
    it returns False.  A refuted (n, k, d) is confirmed without a
    search when
    - (n, k) is confirmed at a smaller d: a code reaching d reaches every
      smaller d;
    - (n-1, k) is confirmed at d-1 or below: puncturing a tail coordinate of
      an (n, k) code that reaches d gives an (n-1, k) code that reaches d-1;
    - (n-1, k-1) is confirmed at d or below: shortening on a prefix
      coordinate, keeping the words with symbol 0 there and deleting it,
      gives an (n-1, k-1) code that reaches d.
    Both operations keep a systematic code systematic and a standard-form
    code in standard form.  The nonlinear search fits the budget at (n-1, k)
    and at (n-1, k-1) wherever it fits at (n, k), as the exponent (n-k) q**k
    is larger at (n, k) than at either; so the confirmation at the smaller
    pair covers every code that a search at (n, k) would, and the verdict is
    the search's.  Such an (n, k) still passes the search's budget guard,
    once, at its first refuted d, so a budget refusal comes at the same line
    as a search's; the search the guard names is not needed there.  The
    guard is also the command's cost bound: it ends a box whose refutations
    all follow from a few small searches, which puncturing would otherwise
    go on confirming at every n up to --n-max.
    """
    from .oracle import check_linear_alphabet, check_search_budget

    # q and the budget are checked even when the box holds no refutation
    check_linear_alphabet(args.q, args.budget)
    failures = 0
    checked = 0
    confirmed = {}  # (n, k) -> the smallest d at which no code was found
    # A refutes no k <= 2 and no d <= 2, so a box below 3 in either ends here
    n_max = args.n_max if min(args.k_max, args.d_max) > 2 else 3
    for n in range(4, n_max + 1):
        # A's refutation is monotone in k and in d, so the refuted d at each k
        # are first..min(d_max, n), and first only falls as k grows
        first = min(args.d_max, n) + 1
        for k in range(3, min(args.k_max, n - 1) + 1):
            while first > 3 and bound_a_check(n, k, first - 1, args.q, args.variant_a).refuted:
                first -= 1
            for d in range(first, min(args.d_max, n) + 1):
                implied = (confirmed.get((n, k), d) < d or confirmed.get((n - 1, k), d) < d
                           or confirmed.get((n - 1, k - 1), d + 1) <= d)
                if implied and d == first:  # the search's budget guard, once per (n, k)
                    check_search_budget(n, k, args.q, args.budget)
                code = None if implied else refutation_crosscheck(n, k, d, args.q, budget=args.budget)
                checked += 1
                if code is None:
                    confirmed.setdefault((n, k), d)
                    print(f"(n={n}, k={k}, d={d}) refuted: confirmed")
                else:
                    failures += 1
                    print(f"(n={n}, k={k}, d={d}) refuted: CONTRADICTION, "
                          f"oracle found a code with distance >= {d}")
        # at fixed (k, d) the tail mass over n - k positions only grows with
        # n, so once this n has every (k, d) of the box and none is refuted,
        # no longer n has a refutation either; first past d_max after the
        # largest k, the most refutable one, shows that none is, and as
        # first <= min(d_max, n) + 1 it also shows n >= d_max
        if first > args.d_max and n > args.k_max:
            break
    print(f"{checked} refutations cross-checked, {failures} contradictions")
    return 1 if failures else 0


class _Option(NamedTuple):
    """A long option of one command.  Its value is converted by type and
    must be among choices; type None makes a switch, True when given."""
    flag: str
    type: Optional[Callable[[str], object]] = str
    default: object = None
    choices: Optional[tuple] = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Command(NamedTuple):
    help: str
    handler: Optional[Callable[[SimpleNamespace], int]] = None  # None: a group of subcommands
    options: tuple[_Option, ...] = ()
    pairs: tuple[tuple[str, str], ...] = ()  # flags of which exactly one is given


_Q = _Option("--q", int, required=True)
_BOUNDS = _Option("--bounds", default="all")
_VARIANT = _Option("--variant-a", default=VARIANT_WEIGHT, choices=VARIANTS)
_BUDGET = _Option("--budget", int, DEFAULT_BUDGET)

# The command line: each command path with its help, handler and options, in
# the order argparse lists them.  Both the strict reading in main and the
# argparse tree are made from it.
_GRAMMAR = {
    ("eval",): _Command("evaluate bounds for one (q, n, d) query", _cmd_eval, (
        _Q, _Option("--n", int, required=True), _Option("--d", int, required=True),
        _BOUNDS, _VARIANT)),
    ("table",): _Command("sweep (n, d) ranges into a table", _cmd_table, (
        _Q, _Option("--n", int), _Option("--n-range"), _Option("--d", int), _Option("--d-range"),
        _BOUNDS, _VARIANT, _Option("--format", default="text", choices=("csv", "text", "records"))),
        pairs=(("--n", "--n-range"), ("--d", "--d-range"))),
    ("table1",): _Command("recompute the reference table and diff", _cmd_table1, (
        _Option("--block", default="all", choices=BLOCKS + ("all",)),
        _Option("--allow-documented", None, False))),
    ("oracle",): _Command("exhaustive searches at tiny scale"),
    ("oracle", "best-d"): _Command("best reachable minimum distance", _cmd_best_d, (
        _Q, _Option("--n", int, required=True), _Option("--k", int, required=True), _BUDGET)),
    ("oracle", "refute-check"): _Command("confirm every refutation in range", _cmd_refute_check, (
        _Q, _Option("--n-max", int, required=True), _Option("--k-max", int, required=True),
        _Option("--d-max", int, required=True), _VARIANT, _BUDGET)),
}
# where the command path is stored, by depth
_PATH_DESTS = ("command", "oracle_cmd")


def _build_parser():
    """The argparse tree of _GRAMMAR, built anew for each command line the
    strict reading in main leaves to it, so no parser outlives its main
    call.  It alone writes help and usage errors."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            # with no stderr, print_usage would fall back to stdout; a usage
            # error writes nothing there, as the CLI's own errors do
            if sys.stderr is None:
                self.exit(2)
            super().error(message)

        def print_help(self, file=None):
            # argparse would drop a failed write and fall back to stderr
            # where there is no stdout: help is written to stdout alone, and
            # flushed, so a failed write reaches entry as any command's does
            if sys.stdout is not None:
                sys.stdout.write(self.format_help())
                sys.stdout.flush()

    parser = Parser(
        prog="codebounds",
        description="Exact dimension bounds for systematic and linear codes.",
    )
    subparsers = {(): parser.add_subparsers(dest=_PATH_DESTS[0], required=True)}
    for path, command in _GRAMMAR.items():
        sub = subparsers[path[:-1]].add_parser(path[-1], help=command.help)
        if command.handler is None:
            subparsers[path] = sub.add_subparsers(dest=_PATH_DESTS[len(path)], required=True)
            continue
        groups = {}
        for pair in command.pairs:
            groups.update(dict.fromkeys(pair, sub.add_mutually_exclusive_group(required=True)))
        for opt in command.options:
            target = groups.get(opt.flag, sub)
            if opt.type is None:
                target.add_argument(opt.flag, dest=opt.dest, action="store_true")
            else:
                target.add_argument(opt.flag, dest=opt.dest, type=opt.type, default=opt.default,
                                    choices=opt.choices, required=opt.required)
        sub.set_defaults(func=command.handler)
    return parser


def _read_well_formed(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives argv, read against _GRAMMAR alone: the
    command path, then exact long flags, each at most once and followed by
    one value that does not start with "-" (a switch by none), every value
    converted and within its choices, every required flag and one flag of
    each pair given.  None for any other argv, which is argparse's to read."""
    command = _GRAMMAR.get(tuple(argv[:1]))
    depth = 1
    if command is not None and command.handler is None:  # a group: its subcommand follows
        command, depth = _GRAMMAR.get(tuple(argv[:2])), 2
    if command is None or command.handler is None:
        return None
    options = {opt.flag: opt for opt in command.options}
    given = {}
    tokens = iter(argv[depth:])
    for flag in tokens:
        opt = options.get(flag)
        if opt is None or flag in given:
            return None
        if opt.type is None:
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value reads as a flag
        if text[:1] == "-":
            return None
        try:
            value = opt.type(text)
        except ValueError:
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        given[flag] = value
    if any(opt.required and opt.flag not in given for opt in command.options) or any(
            (a in given) == (b in given) for a, b in command.pairs):
        return None
    return SimpleNamespace(**dict(zip(_PATH_DESTS, argv[:depth])), func=command.handler,
                           **{opt.dest: given.get(opt.flag, opt.default) for opt in command.options})


# the two range flags and every abbreviation of them argparse accepts; no
# other option of `table` starts with "--n-" or "--d-"
_RANGE_FLAGS = frozenset(flag[:end] for flag in ("--n-range", "--d-range")
                         for end in range(len("--n-"), len(flag) + 1))


def _attach_range_values(argv: Sequence[str]) -> list[str]:
    """Write "--n-range -3..2" as "--n-range=-3..2", and likewise for
    --d-range and their abbreviations: argparse takes a value that starts
    with "-" and is not a plain number for an option, and would never hand
    it to the range check."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _RANGE_FLAGS and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _error(message: str) -> int:
    """Write the CLI's error line to stderr and give its exit code, 2.  As
    with argparse's own messages, a stderr that is missing (None where fd 2
    was closed at start-up) or cannot be written drops the line."""
    try:
        sys.stderr.write(f"error: {message}\n")
    except (AttributeError, OSError):
        pass
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the strict reading refuses every argv that _attach_range_values
    # changes (a range flag followed by a value that starts with "-"), so
    # only argparse's argv is rewritten
    args = _read_well_formed(argv)
    if args is None:
        args = _build_parser().parse_args(_attach_range_values(argv))
    try:
        return args.func(args)
    except (EnumerationBudgetError, ValueError) as exc:
        return _error(str(exc))


def entry() -> None:
    try:
        code = main()
        if sys.stdout is not None:  # None where fd 1 was closed at start-up
            sys.stdout.flush()
    except OSError as exc:
        # a failed write to stdout: fd 1 goes to devnull, so that the
        # interpreter's own flush at exit drops what is left there quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _error(f"cannot write output: {exc.strerror}")
    finally:
        # a line that stderr could not take, from main or from argparse, stays
        # in its buffer: fd 2 goes to devnull likewise, as the interpreter's
        # flush at exit would fail on it and exit 120
        try:
            if sys.stderr is not None:
                sys.stderr.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    sys.exit(code)
