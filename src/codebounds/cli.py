"""Command-line surface: single-query evaluation, table sweeps, reference-table
reproduction with diffing, and exhaustive oracle runs.

Exit codes: 0 success, 1 mismatch or contradiction, 2 usage or resource error.
All configuration is via flags; identical invocations produce byte-identical
output.

Importing this module loads the bound engine and argparse only.  The
reference table (`golden`, with csv) is loaded by `table1` alone and the
oracle by the `oracle` commands alone, each on its first use.
"""

import argparse
import sys
from functools import cache
from typing import Optional, Sequence

from .bounds import BLOCKS, BOUND_ALIASES, BOUND_IDS, bound_a_check, best_upper_k
from .exactmath import (DEFAULT_BUDGET, VARIANTS, VARIANT_WEIGHT, EnumerationBudgetError,
                        check_alphabet, check_query)

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


def _parse_range(text: str, flag: str) -> tuple[int, int]:
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


def _span(single: Optional[int], text: Optional[str], flag: str) -> tuple[int, int]:
    """The range a --x / --x-range pair selects; argparse admits exactly one."""
    return (single, single) if text is None else _parse_range(text, flag)


def _fmt_k(k: Optional[int]) -> str:
    return "n/a" if k is None else str(k)


def _cmd_eval(args: argparse.Namespace) -> int:
    bounds = _parse_bounds(args.bounds)
    results, k_min = best_upper_k(args.n, args.d, args.q, bounds, args.variant_a)
    for res in results:
        line = f"{res.bound_id} k_max={_fmt_k(res.k_max)}"
        if res.size_max is not None:
            line += f" size_max={res.size_max}"
        if res.witness is not None:
            line += f" w={res.witness}"
        blocked = res.refutation
        if blocked is not None:
            line += (f" (k={res.k_max + 1} refuted at i={blocked.witness}:"
                     f" lhs={blocked.lhs} > rhs={blocked.rhs})")
        print(line)
    print(f"min k_max={_fmt_k(k_min)}")
    return 0


def _table_rows(args: argparse.Namespace, bounds: list[str]):
    n_lo, n_hi = _span(args.n, args.n_range, "--n-range")
    d_lo, d_hi = _span(args.d, args.d_range, "--d-range")
    # q and the smallest n are checked even when every cell has d > n
    check_query(n_lo, 1, args.q)
    for n in range(n_lo, n_hi + 1):
        for d in range(d_lo, d_hi + 1):
            if d > n:
                continue
            results, _ = best_upper_k(n, d, args.q, bounds, args.variant_a)
            by_id = {r.bound_id: r for r in results}
            yield n, d, [by_id[b].k_max for b in bounds]


def _cmd_table(args: argparse.Namespace) -> int:
    bounds = _parse_bounds(args.bounds)
    header = ["q", "n", "d"] + bounds
    rows = [[str(args.q), str(n), str(d)] + ["" if k is None else str(k) for k in ks]
            for n, d, ks in _table_rows(args, bounds)]
    if args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    elif args.format == "records":
        for row in rows:
            print(" ".join(f"{h}={v if v else 'n/a'}" for h, v in zip(header, row)))
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return 0


def diff_table1(*args, **kwargs) -> tuple:
    """golden.diff_table1, loaded on first use: only table1 reads the
    reference table.  It stays a name of this module, which bench/tracer.py
    wraps to time the table recomputation."""
    from .golden import diff_table1

    return diff_table1(*args, **kwargs)


def _cmd_table1(args: argparse.Namespace) -> int:
    blocks = set(BLOCKS) if args.block == "all" else {args.block}
    rows_checked, mismatches = diff_table1(blocks)
    label = ",".join(b for b in BLOCKS if b in blocks)
    print(f"blocks {label}: {rows_checked} rows checked")
    for mm in mismatches:
        name = f"k_{mm.row.block}" if mm.column == "k_competitor" else "k_A"
        tag = "" if mm.note is None else " [documented]"
        print(f"  block {mm.row.block} q={mm.row.q} n={mm.row.n} d={mm.row.d}: "
              f"{name} expected {mm.expected}, computed {mm.computed}{tag}")
        if mm.note is not None:
            print(f"    note: {mm.note}")
    n_doc = sum(mm.note is not None for mm in mismatches)
    n_mm = len(mismatches) - n_doc
    print(f"mismatches: {n_mm} undocumented, {n_doc} documented")
    return 1 if n_mm or (n_doc and not args.allow_documented) else 0


def _cmd_best_d(args: argparse.Namespace) -> int:
    # imported here: loading the oracle with the module slows every command's start-up
    from .oracle import best_linear_d_witness

    d, gen = best_linear_d_witness(args.n, args.k, args.q, budget=args.budget)
    print(f"best minimum distance for ({args.n}, {args.k}) over q={args.q}: {d}")
    print("witness tail matrix (rows):")
    for row in gen.tail:
        print("  " + "".join(str(e) for e in row))
    return 0


def refutation_crosscheck(*args, **kwargs) -> str:
    """oracle.refutation_crosscheck, loaded on first use.  It stays a name
    of this module, which bench/tracer.py wraps to time the cross-checks."""
    from .oracle import refutation_crosscheck

    return refutation_crosscheck(*args, **kwargs)


def _cmd_refute_check(args: argparse.Namespace) -> int:
    from .oracle import CONFIRMED, check_linear_alphabet

    # q and the budget are checked even when the box holds no refutation
    check_alphabet(args.q)
    check_linear_alphabet(args.q, args.budget)
    failures = 0
    checked = 0
    for n in range(4, args.n_max + 1):
        refuted = [(k, d) for k in range(3, min(args.k_max, n - 1) + 1)
                   for d in range(3, min(args.d_max, n) + 1)
                   if bound_a_check(n, k, d, args.q, args.variant_a).refuted]
        # at fixed (k, d) the tail mass over n - k positions only grows with
        # n, so once this n has every (k, d) of the box and none is refuted,
        # no longer n has a refutation either
        if not refuted and n > args.k_max and n >= args.d_max:
            break
        for k, d in refuted:
            outcome = refutation_crosscheck(n, k, d, args.q, args.variant_a, budget=args.budget)
            checked += 1
            if outcome == CONFIRMED:
                print(f"(n={n}, k={k}, d={d}) refuted: confirmed")
            else:
                failures += 1
                print(f"(n={n}, k={k}, d={d}) refuted: CONTRADICTION, "
                      f"oracle found a code with distance >= {d}")
    print(f"{checked} refutations cross-checked, {failures} contradictions")
    return 1 if failures else 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call of main and
    shared by the later ones: a parse keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="codebounds",
        description="Exact dimension bounds for systematic and linear codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate bounds for one (q, n, d) query")
    p_eval.add_argument("--q", type=int, required=True)
    p_eval.add_argument("--n", type=int, required=True)
    p_eval.add_argument("--d", type=int, required=True)
    p_eval.add_argument("--bounds", default="all")
    p_eval.add_argument("--variant-a", choices=VARIANTS, default=VARIANT_WEIGHT)
    p_eval.set_defaults(func=_cmd_eval)

    p_table = sub.add_parser("table", help="sweep (n, d) ranges into a table")
    p_table.add_argument("--q", type=int, required=True)
    n_arg = p_table.add_mutually_exclusive_group(required=True)
    n_arg.add_argument("--n", type=int)
    n_arg.add_argument("--n-range", dest="n_range")
    d_arg = p_table.add_mutually_exclusive_group(required=True)
    d_arg.add_argument("--d", type=int)
    d_arg.add_argument("--d-range", dest="d_range")
    p_table.add_argument("--bounds", default="all")
    p_table.add_argument("--variant-a", choices=VARIANTS, default=VARIANT_WEIGHT)
    p_table.add_argument("--format", choices=("csv", "text", "records"), default="text")
    p_table.set_defaults(func=_cmd_table)

    p_t1 = sub.add_parser("table1", help="recompute the reference table and diff")
    p_t1.add_argument("--block", choices=BLOCKS + ("all",), default="all")
    p_t1.add_argument("--allow-documented", action="store_true")
    p_t1.set_defaults(func=_cmd_table1)

    p_oracle = sub.add_parser("oracle", help="exhaustive searches at tiny scale")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_cmd", required=True)
    p_best = oracle_sub.add_parser("best-d", help="best reachable minimum distance")
    p_best.add_argument("--q", type=int, required=True)
    p_best.add_argument("--n", type=int, required=True)
    p_best.add_argument("--k", type=int, required=True)
    p_best.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_best.set_defaults(func=_cmd_best_d)
    p_ref = oracle_sub.add_parser("refute-check", help="confirm every refutation in range")
    p_ref.add_argument("--q", type=int, required=True)
    p_ref.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_ref.add_argument("--k-max", dest="k_max", type=int, required=True)
    p_ref.add_argument("--d-max", dest="d_max", type=int, required=True)
    p_ref.add_argument("--variant-a", choices=VARIANTS, default=VARIANT_WEIGHT)
    p_ref.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_ref.set_defaults(func=_cmd_refute_check)
    return parser


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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_range_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (EnumerationBudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
