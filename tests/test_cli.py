"""CLI surface: output formats, exit codes, determinism, golden-table diffing."""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import random
import runpy
import shlex
import subprocess
import sys
import threading
from collections import Counter
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from conftest import record_calls

from codebounds import cli, golden, levenshtein, oracle
from codebounds.bounds import BOUNDS, REFUTED, FeasibilityVerdict, bound_a_check, best_upper_k
from codebounds.cli import main
from codebounds.exactmath import VARIANT_WEIGHT, EnumerationBudgetError

SRC = Path(__file__).resolve().parents[1] / "src"


def _quotes_choices() -> bool:
    """Whether argparse quotes the choices in its invalid-choice error, as
    Python up to 3.13.0 does: `(choose from 'a')`, later `(choose from a)`."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("x", choices=["a"])
    with pytest.raises(argparse.ArgumentError) as error:
        parser.parse_args(["b"])
    return "'a'" in str(error.value)


# tests/data/cli_digests.json, read once: the pinned digests per command.
# Python 3.13 words the `table` help and usage error otherwise, and a later
# 3.13 release the `bogus` error too, as its choices lose their quotes;
# cli_digests_3.13.json pins those three there, and `bogus` follows the
# wording that the running argparse writes, not the version.
DATA = Path(__file__).parent / "data"
PINNED = json.loads((DATA / "cli_digests.json").read_text())
_PINNED_3_13 = json.loads((DATA / "cli_digests_3.13.json").read_text())
if sys.version_info >= (3, 13):
    PINNED.update((cmd, pin) for cmd, pin in _PINNED_3_13.items() if cmd != "bogus")
if not _quotes_choices():
    PINNED["bogus"] = _PINNED_3_13["bogus"]
# the oracle's two searches, the linear search's caller and the budget guard
# of every search, which the tests below log
_SEARCHES = ("_first_linear_tail", "_first_nonlinear_code", "best_linear_d_witness", "check_search_budget")


def refuting_also(n: int, k: int, d: int):
    """bound_a_check, except that it also refutes (n, k, d), at any q and
    variant: a stand-in for an unsound bound, to test that oracle
    refute-check catches it."""
    def check(n_, k_, d_, q, variant=VARIANT_WEIGHT):
        if (n_, k_, d_) == (n, k, d):
            return FeasibilityVerdict(REFUTED, witness=1, lhs=1, rhs=0)
        return bound_a_check(n_, k_, d_, q, variant)

    return check


def run(*argv):
    """main on argv in this process: (exit code, stdout, stderr), with
    argparse's SystemExit read as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _pin(rc, out, err):
    """A run as tests/data/cli_digests.json pins it: sha256 of stdout and of
    stderr, and the exit code."""
    return {"stdout": _digest(out), "stderr": _digest(err), "exit": rc}


class TestEval:
    def test_griesmer_and_a(self):
        rc, out, _ = run("eval", "--q", "2", "--n", "20", "--d", "4",
                         "--bounds", "griesmer,a")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("a k_max=15")
        assert "refuted at i=1: lhs=16 > rhs=5" in lines[0]
        assert lines[1] == "griesmer k_max=16"
        assert lines[2] == "min k_max=15"

    def test_plotkin_not_applicable(self):
        rc, out, _ = run("eval", "--q", "2", "--n", "10", "--d", "3",
                         "--bounds", "plotkin")
        assert rc == 0
        assert out.splitlines()[0] == "plotkin k_max=n/a"

    @pytest.mark.parametrize("argv,message", [
        (("--q", "1", "--n", "3", "--d", "5"), "alphabet size must be at least 2, got q=1"),
        (("--q", "2", "--n=-3", "--d", "3"), "length must be positive, got n=-3"),
    ])
    def test_invalid_query_message(self, argv, message):
        rc, out, err = run("eval", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("unwritable", [True, False], ids=["raising", "missing"])
    def test_unwritable_stderr_drops_the_error_line(self, monkeypatch, unwritable):
        # a stderr whose write fails, or none at all, loses the error line;
        # main still returns 2, and writes nothing to stdout in its place
        class Raising(io.StringIO):
            def write(self, text):
                raise OSError(9, "Bad file descriptor")

        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", Raising() if unwritable else None)
        assert (main(["eval", "--q", "1", "--n", "5", "--d", "3"]), out.getvalue()) == (2, "")

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--q", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", ["eval --q 2", "bogus", "table --q 2 --n 5 --n-range 3..4 --d 3"])
    def test_usage_error_without_stderr_writes_nothing(self, monkeypatch, argv):
        # with no stderr, argparse's print_usage would fall back to stdout;
        # the usage line is dropped as the CLI's own error lines are, and
        # help still goes to stdout
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", None)
        with pytest.raises(SystemExit) as exc:
            main(shlex.split(argv))
        assert (exc.value.code, out.getvalue()) == (2, "")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0 and out.getvalue().startswith("usage: codebounds eval")

    @pytest.mark.parametrize("argv", ["--help", "eval --help", "table1 --help"])
    def test_help_without_stdout_writes_nothing(self, monkeypatch, argv):
        # with no stdout, argparse would write the help to stderr; it is
        # dropped, as any command's output is
        err = io.StringIO()
        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(sys, "stderr", err)
        with pytest.raises(SystemExit) as exc:
            main(shlex.split(argv))
        assert (exc.value.code, err.getvalue()) == (0, "")

    def test_integers_past_the_digit_limit_written_exactly(self):
        # str refuses more than 4300 digits where the interpreter has a limit,
        # so each value is built from its digits 1000 at a time
        for digits in ["1" + "0" * 9000, "9" * 4301,
                       "".join(str(i * i % 7 + 1) + "0" * (i % 3) for i in range(6000))]:
            value = 0
            for at in range(0, len(digits), 1000):
                value = value * 10 ** len(digits[at:at + 1000]) + int(digits[at:at + 1000])
            assert cli._exact(value) == digits


class TestTable:
    def test_csv_single_row(self):
        rc, out, _ = run("table", "--q", "2", "--n-range", "20..20",
                         "--d-range", "4..4", "--bounds", "g,a", "--format", "csv")
        assert rc == 0
        assert out == "q,n,d,griesmer,a\n2,20,4,16,15\n"

    def test_csv_ternary_rows(self):
        rc, out, _ = run("table", "--q", "3", "--n-range", "6..7",
                         "--d-range", "3..3", "--bounds", "g,a", "--format", "csv")
        assert rc == 0
        assert out.splitlines() == ["q,n,d,griesmer,a", "3,6,3,4,3", "3,7,3,5,4"]

    @pytest.mark.parametrize("fmt,expected", [
        ("csv", "q,n,d,griesmer\n"),
        ("text", "q  n  d  griesmer\n"),
        ("records", ""),
    ], ids=["csv", "text", "records"])
    def test_empty_intersection_header_only(self, fmt, expected):
        # every cell has d > n: csv and text write their header line alone,
        # and records, a line per cell, write nothing
        rc, out, _ = run("table", "--q", "2", "--n-range", "3..4",
                         "--d-range", "5..6", "--bounds", "g", "--format", fmt)
        assert rc == 0
        assert out == expected

    @pytest.mark.parametrize("argv,message", [
        (("--q", "1", "--n", "3", "--d", "5"), "alphabet size must be at least 2, got q=1"),
        (("--q", "2", "--n-range=-3..2", "--d", "3"), "length must be positive, got n=-3"),
    ])
    def test_invalid_query_without_cells_exits_2(self, argv, message):
        # every cell has d > n, so nothing is evaluated, yet the query is
        # rejected with the message eval prints
        rc, out, err = run("table", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (("--n", "5", "--n-range", "3..4", "--d", "3"), "argument --n-range: not allowed with argument --n"),
        (("--n", "5", "--d", "3", "--d-range", "3..4"), "argument --d-range: not allowed with argument --d"),
        (("--d", "3"), "one of the arguments --n --n-range is required"),
        (("--n-range", "3..4"), "one of the arguments --d --d-range is required"),
    ])
    def test_conflicting_or_missing_flags_exit_2(self, capsys, argv, message):
        # argparse rejects these before any row is printed, instead of one
        # flag of a pair being dropped
        with pytest.raises(SystemExit) as exc:
            main(["table", "--q", "2", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("argv,message", [
        (("--n-range", "-3..2", "--d", "3"), "length must be positive, got n=-3"),
        (("--n", "5", "--d-range", "-1..3"), "distance must satisfy 1 <= d <= n, got d=-1, n=5"),
        (("--n", "5", "--d-range", "-3..-5"), "--d-range range is empty: -3..-5"),
        (("--n-", "-3..2", "--d", "3"), "length must be positive, got n=-3"),
        (("--n-rang", "-3..2", "--d", "3"), "length must be positive, got n=-3"),
        (("--n", "5", "--d-r", "-1..3"), "distance must satisfy 1 <= d <= n, got d=-1, n=5"),
        (("--n", "5", "--d-ran", "-3..-5"), "--d-range range is empty: -3..-5"),
        (("--n-range", "7", "--d", "3"), "--n-range expects LO..HI, got '7'"),
    ])
    def test_negative_range_start_reaches_range_check(self, argv, message):
        # a value after --n-range or --d-range, or any abbreviation argparse
        # accepts for them, is read as the range even when it starts with
        # "-", as the "--n-range=-3..2" form above is; a range without ".."
        # is refused by the same check
        rc, out, err = run("table", "--q", "2", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv,same,lines", [
        (("--n", "5", "--d-range", "3..1000000000"), ("--n", "5", "--d-range", "3..5"), 4),
        (("--n-range", "1..1000000000", "--d", "1000000001"), ("--n", "5", "--d", "6"), 1),
    ])
    def test_cost_bounded_by_the_cells(self, argv, same, lines):
        # a cell has d <= n, so a row ends at d = n and no length below the
        # smallest d is walked, however far the ranges reach; in a fresh
        # interpreter under a timeout, so that a walk over the whole range
        # fails here instead of hanging the suite
        proc = _python("-B", "-m", "codebounds", "table", "--q", "2", *argv, "--format", "csv",
                       timeout=5)
        rc, out, err = run("table", "--q", "2", *same, "--format", "csv")
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (rc, out, err)
        assert rc == 0 and len(out.splitlines()) == lines

    def test_csv_round_trip(self):
        rc, out, _ = run("table", "--q", "2", "--n-range", "10..12",
                         "--d-range", "3..4", "--bounds", "hamming,a", "--format", "csv")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        for rec in rows:
            n, d = int(rec["n"]), int(rec["d"])
            assert 10 <= n <= 12 and d in (3, 4)
            int(rec["hamming"]), int(rec["a"])  # parse cleanly

    def test_rows_ascending(self):
        rc, out, _ = run("table", "--q", "2", "--n-range", "8..10",
                         "--d-range", "3..5", "--bounds", "a", "--format", "csv")
        keys = [(int(r["n"]), int(r["d"])) for r in csv.DictReader(io.StringIO(out))]
        assert keys == sorted(keys)

    def test_inverted_range_exits_2(self):
        rc, _, err = run("table", "--q", "2", "--n-range", "9..5",
                         "--d", "3", "--bounds", "a")
        assert rc == 2
        assert "range is empty" in err


class TestTable1:
    def test_block_g_documented_mismatches(self):
        rc, out, _ = run("table1", "--block", "g")
        assert rc == 1
        assert "18 rows checked" in out
        assert "q=2 n=80 d=15: k_g expected 54, computed 55 [documented]" in out
        assert "q=5 n=120 d=16: k_g expected 101, computed 102 [documented]" in out
        assert "mismatches: 0 undocumented, 2 documented" in out

    def test_block_g_with_allowances(self):
        rc, _, _ = run("table1", "--block", "g", "--allow-documented")
        assert rc == 0

    def test_block_h(self):
        rc, out, _ = run("table1", "--block", "h")
        assert rc == 1
        assert "q=3 n=76 d=68: k_A expected 8, computed 9 [documented]" in out
        assert "mismatches: 0 undocumented, 1 documented" in out

    def test_blocks_l_and_e_clean(self):
        for block in ("l", "e"):
            rc, out, _ = run("table1", "--block", block)
            assert rc == 0, block
            assert "mismatches: 0 undocumented, 0 documented" in out

    def test_all_blocks_with_allowances(self):
        rc, out, _ = run("table1", "--allow-documented")
        assert rc == 0
        assert "72 rows checked" in out
        assert "mismatches: 0 undocumented, 3 documented" in out

    def test_undocumented_cell_listed_first_and_fails(self, monkeypatch):
        # a cell of the last block, with no allowance, is made to differ: it
        # prints before the documented cells, carries no note, and no flag
        # forgives it
        target = next(r for r in golden.load_table1() if r.block == "e")
        recompute = golden.recompute_row

        def skewed(row):
            competitor, k_a = recompute(row)
            return (competitor + 1 if row == target else competitor), k_a

        monkeypatch.setattr(golden, "recompute_row", skewed)
        rc, out, _ = run("table1", "--allow-documented")
        assert rc == 1
        lines = out.splitlines()
        assert lines[1] == (f"  block e q={target.q} n={target.n} d={target.d}: "
                            f"k_e expected {target.k_competitor}, "
                            f"computed {target.k_competitor + 1}")
        assert lines[2].endswith(" [documented]")
        assert lines[-1] == "mismatches: 1 undocumented, 3 documented"

    def test_unreadable_reference_table_is_a_resource_error(self, monkeypatch):
        # a failed read of table1.csv exits 2 with one line that names the
        # file, and writes nothing to stdout
        def missing():
            raise FileNotFoundError(2, "No such file or directory", "missing/table1.csv")

        monkeypatch.setattr(golden, "load_table1", missing)
        assert run("table1") == (2, "", "error: cannot read missing/table1.csv: No such file or directory\n")

    def test_unknown_block_rejected(self):
        with pytest.raises(ValueError) as exc:
            golden.recompute_row(golden.TableRow("x", 2, 20, 4, 16, 15))
        assert str(exc.value) == "unknown block 'x'"

    def test_wrong_header_rejected(self, monkeypatch):
        # the header must name TableRow's fields in order: swapped columns
        # are refused, not read into the wrong fields
        monkeypatch.setattr(golden.__spec__.loader, "get_data",
                            lambda path: b"block,q,n,d,k_A,k_competitor\ng,2,20,4,15,16\n")
        with pytest.raises(ValueError) as exc:
            golden.load_table1()
        assert str(exc.value) == "reference table header must be block,q,n,d,k_competitor,k_A"


class TestSharedTable:
    """The table against its cells evaluated one at a time: no state carries
    from one call of the bound to the next."""

    @pytest.mark.parametrize("bounds", ["all", "l"])
    @pytest.mark.parametrize("q,n_lo,n_hi", [(2, 3, 40), (3, 3, 24), (4, 3, 18), (5, 3, 16), (7, 3, 12)])
    def test_table_matches_cells_outside_any_scope(self, q, n_lo, n_hi, bounds):
        rc, out, err = run("table", "--q", str(q), "--n-range", f"{n_lo}..{n_hi}",
                           "--d-range", f"1..{n_hi}", "--bounds", bounds, "--format", "csv")
        assert (rc, err) == (0, "")
        header, *rows = csv.reader(io.StringIO(out))
        ids = header[3:]
        expected = []
        for n in range(n_lo, n_hi + 1):
            for d in range(1, n + 1):
                by_id = {r.bound_id: r.k_max for r in best_upper_k(n, d, q, ids)[0]}
                expected.append([str(q), str(n), str(d)] + ["" if by_id[b] is None else str(by_id[b]) for b in ids])
        assert rows == expected

    def test_threads_on_interleaved_lengths_agree(self):
        # two threads, switching often, each alternating between two (n, q)
        # from one call to the next: every answer matches the serial one
        cells = [cell for n in range(8, 25) for d in range(2, n + 1)
                 for cell in ((n, d, 3), (n + 1, d, 2))]
        expected = [levenshtein.levenshtein_max_size(*cell) for cell in cells]
        answers: dict[int, list[int]] = {}

        def sweep(i):
            order = cells if i == 0 else cells[::-1]
            answers[i] = [levenshtein.levenshtein_max_size(*cell) for cell in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert answers == {0: expected, 1: expected[::-1]}


class TestOracleCommands:
    def test_best_d(self):
        rc, out, _ = run("oracle", "best-d", "--q", "2", "--n", "7", "--k", "4")
        assert rc == 0
        assert "best minimum distance for (7, 4) over q=2: 3" in out
        assert "witness tail matrix" in out

    @pytest.mark.parametrize("q,n,k", [(2, 7, 4), (5, 5, 3), (11, 9, 3)])
    def test_best_d_rows_read_back_as_the_witness_tail(self, q, n, k):
        # a row's symbols run together while each is one digit, and are
        # separated by one space from q = 11 on: the q = 11 witness holds
        # the row (1, 3, 6, 5, 7, 10)
        budget = 10 ** 21
        rc, out, err = run("oracle", "best-d", "--q", str(q), "--n", str(n), "--k", str(k),
                           "--budget", str(budget))
        assert (rc, err) == (0, "")
        _, tail = oracle.best_linear_d_witness(n, k, q, budget=budget)
        rows = out.splitlines()[2:]
        assert tuple(tuple(map(int, row.split() if q > 10 else row.strip())) for row in rows) == tail

    def test_refute_check_confirms(self):
        rc, out, _ = run("oracle", "refute-check", "--q", "3",
                         "--n-max", "6", "--k-max", "4", "--d-max", "4")
        assert rc == 0
        assert "0 contradictions" in out
        assert "(n=6, k=4, d=3) refuted: confirmed" in out

    def test_best_d_deeper_than_the_recursion_limit(self):
        # the search goes one level deeper per tail entry, 1099 here, more
        # than the interpreter's default recursion limit of 1000
        rc, out, err = run("oracle", "best-d", "--q", "2", "--n", "1100", "--k", "1",
                           "--budget", str(10 ** 400))
        assert (rc, err) == (0, "")
        assert out.splitlines() == ["best minimum distance for (1100, 1) over q=2: 1100",
                                    "witness tail matrix (rows):", "  " + "1" * 1099]

    def test_budget_exceeded_exits_2(self):
        rc, _, err = run("oracle", "best-d", "--q", "2", "--n", "30", "--k", "15")
        assert rc == 2
        assert "budget" in err

    def test_search_table_over_budget_exits_2(self, monkeypatch):
        # 3**10 codes fit the default budget, but the search's 59 048 x 59 049
        # codeword pairs do not; the search is replaced so that a missing
        # guard fails here instead of running
        def search(*args):
            raise AssertionError("search ran past the budget guard")

        monkeypatch.setattr(oracle, "_first_linear_tail", search)
        rc, out, err = run("oracle", "best-d", "--q", "3", "--n", "11", "--k", "10")
        assert rc == 2
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize("argv", [
        ("oracle", "best-d", "--q", "2", "--n", "7", "--k", "4"),
        ("oracle", "refute-check", "--q", "2", "--n-max", "5", "--k-max", "3", "--d-max", "3"),
        # a box with no refutation in it
        ("oracle", "refute-check", "--q", "2", "--n-max", "3", "--k-max", "3", "--d-max", "3"),
    ])
    def test_budget_zero_exits_2(self, argv):
        rc, out, err = run(*argv, "--budget", "0")
        assert rc == 2
        assert out == ""
        assert err == "error: budget must be at least 1, got 0\n"

    def test_refute_check_alphabet_checked_before_the_box(self):
        # the box holds no refutation, so no cross-check would reach the
        # search's own alphabet check
        rc, out, err = run("oracle", "refute-check", "--q", "1",
                           "--n-max", "3", "--k-max", "2", "--d-max", "2")
        assert (rc, out, err) == (2, "", "error: alphabet size must be at least 2, got q=1\n")

    def test_one_alphabet_message_for_every_command(self):
        # every command refuses q < 2 with the one message; the two oracle
        # commands check it in their one guard, before the budget
        commands = [("eval", "--n", "3", "--d", "2"), ("table", "--n", "3", "--d", "2"),
                    ("oracle", "best-d", "--n", "3", "--k", "1"),
                    ("oracle", "refute-check", "--n-max", "3", "--k-max", "2", "--d-max", "2")]
        for q, budget, argvs in [("1", (), commands), ("0", ("--budget", "0"), commands[2:])]:
            for argv in argvs:
                expected = (2, "", f"error: alphabet size must be at least 2, got q={q}\n")
                assert run(*argv, "--q", q, *budget) == expected, argv

    @pytest.mark.parametrize("q,n_max,k_max", [("4", "3", "2"), ("6", "4", "3")])
    def test_refute_check_nonprime_alphabet_refused_before_the_box(self, q, n_max, k_max):
        # neither box holds a refutation, so no cross-check would reach the
        # search's own prime test
        rc, out, err = run("oracle", "refute-check", "--q", q,
                           "--n-max", n_max, "--k-max", k_max, "--d-max", "2")
        assert (rc, out, err) == (2, "", f"error: linear enumeration needs a prime alphabet, got q={q}\n")

    @pytest.mark.parametrize("box,refutations,searches,implied", [
        # the bench's q = 2 box: all systematic codes fit the budget, and its
        # 2 refutations lie at 2 (n, k), (4, 3) and (5, 3), neither implied
        # by the other, so 2 nonlinear searches
        (("2", "5", "3", "3"), 2, {"_first_nonlinear_code": 2}, 0),
        # the bench's q = 3 box: no nonlinear search fits; its 33
        # refutations lie at 10 (n, k), of which (4, 3) and (5, 3) are
        # searched at their smallest refuted d and the other 8 follow by
        # puncturing or shortening, each passing the budget guard once
        (("3", "7", "6", "7"), 33, {"_first_linear_tail": 2}, 8),
    ], ids=["q2", "q3"])
    def test_refute_check_one_search_per_n_k(self, monkeypatch, box, refutations, searches, implied):
        log = record_calls(monkeypatch, oracle, *_SEARCHES)
        q, n_max, k_max, d_max = box
        rc, out, _ = run("oracle", "refute-check", "--q", q, "--n-max", n_max,
                         "--k-max", k_max, "--d-max", d_max)
        assert rc == 0
        assert out.endswith(f"{refutations} refutations cross-checked, 0 contradictions\n")
        guards = [(n, k) for name, n, k, *_ in log if name == "check_search_budget"]
        searched = {(n, k) for name, n, k, *_ in log if name != "check_search_budget"}
        assert Counter(name for name, *_ in log if name != "check_search_budget") == searches
        # one guard per (n, k): inside its search, or alone where it is implied
        assert len(guards) == len(set(guards)) and searched <= set(guards)
        assert len(set(guards) - searched) == implied

    @pytest.mark.parametrize("box,rc,checks", [
        (("2", "5", "3", "3"), 0, 2),
        (("3", "7", "6", "7"), 0, 17),
        # the box that ends in a budget refusal at (10, 5)
        (("2", "12", "9", "6"), 2, 33),
    ], ids=["q2", "q3", "refused"])
    def test_refute_check_walks_the_refuted_staircase(self, monkeypatch, box, rc, checks):
        # the refuted d at each (n, k) run from the smallest up to --d-max,
        # and the smallest only falls as k grows: one bound-A check per step
        # down and one that ends the steps, where checking every cell of the
        # last two boxes took 40 and 108
        calls = record_calls(monkeypatch, cli, "bound_a_check")
        q, n_max, k_max, d_max = box
        assert run("oracle", "refute-check", "--q", q, "--n-max", n_max, "--k-max", k_max,
                   "--d-max", d_max)[0] == rc
        assert len(calls) == checks

    def test_contradiction_searches_the_next_d(self, monkeypatch):
        # the literal box of test_literal_contradiction_output: (4, 3) is
        # confirmed at d = 3 alone; at (5, 3) the search at d = 3 finds the
        # Reed-Solomon code, and d = 4 follows from (4, 3) at d = 3 by
        # puncturing, and d = 5 from d = 4: 2 searches for 5 refutations,
        # each behind the budget guard
        log = record_calls(monkeypatch, oracle, *_SEARCHES)
        rc, out, _ = run("oracle", "refute-check", "--q", "5", "--n-max", "5",
                         "--k-max", "3", "--d-max", "5", "--variant-a", "literal")
        assert rc == 1
        assert out.endswith("5 refutations cross-checked, 1 contradictions\n")
        assert log == [("check_search_budget", 4, 3, 5, 10 ** 7), ("_first_linear_tail", 4, 3, 3, 5),
                       ("check_search_budget", 5, 3, 5, 10 ** 7), ("_first_linear_tail", 5, 3, 3, 5)]

    def test_implied_n_k_meets_the_budget_guard(self, monkeypatch):
        # in the pinned q = 2 box that ends in a budget refusal, (10, 5) is
        # refuted first at d = 6, which follows from (9, 5) at d = 5 by
        # puncturing; no search runs there, but the guard refuses it, as
        # the search would have
        log = record_calls(monkeypatch, oracle, *_SEARCHES)
        rc, out, err = run("oracle", "refute-check", "--q", "2", "--n-max", "12",
                           "--k-max", "9", "--d-max", "6")
        assert rc == 2
        assert len(out.splitlines()) == 62
        assert err == ("error: enumerating q**(k(n-k)) = 2**25 standard-form codes exceeds the"
                       " budget of 10000000\n")
        assert log[-1] == ("check_search_budget", 10, 5, 2, 10 ** 7)
        assert ("_first_linear_tail", 10, 5, 6, 2) not in log

    @pytest.mark.parametrize("variant", ["weight", "literal"])
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_refute_check_matches_a_search_per_triple(self, q, variant):
        # the command against a loop that cross-checks every refuted triple
        # of the box on its own; boxes that end in a budget refusal and
        # boxes that hold a contradiction (q = 5 under "literal") are among
        # them, and the budget of 2**12 admits the nonlinear search at
        # (n, k) = (4, 3) over q = 2 only
        for (n_max, k_max, d_max), budget in product(
                [(5, 3, 5), (6, 5, 4), (7, 6, 7), (8, 4, 8), (8, 7, 3)], [10 ** 7, 2 ** 12]):
            lines, failures = [], 0
            try:
                for n in range(4, n_max + 1):
                    for k in range(3, min(k_max, n - 1) + 1):
                        for d in range(3, min(d_max, n) + 1):
                            if bound_a_check(n, k, d, q, variant).refuted:
                                code = oracle.refutation_crosscheck(n, k, d, q, budget=budget)
                                failures += code is not None
                                lines.append(f"(n={n}, k={k}, d={d}) refuted: " + (
                                    "confirmed" if code is None else
                                    f"CONTRADICTION, oracle found a code with distance >= {d}"))
                lines.append(f"{len(lines)} refutations cross-checked, {failures} contradictions")
                rc = 1 if failures else 0
            except EnumerationBudgetError:
                rc = 2
            expected = "".join(line + "\n" for line in lines)
            got = run("oracle", "refute-check", "--q", str(q), "--n-max", str(n_max),
                      "--k-max", str(k_max), "--d-max", str(d_max), "--variant-a", variant,
                      "--budget", str(budget))
            assert got[:2] == (rc, expected), (n_max, k_max, d_max, budget)

    def test_nonlinear_contradiction_output(self, monkeypatch):
        # bound A made unsound at (6, 3, 3) over q = 2, where a code of
        # distance 3 exists; the budget admits all 2**24 systematic codes,
        # so the nonlinear search finds it
        monkeypatch.setattr(cli, "bound_a_check", refuting_also(6, 3, 3))
        rc, out, _ = run("oracle", "refute-check", "--q", "2", "--n-max", "6",
                         "--k-max", "3", "--d-max", "3", "--budget", str(2 ** 24))
        assert rc == 1
        assert out == (
            "(n=4, k=3, d=3) refuted: confirmed\n"
            "(n=5, k=3, d=3) refuted: confirmed\n"
            "(n=6, k=3, d=3) refuted: CONTRADICTION, oracle found a code with distance >= 3\n"
            "3 refutations cross-checked, 1 contradictions\n"
        )

    @pytest.mark.parametrize("variant", ["weight", "literal"])
    @pytest.mark.parametrize("q", [2, 3])
    def test_refute_check_scans_every_refuted_triple(self, monkeypatch, q, variant):
        # the n scan stops early once a whole (k, d) box is unrefuted; the
        # triples it prints must still be every refutation of a full scan;
        # the search, and the budget guard that an implied (n, k) passes
        # alone, are both stubbed
        monkeypatch.setattr(cli, "refutation_crosscheck", lambda *args, **kwargs: None)
        monkeypatch.setattr(oracle, "check_search_budget", lambda *args: None)
        for n_max in range(4, 13):
            for k_max in (2, 3, 4, 6, 12):
                for d_max in (2, 3, 5, 8, 12):
                    rc, out, _ = run("oracle", "refute-check", "--q", str(q),
                                     "--n-max", str(n_max), "--k-max", str(k_max),
                                     "--d-max", str(d_max), "--variant-a", variant)
                    expected = [f"(n={n}, k={k}, d={d}) refuted: confirmed"
                                for n in range(4, n_max + 1)
                                for k in range(3, min(k_max, n - 1) + 1)
                                for d in range(3, min(d_max, n) + 1)
                                if bound_a_check(n, k, d, q, variant).refuted]
                    assert rc == 0
                    assert out.splitlines() == expected + [
                        f"{len(expected)} refutations cross-checked, 0 contradictions"], (n_max, k_max, d_max)

    def test_literal_contradiction_output(self):
        # the literal variant refutes k = 3 at (n=5, d=3, q=5), where a
        # [5,3,3]_5 Reed-Solomon code exists; output recorded before the
        # oracle searches were rewritten
        rc, out, _ = run("oracle", "refute-check", "--q", "5", "--n-max", "5",
                         "--k-max", "3", "--d-max", "5", "--variant-a", "literal")
        assert rc == 1
        assert out == (
            "(n=4, k=3, d=3) refuted: confirmed\n"
            "(n=4, k=3, d=4) refuted: confirmed\n"
            "(n=5, k=3, d=3) refuted: CONTRADICTION, oracle found a code with distance >= 3\n"
            "(n=5, k=3, d=4) refuted: confirmed\n"
            "(n=5, k=3, d=5) refuted: confirmed\n"
            "5 refutations cross-checked, 1 contradictions\n"
        )


def _env():
    """The environment of a fresh interpreter with the package importable
    from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _python(*args, timeout=60):
    """Run a fresh interpreter with the package importable from src/."""
    return subprocess.run([sys.executable, *args], capture_output=True, env=_env(), timeout=timeout)


# about 660 kB of output, more than a pipe holds
_LONG_TABLE = ["table", "--q", "2", "--n-range", "4..20000", "--d", "3", "--bounds", "s,g"]


# Two stderrs that take no error line: fd 2 closed, where the interpreter
# sets no sys.stderr, and fd 2 open for reading only, where each write fails,
# as it does when a file opened at start-up takes a closed fd 2.
_UNWRITABLE_STDERR = ["2>&-", "2</dev/null"]


def _with_stderr(redirect, *argv):
    """The command line of the CLI on argv in a fresh interpreter, with its
    fd 2 redirected by the shell."""
    return ["sh", "-c", f'exec "$0" "$@" {redirect}', sys.executable, "-m", "codebounds", *argv]


def _buffered_env():
    """_env() with stdout block-buffered, as it is unless PYTHONUNBUFFERED
    is set, so that a failed write leaves output for the interpreter's own
    flush at exit."""
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


# What _run_fresh runs after its prelude: main on each command in turn, with
# output captured and SystemExit read as the exit code.  It prints the runs,
# each [exit code, stdout, stderr, parsers built so far], the modules loaded
# since its own imports, and the parsers built; only the _COUNT_PARSERS
# prelude counts parsers.
_RUNNER = (
    "import contextlib, io, json, shlex, sys\n"
    "before = set(sys.modules)\n"
    "from codebounds.cli import main\n"
    "runs = []\n"
    "for cmd in json.loads(sys.argv[1]):\n"
    "    out, err = io.StringIO(), io.StringIO()\n"
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "        try:\n"
    "            rc = main(shlex.split(cmd))\n"
    "        except SystemExit as exc:\n"
    "            rc = exc.code\n"
    "    runs.append([rc, out.getvalue(), err.getvalue(), len(built)])\n"
    "print(json.dumps([runs, sorted(set(sys.modules) - before), len(built)]))\n"
)

# Preludes: every numpy import fails; every ArgumentParser made, subparsers
# included, is counted.
_NO_NUMPY = "import sys\nsys.modules['numpy'] = None\n"
_COUNT_PARSERS = (
    "import argparse\n"
    "init = argparse.ArgumentParser.__init__\n"
    "def counting(self, *args, **kwargs):\n"
    "    built.append(1)\n"
    "    init(self, *args, **kwargs)\n"
    "argparse.ArgumentParser.__init__ = counting\n"
)


def _run_fresh(commands, prelude=""):
    """_RUNNER's output for commands, in a fresh interpreter after prelude;
    run without site, so that no module the host's site preloads escapes the
    checks of what a command loads."""
    proc = _python("-S", "-c", "built = []\n" + prelude + _RUNNER, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestEntryPoints:
    def test_package_root(self):
        # the root re-exports three names from bounds and loads no oracle,
        # hence no numpy
        proc = _python("-c", (
            "import json, sys, types, codebounds;"
            "print(json.dumps([sorted(k for k, v in vars(codebounds).items()"
            " if not k.startswith('_') and not isinstance(v, types.ModuleType)),"
            " isinstance(codebounds.__version__, str),"
            " [m for m in ('numpy', 'codebounds.oracle') if m in sys.modules]]))"))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [["BOUND_IDS", "BoundResult", "best_upper_k"], True, []]

    def test_cli_import_leaves_numpy_unloaded(self):
        # the package needs no numpy, and the CLI module loads none
        proc = _python("-c", "import sys, codebounds.cli; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"False\n"

    def test_huge_prime_alphabet_refused_by_budget(self):
        # trial division up to sqrt(q) would never end for this prime; run in
        # a fresh interpreter so that a regression fails on the timeout
        # instead of hanging the suite
        proc = _python("-m", "codebounds", "oracle", "best-d", "--q",
                       "1000000000000000000000000000057", "--n", "3", "--k", "1", timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"budget" in proc.stderr

    def test_huge_prime_alphabet_refused_before_the_box(self):
        # refute-check refuses the alphabet by the budget even when its box
        # holds no refutation; a fresh interpreter, as above, so that trial
        # division run first fails on the timeout
        proc = _python("-m", "codebounds", "oracle", "refute-check", "--q",
                       "1000000000000000000000000000057", "--n-max", "3", "--k-max", "2",
                       "--d-max", "2", timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr == (b"error: enumerating at least q = 1000000000000000000000000000057"
                               b" standard-form codes exceeds the budget of 10000000\n")

    def test_refute_check_stops_past_the_last_refutation(self):
        # (n, 3, 3) is refuted at n = 4 and 5 only, so the scan stops at
        # n = 6, the first n with every (k, d) of the box and none refuted,
        # instead of walking 10**8 lengths
        proc = _python("-m", "codebounds", "oracle", "refute-check", "--q", "2", "--n-max",
                       "100000000", "--k-max", "3", "--d-max", "3", timeout=10)
        assert proc.returncode == 0
        assert proc.stdout == (b"(n=4, k=3, d=3) refuted: confirmed\n(n=5, k=3, d=3) refuted: confirmed\n"
                               b"2 refutations cross-checked, 0 contradictions\n")
        assert proc.stderr == b""

    @pytest.mark.parametrize("n_max,k_max,d_max", [
        (10 ** 8, 2, 3), (10 ** 12, 2, 10 ** 12), (10 ** 6, 10 ** 12, 2)])
    def test_refute_check_ends_at_once_below_3(self, n_max, k_max, d_max):
        # A refutes no k <= 2 and no d <= 2, so a box with --k-max or
        # --d-max below 3 ends before its first length, however large the
        # other maxima are
        proc = _python("-m", "codebounds", "oracle", "refute-check", "--q", "2", "--n-max", str(n_max),
                       "--k-max", str(k_max), "--d-max", str(d_max), timeout=10)
        assert proc.returncode == 0
        assert proc.stdout == b"0 refutations cross-checked, 0 contradictions\n"
        assert proc.stderr == b""

    def test_refute_check_budget_guard_bounds_its_cost(self):
        # past the searches at (4, 3, 3) and (5, 3, 3), every refutation of
        # this box follows from a smaller one by puncturing, so only the
        # search's budget guard, met once per (n, k), ends it: at (11, 3),
        # after 20 lines, instead of confirming triples up to n = 10**8
        proc = _python("-m", "codebounds", "oracle", "refute-check", "--q", "2", "--n-max",
                       "100000000", "--k-max", "3", "--d-max", "100000000", timeout=10)
        assert proc.returncode == 2
        lines = proc.stdout.splitlines()
        assert len(lines) == 20
        assert lines[-1] == b"(n=10, k=3, d=10) refuted: confirmed"
        assert proc.stderr == (b"error: enumerating q**(k(n-k)) = 2**24 standard-form codes"
                               b" exceeds the budget of 10000000\n")

    def test_oracle_commands_run_without_numpy(self):
        # numpy is a test dependency only: with every numpy import failing,
        # both oracle commands print their pinned output
        commands = ["oracle best-d --q 2 --n 7 --k 4",
                    "oracle refute-check --q 3 --n-max 6 --k-max 5 --d-max 6"]
        runs, _, _ = _run_fresh(commands, _NO_NUMPY)
        assert [[rc, _digest(out)] for rc, out, *_ in runs] == [
            [0, PINNED[cmd]["stdout"]] for cmd in commands]

    @pytest.mark.parametrize("runs,loaded,unloaded", [
        # start-up and the bound commands load neither the reference table
        # nor the oracle, nor csv or dataclasses for them
        ([("eval --q 2 --n 500 --d 95", "eval --q 2 --n 500 --d 95 --bounds all", 0),
          ("table --q 2 --n 12 --d-range 3..5 --bounds h,all,g,h --format csv",
           "table --q 2 --n 12 --d-range 3..5 --bounds h,all,g,h --format csv", 0),
          ("eval --q 2", None, 2)],
         [], ["codebounds.golden", "codebounds.oracle", "csv", "dataclasses"]),
        # table1 splits the reference table's lines itself and reads the
        # file through its module's loader: it loads neither csv nor
        # importlib.resources, nor the oracle or dataclasses
        ([("table1 --block g --allow-documented", "table1 --block g", 0)],
         ["codebounds.golden"], ["codebounds.oracle", "csv", "dataclasses", "importlib.resources"]),
        # a well-formed command line is read without argparse, hence without
        # the gettext and locale modules its messages need
        ([("eval --q 2 --n 500 --d 95", "eval --q 2 --n 500 --d 95 --bounds all", 0),
          ("table --q 2 --n 12 --d-range 3..5 --bounds h,all,g,h --format csv",
           "table --q 2 --n 12 --d-range 3..5 --bounds h,all,g,h --format csv", 0),
          ("table1 --block g --allow-documented", "table1 --block g", 0),
          ("oracle refute-check --q 2 --n-max 5 --k-max 3 --d-max 3",
           "oracle refute-check --q 2 --n-max 5 --k-max 3 --d-max 3", 0)],
         [], ["argparse", "gettext", "locale"]),
        ([("eval --q 2", None, 2)], ["argparse"], []),
        # the oracle answers in plain tuples, so it loads no dataclasses and,
        # through them, no inspect
        ([("oracle refute-check --q 2 --n-max 5 --k-max 3 --d-max 3",
           "oracle refute-check --q 2 --n-max 5 --k-max 3 --d-max 3", 0),
          ("oracle best-d --q 5 --n 5 --k 3", "oracle best-d --q 5 --n 5 --k 3", 0)],
         ["codebounds.oracle"], ["codebounds.golden", "dataclasses", "inspect"]),
    ])
    def test_commands_load_only_what_they_run(self, runs, loaded, unloaded):
        # each run is (command, key of its pinned stdout or None for no
        # output, exit code); a module already loaded before the CLI is
        # imported, by the interpreter or by the runner itself, counts as
        # neither loaded nor unloaded
        results, new, _ = _run_fresh([cmd for cmd, _, _ in runs])
        assert [[rc, _digest(out)] for rc, out, *_ in results] == [
            [rc, PINNED[key]["stdout"] if key else _digest("")] for _, key, rc in runs]
        assert [m for m in loaded + unloaded if m in new] == loaded

    def test_unreadable_reference_table_is_no_write_error(self):
        # entry reports a failed read of the reference table as the command's
        # own error: only a failed write to stdout is "cannot write output"
        proc = _python("-c", (
            "import sys\n"
            "from codebounds import cli, golden\n"
            "def missing():\n"
            "    raise FileNotFoundError(2, 'No such file or directory', 'missing/table1.csv')\n"
            "golden.load_table1 = missing\n"
            "sys.argv[1:] = ['table1']\n"
            "cli.entry()\n"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, b"", b"error: cannot read missing/table1.csv: No such file or directory\n")

    def test_closed_pipe_ends_in_one_error_line(self):
        # the reader closes the pipe after 100 bytes of a table far larger
        # than the pipe holds
        with subprocess.Popen([sys.executable, "-m", "codebounds", *_LONG_TABLE], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=_buffered_env()) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
        assert (head[:1], proc.returncode, err) == (b"q", 2, b"error: cannot write output: Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("argv", [
        # the long table fails on a write inside the command, a short
        # answer on the flush after it
        _LONG_TABLE, ["eval", "--q", "2", "--n", "20", "--d", "4"]], ids=["table", "eval"])
    def test_full_device_ends_in_one_error_line(self, argv):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "codebounds", *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=_buffered_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (2, b"error: cannot write output: No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_full_device_help_ends_in_one_error_line(self, unbuffered):
        # help follows the rules of any command's output: a failed write,
        # at the flush or (unbuffered) at the write itself, exits 2 with
        # one line, not 120 from the interpreter's flush at exit, nor 0
        env = {**_buffered_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "codebounds", "--help"], stdout=full,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        assert proc.returncode == 2 and proc.stderr.startswith(b"error: cannot write output:"), proc.stderr

    @pytest.mark.parametrize("redirect", _UNWRITABLE_STDERR)
    def test_unwritable_stderr_keeps_exit_2(self, redirect):
        # the command drops its error line and writes nothing to stdout in
        # its place; it and an argparse usage error exit 2 as with stderr
        # open, not 120 from a failed flush of stderr at exit; neither
        # writes to stdout
        command = subprocess.run(_with_stderr(redirect, "eval", "--q", "1", "--n", "5", "--d", "3"),
                                 stdout=subprocess.PIPE, env=_buffered_env(), timeout=60)
        usage = subprocess.run(_with_stderr(redirect, "eval", "--q", "2"), stdout=subprocess.PIPE,
                               env=_buffered_env(), timeout=60)
        assert (command.returncode, command.stdout, usage.returncode, usage.stdout) == (2, b"", 2, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("redirect", _UNWRITABLE_STDERR)
    def test_full_device_with_unwritable_stderr_exits_2(self, redirect):
        # a failed write to stdout is still exit 2 when its error line
        # cannot be written either
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(_with_stderr(redirect, "eval", "--q", "2", "--n", "5", "--d", "3"),
                                  stdout=full, env=_buffered_env(), timeout=60)
        assert proc.returncode == 2

    def test_closed_stdout_exits_0_silently(self):
        # with fd 1 closed, as `>&-` leaves it, the interpreter sets no
        # sys.stdout and print writes nothing
        proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "codebounds",
                               "eval", "--q", "2", "--n", "20", "--d", "4"],
                              stderr=subprocess.PIPE, env=_buffered_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_closed_stdout_help_exits_0_silently(self):
        # argparse would write the help to stderr where there is no stdout
        proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "codebounds",
                               "table1", "--help"],
                              stderr=subprocess.PIPE, env=_buffered_env(), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")


# One process runs these in turn, twice over; each is also run alone.  A
# usage error, two ValueError exits and literal-variant calls sit between
# calls of the same command, so that a default or a parse left behind by one
# call would show in the next.
_REUSE_COMMANDS = [
    "eval --q 5 --n 10 --d 3 --bounds a --variant-a literal",
    "eval --q 5 --n 10 --d 3 --bounds a",
    "table --q 2 --n 12 --d-range 3..5 --bounds h,all,g,h --format csv",
    "table --q 2 --d 3",
    "table --q 2 --n-range 10..12 --d 3 --bounds a --format csv",
    "eval --q 1 --n 5 --d 2",
    "eval --q 2 --n 20 --d 4 --bounds ,,",
    "eval --q 2 --n 20 --d 4 --bounds griesmer,a",
    "oracle best-d --q 2 --n 7 --k 4",
    "oracle refute-check --q 5 --n-max 5 --k-max 3 --d-max 5 --variant-a literal",
    "oracle refute-check --q 3 --n-max 6 --k-max 5 --d-max 6",
    "table --q 5 --n-range 10..14 --d-range 3..6 --bounds all --format records",
]


class TestParserReuse:
    def test_import_builds_no_parser(self):
        # start-up pays for no parser: a command line left to argparse builds one
        assert _run_fresh([], _COUNT_PARSERS)[2] == 0

    def test_each_usage_error_builds_a_fresh_parser(self):
        # the count after each of ten calls: a well-formed command line
        # builds no parser, and each usage error builds one whole tree, the
        # root and one parser per command path, which no later call reuses
        runs, _, _ = _run_fresh(5 * ["eval --q 2 --n 20 --d 4", "table --q 2 --d 3"], _COUNT_PARSERS)
        counts = [count for *_, count in runs]
        assert counts == [(i + 1) // 2 * (1 + len(cli._GRAMMAR)) for i in range(10)], counts

    def test_repeated_calls_match_fresh_runs(self):
        runs, _, _ = _run_fresh(2 * _REUSE_COMMANDS)
        in_process = [[out, err, rc] for rc, out, err, _ in runs]
        fresh = []
        for cmd in _REUSE_COMMANDS:
            alone = _python("-m", "codebounds", *shlex.split(cmd))
            fresh.append([alone.stdout.decode(), alone.stderr.decode(), alone.returncode])
        assert in_process == 2 * fresh
        assert sorted({rc for _, _, rc in fresh}) == [0, 1, 2]
        assert fresh[0][0] != fresh[1][0]  # the variants differ here
        pins = {cmd: _pin(rc, out, err)
                for cmd, (out, err, rc) in zip(_REUSE_COMMANDS, fresh) if cmd in PINNED}
        assert len(pins) == 6 and pins == {cmd: PINNED[cmd] for cmd in pins}


# help and usage errors, whose text argparse alone writes; recorded before the
# strict reading of well-formed command lines, while argparse read every one
_ARGPARSE_COMMANDS = [
    "--help",
    "eval --help",
    "table --help",
    "table1 --help",
    "oracle --help",
    "oracle refute-check --help",
    "eval --q 2",
    "eval --q x --n 5 --d 3",
    "table --q 2 --n 5 --n-range 3..4 --d 3",
    "table --q 2 --n-r -3..2 --d 3",
    "eval --q 2 --n 9 --d 3 extra",
    "bogus",
]

CLI_DIGEST_COMMANDS = [
    *(f"eval --q {q} --n {n} --d {d} --bounds all"
      for q, n, d in [(2, 500, 95), (3, 160, 40), (5, 100, 30)]),
    "table --q 2 --n-range 4..40 --d-range 3..25 --bounds all --format csv",
    "table --q 5 --n-range 10..20 --d-range 3..20 --bounds all",
    "table1 --block all --allow-documented",
    "oracle refute-check --q 3 --n-max 6 --k-max 5 --d-max 6",
    "table1 --block g",
    "table1 --block h",
    "table --q 2 --n 12 --d-range 3..5 --bounds h,all,g,h --format csv",
    "eval --q 2 --n 20 --d 4 --bounds ,,",
    "oracle best-d --q 2 --n 7 --k 4",
    "eval --q 2 --n 2000 --d 400 --bounds all",
    "oracle refute-check --q 2 --n-max 5 --k-max 3 --d-max 3",
    "oracle refute-check --q 3 --n-max 7 --k-max 6 --d-max 7",
    "eval --q 2 --n 600 --d 3 --bounds all",
    "table --q 5 --n-range 4..40 --d-range 3..20 --bounds a --variant-a literal --format csv",
    "oracle best-d --q 5 --n 5 --k 3",
    "table --q 2 --n-range 100..160 --d-range 45..160 --bounds a --format csv",
    "table --q 3 --n-range 60..120 --d-range 30..120 --bounds a --variant-a literal --format csv",
    "oracle refute-check --q 5 --n-max 5 --k-max 3 --d-max 5 --variant-a literal",
    "oracle refute-check --q 2 --n-max 12 --k-max 9 --d-max 6",
    "eval --q 2 --n 15000 --d 3 --bounds h",
    "table --q 5 --n-range 10..14 --d-range 3..6 --bounds all --format records",
    "oracle best-d --q 11 --n 9 --k 3 --budget 1000000000000000000000",
    *_ARGPARSE_COMMANDS,
]


def cli_digests():
    """sha256 of stdout and of stderr, and the exit code, per command; help
    and usage text is wrapped at argparse's default 80 columns."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return {cmd: _pin(*run(*shlex.split(cmd))) for cmd in CLI_DIGEST_COMMANDS}


def test_outputs_match_pinned_digests():
    """Byte-identity of stdout, stderr and exit code for CLI_DIGEST_COMMANDS,
    against digests recorded before the Levenshtein scan lost its patience
    constant; the last five commands were appended, and their digests
    recorded, before table1's verdict and the oracle dispatch were merged
    into one path each, the length-2000 query's while the Levenshtein check
    still summed over Krawtchouk rows, and the bench's two oracle boxes'
    while the cross-check still ran best_linear_d_witness.  The length-600
    query, 16 of whose 18 Levenshtein checks fail at a coefficient near the
    top, was recorded while the check still shifted its coefficients from
    i = 0 upwards, the literal bound-A table while bound_a_max_k still
    bisected all of 3..n-1, the q = 5 best-d witness while the oracle still
    returned a generator object, the two bound-A tables at large d (q = 2
    under "weight", q = 3 under "literal") while bound_a_max_k still probed
    its cap and one below it and then bisected under them, as it did in
    most of their cells, the literal-variant contradiction box while
    refute-check still searched at every refuted d, the help and usage
    errors of _ARGPARSE_COMMANDS while argparse still read every command
    line, and the q = 2 box that ends in a budget refusal while refute-check
    still searched every (n, k) it confirmed.  The length-15000 Hamming cap,
    of more than 4300 digits, was recorded once eval wrote it exactly; before
    that eval exited 2 on it.  The records table was recorded before the
    argparse tree was built anew per command line, and the q = 11 best-d
    witness once its symbols were separated by spaces.  The file was made
    from the repository root, with Python 3.11, by

    PYTHONPATH=src:tests python -c 'import json, test_cli; print(json.dumps(test_cli.cli_digests(), indent=1))' > tests/data/cli_digests.json

    tests/data/cli_digests_3.13.json holds, as recorded with Python 3.13.13,
    the three pins that differ there: `table --help` and the `table` usage
    error (its usage line changed in 3.13), and `bogus` (choices lost their
    quotes in a later 3.13 release; 3.13.0 still writes them).  The first
    two are taken from 3.13 on, and `bogus` wherever argparse writes the
    choices without quotes (_quotes_choices), so 3.13.0 keeps the older pin.
    """
    assert cli_digests() == PINNED


@pytest.mark.parametrize("cmd", ["table --q 2 --n 12 --d-range 3..5 --bounds h,all,g,h --format csv",
                                 "table1 --block all --allow-documented"])
def test_outputs_do_not_depend_on_the_order_of_bounds(monkeypatch, cmd):
    # results come back in the order of bounds.BOUNDS; table and table1 read
    # each cap by its bound id, so reversing the table moves no output byte
    monkeypatch.setattr("codebounds.bounds.BOUNDS", dict(reversed(BOUNDS.items())))
    assert _pin(*run(*shlex.split(cmd))) == PINNED[cmd]


# Fuzzed argvs stay cheap: n <= 24, q <= 13, at most 10 values per range and
# a budget of at most 10**4, which the oracle commands always pass.  Each
# value is drawn as often from its valid small range as from the whole one,
# so that many argvs get past the input checks.
def _int(rng):
    return str(rng.randint(1, 8) if rng.randrange(2) else rng.randint(-3, 24))


def _alphabet(rng):
    return str(rng.choice([2, 3, 5, 7]) if rng.randrange(2) else rng.randint(-2, 13))


def _budget(rng):
    return str(rng.randint(1, 10 ** 4) if rng.randrange(2) else rng.randint(-2, 10 ** 4))


def _variant(rng):
    return rng.choice(["weight", "literal", "exact"])


def _bound_list(rng):
    if rng.randrange(2):
        return rng.choice(["all", "a", "g,a", "h,all,g,h", "l,e,p,s", ",,", "A, G"])
    return "".join(rng.choices("aeghlps,xy .-", k=rng.randint(0, 8)))


def _range(rng):
    """A LO..HI range of at most 10 values (empty when LO > HI), or junk."""
    if rng.randrange(2):
        hi = rng.randint(-3, 24)
        return f"{rng.randint(hi - 9, hi + 2)}..{hi}"
    return rng.choice(["", "..", "3..", "..4", "3-5", "a..b", "1..2..3", "7", "- 1..2"])


def _span_args(rng, flag):
    """--x N, --x-range LO..HI, both, or neither."""
    single, ranged = [f"--{flag}", _int(rng)], [f"--{flag}-range", _range(rng)]
    return rng.choice([single, ranged, single + ranged, []])


_COMMANDS = ["eval", "table", "table1", "best-d", "refute-check"]


def _argv(rng):
    """A command line of one of _COMMANDS, each as often."""
    command = rng.choice(_COMMANDS)
    if command == "eval":
        return ["eval", "--q", _alphabet(rng), "--n", _int(rng), "--d", _int(rng),
                "--bounds", _bound_list(rng), "--variant-a", _variant(rng)]
    if command == "table":
        return ["table", "--q", _alphabet(rng), *_span_args(rng, "n"), *_span_args(rng, "d"),
                "--bounds", _bound_list(rng), "--format", rng.choice(["csv", "text", "records", "tsv"])]
    if command == "table1":
        return ["table1", "--block", rng.choice(golden.BLOCKS + ("all", "x"))] + (
            ["--allow-documented"] if rng.randrange(2) else [])
    if command == "best-d":
        return ["oracle", "best-d", "--q", _alphabet(rng), "--n", _int(rng), "--k", _int(rng),
                "--budget", _budget(rng)]
    return ["oracle", "refute-check", "--q", _alphabet(rng), "--n-max", _int(rng), "--k-max", _int(rng),
            "--d-max", _int(rng), "--variant-a", _variant(rng), "--budget", _budget(rng)]


def _command(argv):
    """Which of _COMMANDS an argv of _argv runs."""
    return argv[1] if argv[0] == "oracle" else argv[0]


def _failed_draws(failures):
    """One line per failed draw: its index, its argv and what went wrong."""
    return "\n".join(f"draw {i}: {shlex.join(argv)}: {what}" for i, argv, what in failures)


def test_fuzzed_arguments_exit_cleanly():
    """Every argv ends in exit 0, 1 or 2, never in a traceback; argparse's
    own usage errors arrive as SystemExit(2).  300 argvs from seed 8110."""
    rng = random.Random(8110)
    failures, commands = [], set()
    for i in range(300):
        argv = _argv(rng)
        commands.add(_command(argv))
        try:
            rc = run(*argv)[0]
        except Exception as exc:
            failures.append((i, argv, f"raised {exc!r}"))
        else:
            if rc not in (0, 1, 2):
                failures.append((i, argv, f"exit {rc!r}"))
    assert not failures, _failed_draws(failures)
    assert commands == set(_COMMANDS)


def _flag_spans(argv):
    """(start, end) of each flag and its value in an argv of _argv."""
    i = 2 if argv[0] == "oracle" else 1
    while i < len(argv):
        end = i + 1 if argv[i] == "--allow-documented" else i + 2
        yield i, end
        i = end


_MUTATIONS = ["abbreviate", "equals", "dash", "repeat", "drop", "extra", "help"]


def _mutate(rng, argv):
    """argv with one change the strict reading leaves to argparse (an
    abbreviated flag, a "--flag=value", a repeated flag, a stray token, "-h",
    a value that starts with "-"), or with one flag dropped, which may leave
    it well-formed; with the kind of change, one of _MUTATIONS."""
    spans = list(_flag_spans(argv))
    start, end = rng.choice(spans)
    flag = argv[start]
    kinds = ["repeat", "drop", "extra", "help"]
    if len(flag) > 3:
        kinds.append("abbreviate")
    if end - start == 2:
        kinds += ["equals", "dash"]
    kind = rng.choice(kinds)
    if kind == "abbreviate":
        argv[start] = flag[:rng.randint(3, len(flag) - 1)]
    elif kind == "equals":
        argv[start:end] = [f"{flag}={argv[start + 1]}"]
    elif kind == "dash":
        argv[start + 1] = "-" + argv[start + 1]
    elif kind == "repeat":
        argv += argv[start:end]
    elif kind == "drop":
        del argv[start:end]
    else:
        at = rng.randint(spans[0][0], len(argv))
        argv.insert(at, "-h" if kind == "help" else rng.choice(["extra", "5", "eval"]))
    return argv, kind


_WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))


def test_strict_reading_matches_argparse():
    """main reads the raw command line strictly and gives argparse the one
    with its range values attached.  Wherever it reads without argparse, it
    gets the namespace argparse gives the attached argv; every argv that
    attaching changes is left to argparse, and so is every mutation but a
    dropped flag, unless the abbreviated flag is itself a flag of the
    command, as --n of --n-range.  400 argvs from seed 9090, about half of
    them mutated."""
    rng = random.Random(9090)
    parser = cli._build_parser()
    failures, commands, kinds = [], set(), set()
    for i in range(400):
        argv = _argv(rng)
        commands.add(_command(argv))
        argv, kind = _mutate(rng, argv) if rng.randrange(2) else (argv, None)
        kinds.add(kind)
        attached = cli._attach_range_values(argv)
        args = cli._read_well_formed(argv)
        if args is not None and vars(args) != vars(parser.parse_args(attached)):
            failures.append((i, argv, "read otherwise than by argparse"))
        if args is not None and (attached != argv or kind in ("equals", "dash", "repeat", "extra", "help")):
            failures.append((i, argv, f"read without argparse ({kind or 'attached'})"))
    assert not failures, _failed_draws(failures)
    assert commands == set(_COMMANDS)
    assert kinds == {None, *_MUTATIONS}


def test_strict_reading_takes_the_pinned_and_bench_command_lines():
    # every pinned command line but help and usage errors, and the command
    # lines the bench runs, are read without argparse; each of those
    # argparse writes is left to it
    bench = [_WORKLOADS["eval_argv"](2, 500, 95), _WORKLOADS["REPRODUCE_ARGV"],
             *_WORKLOADS["_sweep_op"](30).argvs,
             *_WORKLOADS["_oracle_op"](_WORKLOADS["ORACLE_BOXES"]).argvs]
    pinned = [shlex.split(cmd) for cmd in CLI_DIGEST_COMMANDS if cmd not in _ARGPARSE_COMMANDS]
    parser = cli._build_parser()
    for argv in pinned + bench:
        args = cli._read_well_formed(argv)
        assert args is not None and vars(args) == vars(parser.parse_args(argv)), argv
    assert [cmd for cmd in _ARGPARSE_COMMANDS if cli._read_well_formed(shlex.split(cmd))] == []


@pytest.mark.parametrize("workload", ["query", "sweep", "gate"])
def test_bench_pinned_outputs(workload):
    # the outputs bench/expected.json pins, through main: each pinned query
    # seed's whole output, every sweep row and each gate query, compared by
    # the digests the bench checks
    pins = _WORKLOADS["EXPECTED"][workload]
    if workload == "query":
        runs = {key: [_WORKLOADS["eval_argv"](*point)
                      for point in _WORKLOADS["query_points"](*map(int, key.split("/")))]
                for key in pins}
    elif workload == "sweep":
        runs = {n: _WORKLOADS["_sweep_op"](int(n)).argvs for n in pins}
    else:
        runs = {d: [_WORKLOADS["eval_argv"](_WORKLOADS["GATE_Q"], _WORKLOADS["GATE_N"], int(d))]
                for d in pins}
    assert sorted(runs) == sorted(pins) and runs
    for key, argvs in runs.items():
        outs = []
        for argv in argvs:
            rc, out, err = run(*argv)
            assert (rc, err) == (0, ""), argv
            outs.append(out)
        assert _WORKLOADS["digest"]("".join(outs)) == pins[key], (workload, key)
