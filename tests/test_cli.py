"""CLI surface: output formats, exit codes, determinism, golden-table diffing."""

import contextlib
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import refuting_also

from codebounds import cli, golden, levenshtein, oracle
from codebounds.bounds import bound_a_check, best_upper_k
from codebounds.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEval:
    def test_griesmer_and_a(self, capsys):
        rc, out, _ = run(capsys, "eval", "--q", "2", "--n", "20", "--d", "4",
                         "--bounds", "griesmer,a")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("a k_max=15")
        assert "refuted at i=1: lhs=16 > rhs=5" in lines[0]
        assert lines[1] == "griesmer k_max=16"
        assert lines[2] == "min k_max=15"

    def test_plotkin_not_applicable(self, capsys):
        rc, out, _ = run(capsys, "eval", "--q", "2", "--n", "10", "--d", "3",
                         "--bounds", "plotkin")
        assert rc == 0
        assert out.splitlines()[0] == "plotkin k_max=n/a"

    def test_invalid_alphabet_exits_2(self, capsys):
        rc, _, err = run(capsys, "eval", "--q", "1", "--n", "5", "--d", "2")
        assert rc == 2
        assert "alphabet" in err

    @pytest.mark.parametrize("argv,message", [
        (("--q", "1", "--n", "3", "--d", "5"), "alphabet size must be at least 2, got q=1"),
        (("--q", "2", "--n=-3", "--d", "3"), "length must be positive, got n=-3"),
    ])
    def test_invalid_query_message(self, capsys, argv, message):
        rc, out, err = run(capsys, "eval", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--q", "2"])
        assert exc.value.code == 2


class TestTable:
    def test_csv_single_row(self, capsys):
        rc, out, _ = run(capsys, "table", "--q", "2", "--n-range", "20..20",
                         "--d-range", "4..4", "--bounds", "g,a", "--format", "csv")
        assert rc == 0
        assert out == "q,n,d,griesmer,a\n2,20,4,16,15\n"

    def test_csv_ternary_rows(self, capsys):
        rc, out, _ = run(capsys, "table", "--q", "3", "--n-range", "6..7",
                         "--d-range", "3..3", "--bounds", "g,a", "--format", "csv")
        assert rc == 0
        assert out.splitlines() == ["q,n,d,griesmer,a", "3,6,3,4,3", "3,7,3,5,4"]

    def test_empty_intersection_header_only(self, capsys):
        rc, out, _ = run(capsys, "table", "--q", "2", "--n-range", "3..4",
                         "--d-range", "5..6", "--bounds", "g", "--format", "csv")
        assert rc == 0
        assert out == "q,n,d,griesmer\n"

    @pytest.mark.parametrize("argv,message", [
        (("--q", "1", "--n", "3", "--d", "5"), "alphabet size must be at least 2, got q=1"),
        (("--q", "2", "--n-range=-3..2", "--d", "3"), "length must be positive, got n=-3"),
    ])
    def test_invalid_query_without_cells_exits_2(self, capsys, argv, message):
        # every cell has d > n, so nothing is evaluated, yet the query is
        # rejected with the message eval prints
        rc, out, err = run(capsys, "table", *argv)
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
    ])
    def test_negative_range_start_reaches_range_check(self, capsys, argv, message):
        # a value after --n-range or --d-range is read as the range even when
        # it starts with "-", as the "--n-range=-3..2" form above is
        rc, out, err = run(capsys, "table", "--q", "2", *argv)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_csv_round_trip(self, capsys):
        rc, out, _ = run(capsys, "table", "--q", "2", "--n-range", "10..12",
                         "--d-range", "3..4", "--bounds", "hamming,a", "--format", "csv")
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        for rec in rows:
            n, d = int(rec["n"]), int(rec["d"])
            assert 10 <= n <= 12 and d in (3, 4)
            int(rec["hamming"]), int(rec["a"])  # parse cleanly

    def test_rows_ascending(self, capsys):
        rc, out, _ = run(capsys, "table", "--q", "2", "--n-range", "8..10",
                         "--d-range", "3..5", "--bounds", "a", "--format", "csv")
        keys = [(int(r["n"]), int(r["d"])) for r in csv.DictReader(io.StringIO(out))]
        assert keys == sorted(keys)

    def test_inverted_range_exits_2(self, capsys):
        rc, _, err = run(capsys, "table", "--q", "2", "--n-range", "9..5",
                         "--d", "3", "--bounds", "a")
        assert rc == 2
        assert "range is empty" in err

    def test_determinism(self, capsys):
        args = ("table", "--q", "5", "--n-range", "10..14", "--d-range", "3..6",
                "--bounds", "all", "--format", "records")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestTable1:
    def test_block_g_documented_mismatches(self, capsys):
        rc, out, _ = run(capsys, "table1", "--block", "g")
        assert rc == 1
        assert "18 rows checked" in out
        assert "q=2 n=80 d=15: k_g expected 54, computed 55 [documented]" in out
        assert "q=5 n=120 d=16: k_g expected 101, computed 102 [documented]" in out
        assert "mismatches: 0 undocumented, 2 documented" in out

    def test_block_g_with_allowances(self, capsys):
        rc, _, _ = run(capsys, "table1", "--block", "g", "--allow-documented")
        assert rc == 0

    def test_block_h(self, capsys):
        rc, out, _ = run(capsys, "table1", "--block", "h")
        assert rc == 1
        assert "q=3 n=76 d=68: k_A expected 8, computed 9 [documented]" in out
        assert "mismatches: 0 undocumented, 1 documented" in out

    def test_blocks_l_and_e_clean(self, capsys):
        for block in ("l", "e"):
            rc, out, _ = run(capsys, "table1", "--block", block)
            assert rc == 0, block
            assert "mismatches: 0 undocumented, 0 documented" in out

    def test_all_blocks_with_allowances(self, capsys):
        rc, out, _ = run(capsys, "table1", "--allow-documented")
        assert rc == 0
        assert "72 rows checked" in out
        assert "mismatches: 0 undocumented, 3 documented" in out

    def test_undocumented_cell_listed_first_and_fails(self, capsys, monkeypatch):
        # a cell of the last block, with no allowance, is made to differ: it
        # prints before the documented cells, carries no note, and no flag
        # forgives it
        target = next(r for r in golden.load_table1() if r.block == "e")
        recompute = golden.recompute_row

        def skewed(row):
            competitor, k_a = recompute(row)
            return (competitor + 1 if row == target else competitor), k_a

        monkeypatch.setattr(golden, "recompute_row", skewed)
        rc, out, _ = run(capsys, "table1", "--allow-documented")
        assert rc == 1
        lines = out.splitlines()
        assert lines[1] == (f"  block e q={target.q} n={target.n} d={target.d}: "
                            f"k_e expected {target.k_competitor}, "
                            f"computed {target.k_competitor + 1}")
        assert lines[2].endswith(" [documented]")
        assert lines[-1] == "mismatches: 1 undocumented, 3 documented"


class TestSharedTable:
    """The table against its cells evaluated one at a time: no state carries
    from one call of the bound to the next."""

    @pytest.mark.parametrize("bounds", ["all", "l"])
    @pytest.mark.parametrize("q,n_lo,n_hi", [(2, 3, 40), (3, 3, 24), (4, 3, 18), (5, 3, 16), (7, 3, 12)])
    def test_table_matches_cells_outside_any_scope(self, capsys, q, n_lo, n_hi, bounds):
        rc, out, err = run(capsys, "table", "--q", str(q), "--n-range", f"{n_lo}..{n_hi}",
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
    def test_best_d(self, capsys):
        rc, out, _ = run(capsys, "oracle", "best-d", "--q", "2", "--n", "7", "--k", "4")
        assert rc == 0
        assert "best minimum distance for (7, 4) over q=2: 3" in out
        assert "witness tail matrix" in out

    def test_refute_check_confirms(self, capsys):
        rc, out, _ = run(capsys, "oracle", "refute-check", "--q", "3",
                         "--n-max", "6", "--k-max", "4", "--d-max", "4")
        assert rc == 0
        assert "0 contradictions" in out
        assert "(n=6, k=4, d=3) refuted: confirmed" in out

    def test_best_d_deeper_than_the_recursion_limit(self, capsys):
        # the search goes one level deeper per tail entry, 1099 here, more
        # than the interpreter's default recursion limit of 1000
        rc, out, err = run(capsys, "oracle", "best-d", "--q", "2", "--n", "1100", "--k", "1",
                           "--budget", str(10 ** 400))
        assert (rc, err) == (0, "")
        assert out.splitlines() == ["best minimum distance for (1100, 1) over q=2: 1100",
                                    "witness tail matrix (rows):", "  " + "1" * 1099]

    def test_budget_exceeded_exits_2(self, capsys):
        rc, _, err = run(capsys, "oracle", "best-d", "--q", "2", "--n", "30", "--k", "15")
        assert rc == 2
        assert "budget" in err

    def test_search_table_over_budget_exits_2(self, capsys, monkeypatch):
        # 3**10 codes fit the default budget, but the search's 59 048 x 59 049
        # codeword pairs do not; the search is replaced so that a missing
        # guard fails here instead of running
        def search(*args):
            raise AssertionError("search ran past the budget guard")

        monkeypatch.setattr(oracle, "_first_linear_tail", search)
        rc, out, err = run(capsys, "oracle", "best-d", "--q", "3", "--n", "11", "--k", "10")
        assert rc == 2
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize("argv", [
        ("oracle", "best-d", "--q", "2", "--n", "7", "--k", "4"),
        ("oracle", "refute-check", "--q", "2", "--n-max", "5", "--k-max", "3", "--d-max", "3"),
        # a box with no refutation in it
        ("oracle", "refute-check", "--q", "2", "--n-max", "3", "--k-max", "3", "--d-max", "3"),
    ])
    def test_budget_zero_exits_2(self, capsys, argv):
        rc, out, err = run(capsys, *argv, "--budget", "0")
        assert rc == 2
        assert out == ""
        assert err == "error: budget must be at least 1, got 0\n"

    def test_refute_check_alphabet_checked_before_the_box(self, capsys):
        # the box holds no refutation, so no cross-check would reach the
        # search's own alphabet check
        rc, out, err = run(capsys, "oracle", "refute-check", "--q", "1",
                           "--n-max", "3", "--k-max", "2", "--d-max", "2")
        assert (rc, out, err) == (2, "", "error: alphabet size must be at least 2, got q=1\n")

    @pytest.mark.parametrize("q,n_max,k_max", [("4", "3", "2"), ("6", "4", "3")])
    def test_refute_check_nonprime_alphabet_refused_before_the_box(self, capsys, q, n_max, k_max):
        # neither box holds a refutation, so no cross-check would reach the
        # search's own prime test
        rc, out, err = run(capsys, "oracle", "refute-check", "--q", q,
                           "--n-max", n_max, "--k-max", k_max, "--d-max", "2")
        assert (rc, out, err) == (2, "", f"error: linear enumeration needs a prime alphabet, got q={q}\n")

    def test_refute_check_one_linear_search_per_refutation(self, capsys, monkeypatch):
        # the bench's q = 3 box: no nonlinear search fits, so each of its 33
        # refutations makes exactly one linear search, at its own d
        calls = {"tail": 0, "best_d": 0}
        first_tail, best_d = oracle._first_linear_tail, oracle.best_linear_d_witness

        def tail(*args):
            calls["tail"] += 1
            return first_tail(*args)

        def best(*args, **kwargs):
            calls["best_d"] += 1
            return best_d(*args, **kwargs)

        monkeypatch.setattr(oracle, "_first_linear_tail", tail)
        monkeypatch.setattr(oracle, "best_linear_d_witness", best)
        rc, out, _ = run(capsys, "oracle", "refute-check", "--q", "3", "--n-max", "7",
                         "--k-max", "6", "--d-max", "7")
        assert rc == 0
        assert out.endswith("33 refutations cross-checked, 0 contradictions\n")
        assert calls == {"tail": 33, "best_d": 0}

    def test_nonlinear_contradiction_output(self, capsys, monkeypatch):
        # bound A made unsound at (6, 3, 3) over q = 2, where a code of
        # distance 3 exists; the budget admits all 2**24 systematic codes,
        # so the nonlinear search finds it
        fake = refuting_also(6, 3, 3)
        monkeypatch.setattr(oracle, "bound_a_check", fake)
        monkeypatch.setattr(cli, "bound_a_check", fake)
        rc, out, _ = run(capsys, "oracle", "refute-check", "--q", "2", "--n-max", "6",
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
    def test_refute_check_scans_every_refuted_triple(self, capsys, monkeypatch, q, variant):
        # the n scan stops early once a whole (k, d) box is unrefuted; the
        # triples it prints must still be every refutation of a full scan
        monkeypatch.setattr(cli, "refutation_crosscheck", lambda *args, **kwargs: oracle.CONFIRMED)
        for n_max in range(4, 13):
            for k_max in (2, 3, 4, 6, 12):
                for d_max in (2, 3, 5, 8, 12):
                    rc, out, _ = run(capsys, "oracle", "refute-check", "--q", str(q),
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

    def test_literal_contradiction_output(self, capsys):
        # the literal variant refutes k = 3 at (n=5, d=3, q=5), where a
        # [5,3,3]_5 Reed-Solomon code exists; output recorded before the
        # oracle searches were rewritten
        rc, out, _ = run(capsys, "oracle", "refute-check", "--q", "5", "--n-max", "5",
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


def _python(*args, timeout=60):
    """Run a fresh interpreter with the package importable from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                           env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


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
        # k <= 2 is never refuted, so no n of this box is; the scan stops at
        # n = 4 instead of walking 10**8 lengths
        proc = _python("-m", "codebounds", "oracle", "refute-check", "--q", "2", "--n-max",
                       "100000000", "--k-max", "2", "--d-max", "3", timeout=10)
        assert proc.returncode == 0
        assert proc.stdout == b"0 refutations cross-checked, 0 contradictions\n"
        assert proc.stderr == b""

    def test_oracle_commands_run_without_numpy(self):
        # numpy is a test dependency only: with every numpy import failing,
        # both oracle commands print their pinned output
        commands = ["oracle best-d --q 2 --n 7 --k 4",
                    "oracle refute-check --q 3 --n-max 6 --k-max 5 --d-max 6"]
        proc = _python("-c", (
            "import contextlib, hashlib, io, json, shlex, sys\n"
            "sys.modules['numpy'] = None\n"
            "from codebounds.cli import main\n"
            "runs = []\n"
            "for cmd in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        rc = main(shlex.split(cmd))\n"
            "    runs.append([rc, hashlib.sha256(out.getvalue().encode()).hexdigest()])\n"
            "print(json.dumps(runs))\n"), json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        pinned = json.loads((Path(__file__).parent / "data" / "cli_digests.json").read_text())
        assert json.loads(proc.stdout) == [[0, pinned[cmd]["stdout"]] for cmd in commands]

    def test_python_m_matches_main(self, capsys):
        argv = ("eval", "--q", "2", "--n", "20", "--d", "4", "--bounds", "griesmer,a")
        proc = _python("-m", "codebounds", *argv)
        rc, out, err = run(capsys, *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out.encode(), err.encode())


# Counts every ArgumentParser made in this interpreter, subparsers included.
_COUNT_PARSERS = (
    "import argparse\n"
    "built = []\n"
    "init = argparse.ArgumentParser.__init__\n"
    "def counting(self, *args, **kwargs):\n"
    "    built.append(1)\n"
    "    init(self, *args, **kwargs)\n"
    "argparse.ArgumentParser.__init__ = counting\n"
)

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
]


class TestParserReuse:
    def test_import_builds_no_parser(self):
        # start-up pays for no parser: the first call of main builds it
        proc = _python("-c", _COUNT_PARSERS + "import codebounds.cli\nprint(len(built))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"0\n"

    def test_main_builds_the_parser_once(self):
        # the count after each of ten calls, usage errors among them
        proc = _python("-c", _COUNT_PARSERS + (
            "import contextlib, io, shlex\n"
            "from codebounds.cli import main\n"
            "counts = []\n"
            "for cmd in 5 * ['eval --q 2 --n 20 --d 4', 'table --q 2 --d 3']:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            main(shlex.split(cmd))\n"
            "        except SystemExit:\n"
            "            pass\n"
            "    counts.append(len(built))\n"
            "print(counts)\n"))
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)
        assert counts[0] > 0 and counts == counts[:1] * 10, counts

    def test_repeated_calls_match_fresh_runs(self):
        proc = _python("-c", (
            "import contextlib, io, json, shlex, sys\n"
            "from codebounds.cli import main\n"
            "runs = []\n"
            "for cmd in 2 * json.loads(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        try:\n"
            "            rc = main(shlex.split(cmd))\n"
            "        except SystemExit as exc:\n"
            "            rc = exc.code\n"
            "    runs.append([out.getvalue(), err.getvalue(), rc])\n"
            "print(json.dumps(runs))\n"), json.dumps(_REUSE_COMMANDS))
        assert proc.returncode == 0, proc.stderr
        in_process = json.loads(proc.stdout)
        fresh = []
        for cmd in _REUSE_COMMANDS:
            alone = _python("-m", "codebounds", *shlex.split(cmd))
            fresh.append([alone.stdout.decode(), alone.stderr.decode(), alone.returncode])
        assert in_process == 2 * fresh
        assert sorted({rc for _, _, rc in fresh}) == [0, 1, 2]
        assert fresh[0][0] != fresh[1][0]  # the variants differ here
        pinned = json.loads((Path(__file__).parent / "data" / "cli_digests.json").read_text())
        runs = {cmd: {"stdout": hashlib.sha256(out.encode()).hexdigest(),
                      "stderr": hashlib.sha256(err.encode()).hexdigest(), "exit": rc}
                for cmd, (out, err, rc) in zip(_REUSE_COMMANDS, fresh) if cmd in pinned}
        assert len(runs) == 4 and runs == {cmd: pinned[cmd] for cmd in runs}


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
]


def cli_digests():
    """sha256 of stdout and of stderr, and the exit code, per command."""
    digests = {}
    for cmd in CLI_DIGEST_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(shlex.split(cmd))
        digests[cmd] = {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
                        "exit": rc}
    return digests


def test_outputs_match_pinned_digests():
    """Byte-identity of stdout, stderr and exit code for CLI_DIGEST_COMMANDS,
    against digests recorded before the Levenshtein scan lost its patience
    constant; the last five commands were appended, and their digests
    recorded, before table1's verdict and the oracle dispatch were merged
    into one path each, the length-2000 query's while the Levenshtein check
    still summed over Krawtchouk rows, and the bench's two oracle boxes'
    while the cross-check still ran best_linear_d_witness.  The last command,
    16 of whose 18 Levenshtein checks fail at a coefficient near the top, was
    recorded while the check still shifted its coefficients from i = 0
    upwards.  The file was made from the
    repository root with

    PYTHONPATH=src:tests python -c 'import json, test_cli; print(json.dumps(test_cli.cli_digests(), indent=1))' > tests/data/cli_digests.json
    """
    pinned = json.loads((Path(__file__).parent / "data" / "cli_digests.json").read_text())
    assert cli_digests() == pinned


# Fuzzed argvs stay cheap: n <= 24, q <= 13, at most 10 values per range and
# a budget of at most 10**4, which the oracle commands always pass.  Each
# value is drawn as often from its valid small range as from the whole one,
# so that many argvs get past the input checks.
_ints = st.one_of(st.integers(1, 8), st.integers(-3, 24)).map(str)
_alphabets = st.one_of(st.sampled_from([2, 3, 5, 7]), st.integers(-2, 13)).map(str)
_budgets = st.one_of(st.integers(1, 10 ** 4), st.integers(-2, 10 ** 4)).map(str)
_variants = st.sampled_from(["weight", "literal", "exact"])
_bound_lists = st.one_of(
    st.sampled_from(["all", "a", "g,a", "h,all,g,h", "l,e,p,s", ",,", "A, G"]),
    st.text(alphabet="aeghlps,xy .-", max_size=8),
)


@st.composite
def _ranges(draw):
    """A LO..HI range of at most 10 values (empty when LO > HI), or junk."""
    hi = draw(st.integers(-3, 24))
    lo = draw(st.integers(hi - 9, hi + 2))
    junk = st.sampled_from(["", "..", "3..", "..4", "3-5", "a..b", "1..2..3", "7", "- 1..2"])
    return draw(st.one_of(st.just(f"{lo}..{hi}"), junk))


def _span_args(flag):
    """--x N, --x-range LO..HI, both, or neither."""
    single = _ints.map(lambda v: [f"--{flag}", v])
    ranged = _ranges().map(lambda r: [f"--{flag}-range", r])
    return st.one_of(single, ranged, st.tuples(single, ranged).map(lambda p: p[0] + p[1]), st.just([]))


def _argvs():
    ev = st.tuples(_alphabets, _ints, _ints, _bound_lists, _variants).map(
        lambda t: ["eval", "--q", t[0], "--n", t[1], "--d", t[2], "--bounds", t[3], "--variant-a", t[4]])
    table = st.tuples(_alphabets, _span_args("n"), _span_args("d"), _bound_lists,
                      st.sampled_from(["csv", "text", "records", "tsv"])).map(
        lambda t: ["table", "--q", t[0], *t[1], *t[2], "--bounds", t[3], "--format", t[4]])
    table1 = st.tuples(st.sampled_from(golden.BLOCKS + ("all", "x")), st.booleans()).map(
        lambda t: ["table1", "--block", t[0]] + (["--allow-documented"] if t[1] else []))
    best_d = st.tuples(_alphabets, _ints, _ints, _budgets).map(
        lambda t: ["oracle", "best-d", "--q", t[0], "--n", t[1], "--k", t[2], "--budget", t[3]])
    refute = st.tuples(_alphabets, _ints, _ints, _ints, _variants, _budgets).map(
        lambda t: ["oracle", "refute-check", "--q", t[0], "--n-max", t[1], "--k-max", t[2],
                   "--d-max", t[3], "--variant-a", t[4], "--budget", t[5]])
    return st.one_of(ev, table, table1, best_d, refute)


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_fuzzed_arguments_exit_cleanly(argv):
    """Every argv ends in exit 0, 1 or 2, never in a traceback; argparse's
    own usage errors arrive as SystemExit(2)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    assert rc in (0, 1, 2), argv
