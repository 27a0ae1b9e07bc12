"""CLI surface: output formats, exit codes, determinism, golden-table diffing."""

import contextlib
import csv
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from codebounds import oracle
from codebounds.cli import main


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

    def test_budget_exceeded_exits_2(self, capsys):
        rc, _, err = run(capsys, "oracle", "best-d", "--q", "2", "--n", "30", "--k", "15")
        assert rc == 2
        assert "budget" in err

    def test_search_table_over_budget_exits_2(self, capsys, monkeypatch):
        # 3**10 codes fit the default budget, but the search's 59 048 x 59 049
        # message-by-column table (about 26 GiB as int64) does not; the search
        # is replaced so that a missing guard fails here instead of allocating
        def search(*args):
            raise AssertionError("search ran past the budget guard")

        monkeypatch.setattr(oracle, "_best_d_vectorized", search)
        rc, out, err = run(capsys, "oracle", "best-d", "--q", "3", "--n", "11", "--k", "10")
        assert rc == 2
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize("argv", [
        ("oracle", "best-d", "--q", "2", "--n", "7", "--k", "4"),
        ("oracle", "refute-check", "--q", "2", "--n-max", "5", "--k-max", "3", "--d-max", "3"),
    ])
    def test_budget_zero_exits_2(self, capsys, argv):
        rc, out, err = run(capsys, *argv, "--budget", "0")
        assert rc == 2
        assert out == ""
        assert err == "error: budget must be at least 1, got 0\n"

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


CLI_DIGEST_COMMANDS = [
    *(f"eval --q {q} --n {n} --d {d} --bounds all"
      for q, n, d in [(2, 500, 95), (3, 160, 40), (5, 100, 30)]),
    "table --q 2 --n-range 4..40 --d-range 3..25 --bounds all --format csv",
    "table --q 5 --n-range 10..20 --d-range 3..20 --bounds all",
    "table1 --block all --allow-documented",
    "oracle refute-check --q 3 --n-max 6 --k-max 5 --d-max 6",
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
    constant.  The file was made from the repository root with

    PYTHONPATH=src:tests python -c 'import json, test_cli; print(json.dumps(test_cli.cli_digests(), indent=1))' > tests/data/cli_digests.json
    """
    pinned = json.loads((Path(__file__).parent / "data" / "cli_digests.json").read_text())
    assert cli_digests() == pinned
