"""Kernel-polynomial bound: reference dimensions, soundness floors, internals."""

import hashlib
import json
from fractions import Fraction
from math import comb, lcm
from operator import mul
from pathlib import Path

import pytest

from codebounds.exactmath import floor_log_q, krawtchouk
from codebounds.levenshtein import _KrawtchoukRows, levenshtein_max_size
from codebounds.oracle import best_linear_d


@pytest.mark.parametrize("n,d,q,k_expected", [
    (8, 3, 2, 5),
    (10, 3, 2, 7),
    (24, 5, 2, 17),
    (11, 3, 3, 9),
    (7, 3, 5, 5),
    (13, 5, 5, 9),
])
def test_reference_dimensions(n, d, q, k_expected):
    assert floor_log_q(levenshtein_max_size(n, d, q), q) == k_expected


def test_never_exceeds_trivial_count():
    for n, d, q in [(5, 2, 2), (9, 4, 3), (6, 6, 5), (3, 1, 2)]:
        assert levenshtein_max_size(n, d, q) <= q ** n


def test_distance_one_and_tiny_lengths_are_trivial():
    assert levenshtein_max_size(6, 1, 2) == 64
    assert levenshtein_max_size(2, 2, 3) == 9


def test_upper_bounds_actual_codes():
    # exhaustive small-scale optima give hard floors for any valid bound
    cases = [(7, 4, 2, 3), (6, 3, 2, 3), (5, 2, 2, 3)]
    for n, k, q, d in cases:
        assert best_linear_d(n, k, q) == d
        assert levenshtein_max_size(n, d, q) >= q ** k


def test_binary_perfect_code_floor():
    # A(7,3) = 16 via the perfect single-error-correcting code
    assert levenshtein_max_size(7, 3, 2) >= 16


def test_deterministic():
    assert levenshtein_max_size(24, 5, 2) == levenshtein_max_size(24, 5, 2)


def test_recurrence_table_matches_direct_formula():
    # the table on n at x = 0..n, and the adjacent rows on n - 1 and n - 2
    # at x - 1, the x - 1 = -1 column included
    for n, q in [(8, 2), (7, 3), (6, 5)]:
        table = _KrawtchoukRows(n, q)
        for i in range(n + 1):
            assert table.row(i) == [krawtchouk(n, q, i, x) for x in range(n + 1)], (n, q, i)
        for m in (n - 1, n - 2):
            rows = list(table.adjacent(m))
            assert len(rows) == m + 1
            for c, row in enumerate(rows):
                assert row == [krawtchouk(m, q, c, x - 1) for x in range(n + 1)], (n, q, m, c)


def test_values_match_pinned_digests():
    r"""Every bound for q in {2, 3, 5}, n in 3..40 and n = 120, all d, against
    digests recorded with the earlier exhaustive degree scan.  The file was
    made from the repository root with

    PYTHONPATH=src python -c 'import hashlib, json; from codebounds.levenshtein import levenshtein_max_size as L; print(json.dumps({f"{q}/{n}": hashlib.sha256("\n".join(str(L(n, d, q)) for d in range(1, n + 1)).encode()).hexdigest() for q in (2, 3, 5) for n in [*range(3, 41), 120]}, indent=1))' > tests/data/levenshtein_pin.json
    """
    pinned = json.loads((Path(__file__).parent / "data" / "levenshtein_pin.json").read_text())
    for key, expected in pinned.items():
        q, n = map(int, key.split("/"))
        values = "\n".join(str(levenshtein_max_size(n, d, q)) for d in range(1, n + 1))
        assert hashlib.sha256(values.encode()).hexdigest() == expected, key


def _every_degree_reference(n, d, q):
    """The bound over every degree of both branches, each candidate checked
    against the definition: f(0) > 0, f(j) <= 0 for j = d..n, f_0 > 0 and
    f_i >= 0 for i = 1..n.  The kernel is summed in Fractions; only the
    Krawtchouk table is shared with the module (and checked above)."""
    table = _KrawtchoukRows(n, q)
    weighted = [[comb(n, x) * (q - 1) ** x * k for x, k in enumerate(table.row(i))]
                for i in range(n + 1)]
    best = q ** n
    for m, factor in ((n - 1, [d - x for x in range(n + 1)]),
                      (n - 2, [(d - x) * (n - x) for x in range(n + 1)])):
        kernel = [Fraction(0)] * (n + 1)
        for c, row in enumerate(table.adjacent(m)):
            a = Fraction(row[d], comb(m, c) * (q - 1) ** c)
            kernel = [t + a * r for t, r in zip(kernel, row)]
            scale = lcm(*(t.denominator for t in kernel))
            f = [u * (t.numerator * (scale // t.denominator)) ** 2
                 for u, t in zip(factor, kernel)]
            f0 = sum(map(mul, f, weighted[0]))
            if f[0] <= 0 or f0 <= 0 or f0 * best <= f[0] * q ** n:
                continue  # not a candidate, or cannot lower the minimum
            if all(v <= 0 for v in f[d:]) and all(
                sum(map(mul, f, weighted[i])) >= 0 for i in range(1, n + 1)
            ):
                best = f[0] * q ** n // f0
    return best


@pytest.mark.parametrize("n,q,d_step", [(60, 2, 4), (80, 2, 4), (60, 3, 5), (45, 5, 6)])
def test_stop_rule_matches_every_degree_scan(n, q, d_step):
    # beyond the pinned grid: the scan stops at the first candidate that does
    # not improve, the reference never stops
    for d in range(3, n + 1, d_step):
        assert levenshtein_max_size(n, d, q) == _every_degree_reference(n, d, q), (n, d, q)


def test_invalid_queries_rejected():
    with pytest.raises(ValueError):
        levenshtein_max_size(5, 6, 2)
    with pytest.raises(ValueError):
        levenshtein_max_size(5, 3, 1)
