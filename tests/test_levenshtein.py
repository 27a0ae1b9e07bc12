"""Kernel-polynomial bound: reference dimensions, soundness floors, internals."""

import hashlib
import json
from fractions import Fraction
from functools import cache
from math import comb, lcm
from operator import mul
from pathlib import Path

import pytest
from reference import best_linear_d, krawtchouk

from codebounds.exactmath import floor_log_q
from codebounds import levenshtein
from codebounds.levenshtein import _KrawtchoukRows, _candidates, _numerators, levenshtein_max_size


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


@cache
def _reference_rows(m, q, n, shift):
    """K_c(x - shift) on m from the explicit sum, c = 0..m, at x = 0..n."""
    return tuple(tuple(krawtchouk(m, q, c, x - shift) for x in range(n + 1)) for c in range(m + 1))


def test_recurrence_table_matches_direct_formula():
    # the table on n at x = -1..n + 1, and the rows that the difference
    # identity reads off it, on n - 1 and n - 2 at x - 1
    for n, q in [(8, 2), (7, 3), (6, 5), (5, 7)]:
        table = _KrawtchoukRows(n, q)
        for i in range(n + 1):
            assert table.row(i) == [krawtchouk(n, q, i, x) for x in range(-1, n + 2)], (n, q, i)
        for m in (n - 1, n - 2):
            for c in range(m + 1):
                assert table.kernel_row(m, c) == [krawtchouk(m, q, c, x - 1) for x in range(n + 1)], (n, q, m, c)
        assert table.weights == [comb(n, x) * (q - 1) ** x for x in range(n + 1)]


def test_values_match_pinned_digests():
    r"""Bounds against digests recorded with earlier scans.  A key "q/n" pins
    every d in 1..n; a key "q/n/lo..hi/step" pins d = lo, lo + step, .., hi.
    The keys for q in {2, 3, 5}, n in 3..40 and n = 120 were made with the
    exhaustive degree scan, from the repository root, by

    PYTHONPATH=src python -c 'import hashlib, json; from codebounds.levenshtein import levenshtein_max_size as L; print(json.dumps({f"{q}/{n}": hashlib.sha256("\n".join(str(L(n, d, q)) for d in range(1, n + 1)).encode()).hexdigest() for q in (2, 3, 5) for n in [*range(3, 41), 120]}, indent=1))' > tests/data/levenshtein_pin.json

    and the keys for q in {4, 7, 8, 9}, n in 3..30, and "2/250/3..83/4" with
    the same digest by the scan that built f and its sum at every degree,
    before candidates were read from running sums.
    """
    pinned = json.loads((Path(__file__).parent / "data" / "levenshtein_pin.json").read_text())
    for key, expected in pinned.items():
        q, n, *rest = key.split("/")
        q, n = int(q), int(n)
        if rest:
            lo, hi = map(int, rest[0].split(".."))
            ds = range(lo, hi + 1, int(rest[1]))
        else:
            ds = range(1, n + 1)
        values = "\n".join(str(levenshtein_max_size(n, d, q)) for d in ds)
        assert hashlib.sha256(values.encode()).hexdigest() == expected, key


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_running_sums_match_direct_kernel_sum(q):
    # at every degree of both branches, against the kernel summed here from
    # the explicit Krawtchouk sum over one fixed denominator: the scan's
    # candidate test and value equal those of f = wf * kernel**2 summed over
    # all n + 1 points, and the Christoffel-Darboux numerators, c = m
    # included, are a positive multiple of the kernel.  They equal it times
    # den / scale at every x, so each floor division in them was exact.
    for n in range(3, 31):
        table = _KrawtchoukRows(n, q)
        weights = [comb(n, x) * (q - 1) ** x for x in range(n + 1)]
        for d in range(2, n + 1):
            for m, factor in ((n - 1, [d - x for x in range(n + 1)]),
                              (n - 2, [(d - x) * (n - x) for x in range(n + 1)])):
                wf = [w * f for w, f in zip(weights, factor)]
                norms = [comb(m, c) * (q - 1) ** c for c in range(m + 1)]
                scale = lcm(*norms)
                candidates = {c: (value, den, td) for value, c, den, td in _candidates(n, m, d, q)}
                kernel = [0] * (n + 1)
                for c, row in enumerate(_reference_rows(m, q, n, 1)):
                    kernel = [t + scale // norms[c] * row[d] * r for t, r in zip(kernel, row)]
                    g = [w * v * v for w, v in zip(wf, kernel)]
                    total = sum(g)
                    direct = g[0] * q ** n // total if g[0] > 0 and total > 0 else None
                    value, den, td = candidates.get(c, (None, None, None))
                    assert value == direct, (q, n, d, m, c)
                    den_c = lcm(*norms[:c + 1])
                    td_c = kernel[d] * den_c // scale
                    assert value is None or (den, td) == (den_c, td_c), (q, n, d, m, c)
                    num = _numerators(table, m, d, c, den_c, td_c)
                    assert kernel[d] > 0 and num[d] > 0, (q, n, d, m, c)
                    assert [v * scale for v in num] == [t * den_c for t in kernel], (q, n, d, m, c)


def test_gate_builds_few_polynomials():
    # at (500, 95, 2) only the minimum of each decreasing run is checked, each
    # from its top coefficient down: a few f lists and about one full check,
    # and numerators only for the f lists
    counts = {"f": 0, "sums": 0, "num": 0}
    check = levenshtein._coefficients_nonnegative
    numerators = levenshtein._numerators

    class CountingRows:
        def __init__(self, rows):
            self.rows = rows

        def row(self, i):
            counts["sums"] += 1
            return self.rows.row(i)

    def counting_check(rows, g, top):
        counts["f"] += 1
        return check(CountingRows(rows), g, top)

    def counting_numerators(*args):
        counts["num"] += 1
        return numerators(*args)

    levenshtein._coefficients_nonnegative = counting_check
    levenshtein._numerators = counting_numerators
    try:
        levenshtein_max_size(500, 95, 2)
    finally:
        levenshtein._coefficients_nonnegative = check
        levenshtein._numerators = numerators
    assert 1 <= counts["f"] <= 8 and counts["sums"] <= 300, counts
    assert counts["num"] == counts["f"], counts


def _every_degree_reference(n, d, q):
    """The bound over every degree of both branches, each candidate checked
    against the definition: f(0) > 0, f(j) <= 0 for j = d..n, f_0 > 0 and
    f_i >= 0 for i = 1..n.  The kernel is summed in Fractions, and every
    Krawtchouk value comes from the explicit sum, not from the module."""
    weighted = [[comb(n, x) * (q - 1) ** x * k for x, k in enumerate(row)]
                for row in _reference_rows(n, q, n, 0)]
    best = q ** n
    for m, factor in ((n - 1, [d - x for x in range(n + 1)]),
                      (n - 2, [(d - x) * (n - x) for x in range(n + 1)])):
        kernel = [Fraction(0)] * (n + 1)
        for c, row in enumerate(_reference_rows(m, q, n, 1)):
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


@pytest.mark.parametrize("n,q,d_step", [(60, 2, 4), (80, 2, 4), (60, 3, 5), (45, 5, 6), (30, 4, 3)])
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
