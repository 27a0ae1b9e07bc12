"""Kernel-polynomial bound: reference dimensions, soundness floors, internals."""

import hashlib
import json
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from reference import best_linear_d, krawtchouk

from codebounds.exactmath import floor_log_q
from codebounds import levenshtein
from codebounds.levenshtein import (_candidates, _coefficients, _kernel_row, _numerators,
                                    _second_negative, levenshtein_max_size)


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


def _next_p(m, q, n, c, d):
    """P_{c+1} = K_{c+1}(d - 1) on m from the explicit sum, read as
    sum_{t <= c+1} K_t(d) on m + 1, which also gives the degree m + 1 that
    c = m needs (see test_prefix_sum_identities)."""
    return sum(row[d] for row in _reference_rows(m + 1, q, n, 0)[:c + 2])


def _certificate_holds(m, q, n, c, d):
    """P_0, .., P_c >= 0 and P_{c+1} <= 0, with P_j = K_j(d - 1) on m from
    the explicit sum."""
    rows = _reference_rows(m, q, n, 1)
    return all(rows[j][d] >= 0 for j in range(c + 1)) and _next_p(m, q, n, c, d) <= 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_prefix_sum_identities(q):
    # K_j(x - 1) on n - 1 is sum_{t <= j} K_t(x) on n, and K_j(x - 1) on
    # n - 2 is sum_{t <= j} K_t(x) on n - 1: both generating functions are
    # the one on the next length divided by 1 - z
    for n in range(2, 11):
        for x in range(n + 1):
            for j in range(n):
                assert krawtchouk(n - 1, q, j, x - 1) == sum(krawtchouk(n, q, t, x) for t in range(j + 1)), (n, j, x)
            for j in range(n - 1):
                assert krawtchouk(n - 2, q, j, x - 1) == sum(krawtchouk(n - 1, q, t, x) for t in range(j + 1)), (n, j, x)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_triple_sums_are_nonnegative(q):
    # sum_x w(x) K_a K_b K_i (x) is q**n times the number of (u, v, z) in
    # Z_q**n of weights a, b, i with u + v + z = 0, so it is >= 0; it is
    # counted outright where q**n <= 81.  With w(x)(n - x) = n w_{n-1}(x)
    # and K_i(x) on n = K_i(x) + (q-1) K_{i-1}(x) on n - 1, the even
    # branch's sum_x w(x)(n - x) K_a K_b (on n - 1) K_i (on n) is >= 0 too
    for n in range(1, 9):
        w = [comb(n, x) * (q - 1) ** x for x in range(n + 1)]
        on_n = _reference_rows(n, q, n, 0)
        on_n1 = _reference_rows(n - 1, q, n, 0)
        triple = {(a, b, i): sum(w[x] * on_n[a][x] * on_n[b][x] * on_n[i][x] for x in range(n + 1))
                  for a in range(n + 1) for b in range(n + 1) for i in range(n + 1)}
        assert min(triple.values()) >= 0, n
        for a in range(n):
            for b in range(n):
                for i in range(n + 1):
                    assert sum(w[x] * (n - x) * on_n1[a][x] * on_n1[b][x] * on_n[i][x]
                               for x in range(n + 1)) >= 0, (n, a, b, i)
        if q ** n <= 81:
            counts = dict.fromkeys(triple, 0)
            words = list(product(range(q), repeat=n))
            for u in words:
                for v in words:
                    z = [-(x + y) % q for x, y in zip(u, v)]
                    counts[n - u.count(0), n - v.count(0), n - z.count(0)] += 1
            assert triple == {key: q ** n * count for key, count in counts.items()}, n


def test_recurrence_table_matches_direct_formula():
    # the kernel rows from the recurrence in y, at y = 0..last for every
    # last <= m
    for m, q in [(8, 2), (7, 3), (6, 5), (5, 7), (4, 9)]:
        for c in range(m + 1):
            for last in range(m + 1):
                assert _kernel_row(m, q, c, last) == [krawtchouk(m, q, c, y) for y in range(last + 1)], (m, q, c, last)


def test_values_match_pinned_digests():
    r"""Bounds against digests recorded with earlier scans.  A key "q/n" pins
    every d in 1..n; a key "q/n/lo..hi/step" pins d = lo, lo + step, .., hi.
    The keys for q in {2, 3, 5}, n in 3..40 and n = 120 were made with the
    exhaustive degree scan, from the repository root, by

    PYTHONPATH=src python -c 'import hashlib, json; from codebounds.levenshtein import levenshtein_max_size as L; print(json.dumps({f"{q}/{n}": hashlib.sha256("\n".join(str(L(n, d, q)) for d in range(1, n + 1)).encode()).hexdigest() for q in (2, 3, 5) for n in [*range(3, 41), 120]}, indent=1))' > tests/data/levenshtein_pin.json

    and the keys for q in {4, 7, 8, 9}, n in 3..30, and "2/250/3..83/4" with
    the same digest by the scan that built f and its sum at every degree,
    before candidates were read from running sums.  The keys at n = 1000 and
    n = 2000 were recorded while the check still summed over Krawtchouk rows,
    and "3/300/3..100/10" while it still shifted its coefficients from i = 0
    upwards.  The other keys of the grid q = 2, n <= 90; 3, <= 50;
    4, <= 34; 5, <= 30; 7, <= 22; 8 and 9, <= 16; 11, <= 12; 13, <= 10
    (n from 1, every d: 7088 cells) and "2/500/94..96/1" were recorded by
    the same command over that grid while the scan still kept four running
    sums over den = lcm(norm_0, .., norm_c).
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


def _reference_kernels(n, d, q):
    """For both branches and every degree c of the kernel system on m, yield
    (m, factor, c, scale, den, kernel): kernel = T * lcm of all m + 1 norms
    at x = 0..n, summed from the explicit Krawtchouk sum over that fixed
    denominator, f = factor * T**2, and den = lcm(m - c + 1, .., m) (q-1)**c,
    checked here to be a multiple of the first c + 1 norms."""
    for m, factor in ((n - 1, [d - x for x in range(n + 1)]),
                      (n - 2, [(d - x) * (n - x) for x in range(n + 1)])):
        norms = [comb(m, c) * (q - 1) ** c for c in range(m + 1)]
        scale = lcm(*norms)
        kernel = [0] * (n + 1)
        for c, row in enumerate(_reference_rows(m, q, n, 1)):
            kernel = [t + scale // norms[c] * row[d] * r for t, r in zip(kernel, row)]
            den = lcm(*range(m - c + 1, m + 1)) * (q - 1) ** c
            assert den % lcm(*norms[:c + 1]) == 0, (m, q, c)
            yield m, factor, c, scale, den, kernel


def test_window_lcm_is_a_multiple_of_the_binomial():
    # Kummer: a carry at p**e in adding j and m - j puts a multiple of p**e
    # in m - j + 1..m, so C(m, j) divides lcm(m - j + 1, .., m)
    for m in range(301):
        window = 1
        for j in range(m + 1):
            if j:
                window = lcm(window, m - j + 1)
            assert window % comb(m, j) == 0, (m, j)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_running_sums_match_direct_kernel_sum(q):
    # at every degree of both branches, against the kernel summed here from
    # the explicit Krawtchouk sum over one fixed denominator: the scan's
    # candidate test and value equal those of f = wf * kernel**2 summed over
    # all n + 1 points, the candidate carries den / norm_c, S1 = num(0) and
    # the pair P_c = K_c(d - 1), P_{c+1}, and nothing else, and is certified
    # iff P_0, .., P_c >= 0 and P_{c+1} <= 0, and the numerators, c = m
    # included, are a positive multiple of the kernel wherever f need not
    # vanish.  They equal it times den / scale at every x but x = d and, on
    # the even branch, x = n, where they are 0, so each floor division in
    # them was exact.
    for n in range(3, 31):
        weights = [comb(n, x) * (q - 1) ** x for x in range(n + 1)]
        for d in range(2, n + 1):
            candidates = {(m, c): (value, *rest) for m in (n - 1, n - 2)
                          for value, c, *rest in _candidates(n, m, d, q)}
            for m, factor, c, scale, den_c, kernel in _reference_kernels(n, d, q):
                g = [w * f * v * v for w, f, v in zip(weights, factor, kernel)]
                total = sum(g)
                direct = g[0] * q ** n // total if g[0] > 0 and total > 0 else None
                value, *rest = candidates.get((m, c), (None,))
                assert value == direct, (q, n, d, m, c)
                s1_c = kernel[0] * den_c // scale
                rows = _reference_rows(m, q, n, 1)
                p_c = rows[c][d]
                p_next = _next_p(m, q, n, c, d)
                certified = _certificate_holds(m, q, n, c, d)
                ratio = den_c // comb(m, c) // (q - 1) ** c
                assert value is None or rest == [ratio, s1_c, p_c, p_next, certified], (q, n, d, m, c)
                num = _numerators(m, d, q, (value, c, ratio, s1_c, p_c, p_next, certified), n)
                zeros = {d, n} if m == n - 2 else {d}
                assert [v * scale for v in num] == [0 if x in zeros else t * den_c
                                                    for x, t in enumerate(kernel)], (q, n, d, m, c)


# per q: candidates checked, decided by the test on the two leading
# coefficients, and refused by it, over n = 3..30 and every d
_REFUSAL_COUNTS = {2: (15078, 6363, 724), 3: (13765, 5455, 412), 4: (12868, 4796, 282),
                   5: (12314, 4391, 206), 7: (11568, 3880, 154), 8: (11393, 3770, 145),
                   9: (11188, 3644, 129)}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_coefficients_match_direct_sums(monkeypatch, q):
    # every coefficient of every candidate of both branches, the value and
    # not only its sign, against sum_x w(x) f(x) K_i(x) with f from the
    # kernel summed here and K_i from the explicit sum, up to the square of
    # the gcd of the numerators the check uses, taken over the points where
    # f need not vanish (all but x = d and, on the even branch, x = n); they
    # come from i = D down to 1, the sum at i = 0 is positive, as the scan's
    # candidate test says, and the sums above D are zero.  Wherever the test
    # on the two leading coefficients decides, the first coefficient yielded
    # is positive and the test says negative exactly when the sum at
    # i = D - 1 is negative: that is the second one yielded, or, at D = 1,
    # the sum at i = 0.  The counts of candidates it decides and refuses
    # are pinned exactly per q.  No kernel row is asked for past y = m
    checked = decided = refused = 0
    rows_asked = []  # (m, last) per _kernel_row call
    kernel_row = levenshtein._kernel_row

    def counting_kernel_row(m, q, c, last):
        rows_asked.append((m, last))
        return kernel_row(m, q, c, last)

    monkeypatch.setattr(levenshtein, "_kernel_row", counting_kernel_row)
    for n in range(3, 31):
        weights = [comb(n, x) * (q - 1) ** x for x in range(n + 1)]
        rows = _reference_rows(n, q, n, 0)
        for d in range(2, n + 1):
            kernels = {(m, c): (factor, scale, kernel)
                       for m, factor, c, scale, _, kernel in _reference_kernels(n, d, q)}
            for m in (n - 1, n - 2):
                for candidate in _candidates(n, m, d, q):
                    c, ratio = candidate[1:3]
                    den = ratio * comb(m, c) * (q - 1) ** c
                    factor, scale, kernel = kernels[m, c]
                    g = [w * f * (t * den // scale) ** 2 for w, f, t in zip(weights, factor, kernel)]
                    direct = [sum(map(mul, g, row)) for row in rows]
                    coefficients = list(_coefficients(n, m, d, q, candidate))
                    top = len(coefficients)
                    assert top == min(2 * c + n - m, n), (q, n, d, m, c)
                    zeros = {d, n} if m == n - 2 else {d}
                    common = gcd(*(t * den // scale for x, t in enumerate(kernel[:top + 1]) if x not in zeros))
                    assert [a * q ** (n - top) * common ** 2 for a in coefficients] == direct[top:0:-1], (q, n, d, m, c)
                    assert direct[0] > 0 and not any(direct[top + 1:]), (q, n, d, m, c)
                    checked += 1
                    second_negative = _second_negative(n, m, d, q, candidate)
                    if second_negative is not None:
                        assert coefficients[0] > 0, (q, n, d, m, c)
                        assert second_negative == (direct[top - 1] < 0), (q, n, d, m, c)
                        decided += 1
                        refused += second_negative
    assert (checked, decided, refused) == _REFUSAL_COUNTS[q]
    assert len(rows_asked) == 2 * checked and all(last <= m for m, last in rows_asked)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_certificate_implies_nonnegative_sums(q):
    # wherever P_0, .., P_c >= 0 and P_{c+1} <= 0, at every degree of both
    # branches, every sum_x w(x) f(x) K_i(x) is >= 0, with f from the kernel
    # summed here and K_i from the explicit sum.  Every such degree is a
    # candidate (its sum at i = 0 is even > 0), and the scan certifies
    # exactly those.  The floor keeps the test from passing with nothing
    # certified
    holds = 0
    for n in range(3, 31):
        weights = [comb(n, x) * (q - 1) ** x for x in range(n + 1)]
        rows = _reference_rows(n, q, n, 0)
        for d in range(2, n + 1):
            flags = {(m, t[1]): t[-1] for m in (n - 1, n - 2) for t in _candidates(n, m, d, q)}
            for m, factor, c, _, _, kernel in _reference_kernels(n, d, q):
                proven = _certificate_holds(m, q, n, c, d)
                assert flags.get((m, c), False) == proven, (q, n, d, m, c)
                if proven:
                    g = [w * f * t * t for w, f, t in zip(weights, factor, kernel)]
                    assert all(sum(map(mul, g, row)) >= 0 for row in rows), (q, n, d, m, c)
                    holds += 1
    assert holds > 800, holds


def test_gate_builds_few_polynomials(monkeypatch):
    # only the minimum of each decreasing run is looked at.  At (500, 94, 2)
    # and (500, 95, 2) one candidate is refused from its two leading
    # coefficients and builds no numerators, at (500, 96, 2) none is; every
    # gate query verifies one candidate per branch, and each is certified
    # from the signs of P_0, .., P_{c+1}, so no numerators are built and no
    # coefficient is drawn.  At (100, 20, 5) a candidate gets past the test
    # on the two leading coefficients and its check fails, drawing no
    # coefficient past its first negative one; the candidates that verify
    # there are certified too.  Numerators are built once per check.
    looked: list[dict] = []  # per candidate refused or checked, in order
    verified: list[tuple] = []  # the candidates whose value a run returned

    def summary():
        return [(x["refused"], len(x["checks"]), x["num"]) for x in looked]
    second_negative = levenshtein._second_negative
    coefficients = levenshtein._coefficients
    numerators = levenshtein._numerators
    run_min = levenshtein._run_min

    def counting_second_negative(*args):
        refused = second_negative(*args)
        looked.append({"refused": refused, "checks": [], "num": 0})
        return refused

    def counting_coefficients(*args):
        looked[-1]["checks"].append([])
        for a in coefficients(*args):
            looked[-1]["checks"][-1].append(a)
            yield a

    def counting_numerators(*args):
        looked[-1]["num"] += 1
        return numerators(*args)

    def recording_run_min(n, m, d, q, run, best):
        # values strictly decrease along a run and all lie below best
        value = run_min(n, m, d, q, run, best)
        verified.extend(candidate for candidate in run if candidate[0] == value)
        return value

    monkeypatch.setattr(levenshtein, "_second_negative", counting_second_negative)
    monkeypatch.setattr(levenshtein, "_coefficients", counting_coefficients)
    monkeypatch.setattr(levenshtein, "_numerators", counting_numerators)
    monkeypatch.setattr(levenshtein, "_run_min", recording_run_min)
    for d, refused in ((94, 1), (95, 1), (96, 0)):
        looked.clear()
        verified.clear()
        levenshtein_max_size(500, d, 2)
        assert looked == [{"refused": True, "checks": [], "num": 0}] * refused, (d, summary())
        assert len(verified) == 2 and all(candidate[-1] for candidate in verified), d
    looked.clear()
    verified.clear()
    levenshtein_max_size(100, 20, 5)
    assert all(not x["refused"] and len(x["checks"]) == 1 and x["num"] == 1 for x in looked), summary()
    drawn = [x["checks"][0] for x in looked]
    assert 1 <= len(drawn) <= 8, summary()
    assert all(a >= 0 for check in drawn for a in check[:-1]), [len(check) for check in drawn]
    assert [len(check) for check in drawn if check[-1] < 0] == [5], [len(check) for check in drawn]
    # every check drawn fails: the candidates that verify are certified
    assert all(check[-1] < 0 for check in drawn)
    assert len(verified) == 2 and all(candidate[-1] for candidate in verified)


@pytest.mark.parametrize("coefficients,verifies", [
    ([5, -1, 2], False), ([5, 1, -2], False), ([2, 0, 5], True), ([0, 3, 0], True),
    ([-5, 0, 2], False),
])
def test_check_reads_every_coefficient_after_the_first(monkeypatch, coefficients, verifies):
    # the coefficients come from i = D down to 1, never i = 0, whose sign is
    # the scan's candidate test (see test_coefficients_match_direct_sums): a
    # candidate verifies iff none is negative, and a check reads them in
    # that order up to its first negative one.  P_c = 0, so the test on the
    # two leading coefficients does not decide and every candidate is
    # checked, unless it is certified: then it verifies and draws nothing
    drawn = []

    def from_the_top(*args):
        for a in coefficients:
            drawn.append(a)
            yield a

    monkeypatch.setattr(levenshtein, "_coefficients", from_the_top)
    assert levenshtein._run_min(10, 9, 3, 2, [(7, 0, 1, 1, 0, 0, False)], 9) == (7 if verifies else 9)
    read = next((i + 1 for i, a in enumerate(coefficients) if a < 0), len(coefficients))
    assert drawn == coefficients[:read]
    drawn.clear()
    assert levenshtein._run_min(10, 9, 3, 2, [(7, 0, 1, 1, 0, 0, True)], 9) == 7
    assert drawn == []


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


def test_cap_below_the_first_certified_candidate_at_q3():
    # at q >= 3 a later candidate can verify below the first certified one,
    # the classical bound: here the odd branch's degree 13 beats its degree
    # 12, so the scan must not stop at the first certified degree
    n, d, q = 24, 3, 3
    first_certified = min(next(c[0] for c in _candidates(n, m, d, q) if c[-1])
                          for m in (n - 1, n - 2))
    assert first_certified == 36_830_794_362
    assert levenshtein_max_size(n, d, q) == 36_673_498_888


def test_invalid_queries_rejected():
    with pytest.raises(ValueError):
        levenshtein_max_size(5, 6, 2)
    with pytest.raises(ValueError):
        levenshtein_max_size(5, 3, 1)
