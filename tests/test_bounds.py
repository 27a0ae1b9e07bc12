"""Bound engine: verdicts, max-k computations, and the module invariants."""

from fractions import Fraction
from math import comb

import pytest
from reference import enumerate_linear_systematic, tail_mass, weight_count

from codebounds.bounds import (
    FEASIBLE,
    NOT_APPLICABLE,
    REFUTED,
    best_upper_k,
    bound_a_check,
    bound_a_max_k,
    elias_max_size,
    griesmer_max_k,
    hamming_max_size,
    max_k_of,
    plotkin_max_size,
    singleton_max_k,
)
from codebounds.exactmath import floor_log_q, sphere_volume
from codebounds.levenshtein import levenshtein_max_size
from codebounds.oracle import min_distance


def naive_bound_a_check(n, k, d, q, variant="weight"):
    """Straight re-statement of the inequality, no incremental updates."""
    if k <= 2 or k >= n or d < 3:
        return None
    for i in range(1, (d - 1) // 2 + 1):
        lhs = weight_count(k, i, q)
        rhs = tail_mass(n - k, d - i, q, variant, i)
        if lhs > rhs:
            return (i, lhs, rhs)
    return ()


class TestBoundACheck:
    def test_refuted_with_witness(self):
        v = bound_a_check(20, 16, 4, 2)
        assert v.status == REFUTED
        assert (v.witness, v.lhs, v.rhs) == (1, 16, 5)

    def test_feasible_next_dimension_down(self):
        assert bound_a_check(20, 15, 4, 2).status == FEASIBLE

    def test_variants_disagree_at_q5(self):
        assert bound_a_check(10, 7, 3, 5, "weight").status == FEASIBLE
        v = bound_a_check(10, 7, 3, 5, "literal")
        assert v.status == REFUTED
        assert (v.lhs, v.rhs) == (28, 16)

    def test_guard_small_k(self):
        assert bound_a_check(5, 2, 3, 2).status == NOT_APPLICABLE
        assert bound_a_check(5, 5, 3, 2).status == NOT_APPLICABLE
        assert bound_a_check(5, 3, 2, 2).status == NOT_APPLICABLE

    def test_d_beyond_n_rejected(self):
        with pytest.raises(ValueError):
            bound_a_check(5, 3, 6, 2)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_incremental_matches_naive(self, q):
        # the ratio-update arithmetic against the plain formula, both variants
        for n in range(4, 26):
            for d in range(3, n + 1):
                for k in range(3, n):
                    for variant in ("weight", "literal"):
                        expect = naive_bound_a_check(n, k, d, q, variant)
                        got = bound_a_check(n, k, d, q, variant)
                        if expect == ():
                            assert got.status == FEASIBLE, (n, k, d, q, variant)
                        else:
                            assert got.status == REFUTED
                            assert (got.witness, got.lhs, got.rhs) == expect


class TestBoundAMaxK:
    @pytest.mark.parametrize("n,d,q,expected", [
        (20, 4, 2, 15),
        (123, 19, 2, 84),
        (6, 3, 3, 3),
        (22, 21, 3, 2),   # even k = 3 is refuted; floor of 2
        (10, 3, 5, 7),
    ])
    def test_reference_values(self, n, d, q, expected):
        assert bound_a_max_k(n, d, q) == expected

    def test_variant_pins_the_exponent_reading(self):
        assert bound_a_max_k(10, 3, 5, "weight") == 7
        assert bound_a_max_k(10, 3, 5, "literal") == 6

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            bound_a_max_k(10, 2, 2)

    def test_binary_search_matches_linear_scan(self):
        for q in (2, 3, 5):
            for n in range(4, 32):
                for d in range(3, n + 1):
                    linear = 2
                    for k in range(3, n):
                        if bound_a_check(n, k, d, q).status == FEASIBLE:
                            linear = k
                        else:
                            break
                    assert bound_a_max_k(n, d, q) == linear, (n, d, q)


class TestMaxKOf:
    def test_bound_a_predicate(self):
        pred = lambda k: not bound_a_check(20, k, 4, 2).refuted
        assert max_k_of(pred, 3, 19) == 15

    def test_constant_predicates(self):
        assert max_k_of(lambda k: True, 3, 17) == 17
        assert max_k_of(lambda k: False, 3, 17) == 2

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            max_k_of(lambda k: True, 5, 4)


class TestGriesmer:
    def test_reference_values(self):
        assert griesmer_max_k(20, 4, 2) == 16
        assert griesmer_max_k(10, 3, 5) == 8

    def test_length_seven_distance_three(self):
        # 3 + 2 + 1 + 1 = 7 fits; a fifth term would need length 8
        assert griesmer_max_k(7, 3, 2) == 4

    def test_shortcut_matches_plain_summation(self):
        def plain(n, d, q):
            best = 0
            for k in range(1, n + 1):
                total = sum(-(-d // q ** i) for i in range(k))
                if total <= n:
                    best = k
                else:
                    break
            return best

        for q in (2, 3, 5):
            for n in range(1, 61):
                for d in range(1, n + 1):
                    assert griesmer_max_k(n, d, q) == plain(n, d, q), (n, d, q)

    def test_never_exceeds_singleton(self):
        for q in (2, 3, 5):
            for n in range(1, 61):
                for d in range(1, n + 1):
                    assert griesmer_max_k(n, d, q) <= singleton_max_k(n, d)


class TestSingleton:
    def test_formula(self):
        assert singleton_max_k(20, 4) == 17
        for n in (1, 5, 12):
            assert singleton_max_k(n, n) == 1
            assert singleton_max_k(n, 1) == n


class TestHamming:
    def test_reference_dimensions(self):
        assert floor_log_q(hamming_max_size(11, 4, 2), 2) == 7
        assert floor_log_q(hamming_max_size(22, 4, 2), 2) == 17

    def test_tiny_case(self):
        # 8 / 4: the length-3 repetition code is the extreme
        assert hamming_max_size(3, 3, 2) == 2
        assert floor_log_q(hamming_max_size(3, 3, 2), 2) == 1

    def test_perfect_code_parameters_are_tight(self):
        assert hamming_max_size(7, 3, 2) == 16
        assert hamming_max_size(23, 7, 2) == 4096


class TestPlotkin:
    def test_binary_six_four(self):
        # oracle confirms a (6, M=4, d=4) binary code exists, so this is tight
        assert plotkin_max_size(6, 4, 2) == 4

    def test_repetition_extreme(self):
        for q in (2, 3, 5):
            for n in (2, 5, 9):
                assert plotkin_max_size(n, n, q) == q

    def test_not_applicable_below_threshold(self):
        assert plotkin_max_size(10, 3, 2) is None

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_matches_fraction_reference(self, q):
        # the textbook form, with theta = 1 - 1/q as an exact rational
        for n in range(1, 31):
            theta_n = Fraction((q - 1) * n, q)
            for d in range(1, n + 1):
                if d <= theta_n:
                    expected = None
                else:
                    value = d / (d - theta_n)
                    expected = value.numerator // value.denominator
                assert plotkin_max_size(n, d, q) == expected, (n, d, q)


class TestElias:
    def test_hand_derived_anchor(self):
        # w = 1: (10.5 / 4.5) * 128 / 8 = 112/3, floored to 37
        size, w = elias_max_size(7, 3, 2)
        assert (size, w) == (37, 1)
        assert floor_log_q(size, 2) == 5

    @pytest.mark.parametrize("n,d,q,k_expected", [
        (12, 3, 2, 9),
        (16, 3, 5, 14),
    ])
    def test_reference_dimensions(self, n, d, q, k_expected):
        size, _ = elias_max_size(n, d, q)
        assert floor_log_q(size, q) == k_expected

    @pytest.mark.parametrize("n,d,q", [
        (7, 3, 2), (12, 3, 2), (16, 3, 5), (30, 5, 3), (47, 7, 2), (54, 50, 5),
        # the cap at the reported w is an integer here, so the floor is exact
        (7, 4, 2), (11, 4, 3),
    ])
    def test_witness_is_admissible_and_optimal(self, n, d, q):
        # the textbook form, with r = (1 - 1/q)n as an exact rational
        r = Fraction((q - 1) * n, q)

        def floored_cap(w):
            value = r * d / (w * w - 2 * r * w + r * d) * Fraction(q ** n, sphere_volume(n, w, q))
            return value.numerator // value.denominator

        size, w = elias_max_size(n, d, q)
        assert 0 <= w <= r
        assert Fraction(w * w) - 2 * r * w + r * d > 0
        assert size == floored_cap(w)
        # no admissible w does strictly better than the reported one
        for w2 in range(0, int(r) + 1):
            if Fraction(w2 * w2) - 2 * r * w2 + r * d <= 0:
                continue
            assert floored_cap(w2) >= size


class TestBestUpperK:
    def test_griesmer_and_a(self):
        results, k_min = best_upper_k(20, 4, 2, ["griesmer", "a"])
        by_id = {r.bound_id: r.k_max for r in results}
        assert by_id == {"griesmer": 16, "a": 15}
        assert k_min == 15

    def test_ternary_row(self):
        results, k_min = best_upper_k(6, 3, 3, ["griesmer", "a"])
        by_id = {r.bound_id: r.k_max for r in results}
        assert by_id == {"griesmer": 4, "a": 3}
        assert k_min == 3

    def test_singleton_only(self):
        for n, q in [(5, 2), (9, 3)]:
            results, k_min = best_upper_k(n, 1, q, ["singleton"])
            assert results[0].k_max == n
            assert k_min == n

    def test_not_applicable_does_not_fail_query(self):
        results, k_min = best_upper_k(10, 3, 2, ["plotkin", "a"])
        by_id = {r.bound_id: r.k_max for r in results}
        assert by_id["plotkin"] is None
        assert by_id["a"] == 6
        assert k_min == 6

    def test_size_dimension_consistency(self):
        for n, d, q in [(11, 4, 2), (22, 21, 3), (16, 3, 5), (30, 7, 5)]:
            results, _ = best_upper_k(n, d, q)
            for r in results:
                if r.size_max is not None:
                    assert r.k_max == floor_log_q(r.size_max, q)

    def test_unknown_bound_rejected(self):
        with pytest.raises(ValueError):
            best_upper_k(10, 3, 2, ["nope"])


class TestMonotonicity:
    """Refutation is monotone: once a dimension is refuted, so is every
    larger one, and growing the distance can only shrink the cap."""

    QS = (2, 3, 5)
    N_MAX = 60

    def test_refutation_monotone_in_k(self):
        for q in self.QS:
            for n in range(4, self.N_MAX + 1):
                for d in range(3, n + 1):
                    refuted_seen = False
                    for k in range(3, n):
                        refuted = bound_a_check(n, k, d, q).refuted
                        assert not (refuted_seen and not refuted), (q, n, d, k)
                        refuted_seen = refuted or refuted_seen

    def test_cap_monotone_in_d(self):
        for q in self.QS:
            for n in range(4, self.N_MAX + 1):
                prev = None
                for d in range(3, n + 1):
                    cap = bound_a_max_k(n, d, q)
                    if prev is not None:
                        assert cap <= prev, (q, n, d)
                    prev = cap

    def test_variants_agree_at_q2(self):
        # (q-1)**i and (q-1)**j are both 1, so the verdicts must be identical
        for n in range(4, self.N_MAX + 1):
            for d in range(3, n + 1):
                for k in range(3, n):
                    a = bound_a_check(n, k, d, 2, "weight")
                    b = bound_a_check(n, k, d, 2, "literal")
                    assert (a.status, a.witness, a.lhs, a.rhs) == (b.status, b.witness, b.lhs, b.rhs)


@pytest.mark.parametrize("n,d,q,message", [
    (5, 3, 1, "alphabet size must be at least 2, got q=1"),
    (0, 1, 2, "length must be positive, got n=0"),
    (5, 0, 2, "distance must satisfy 1 <= d <= n, got d=0, n=5"),
    (5, 6, 2, "distance must satisfy 1 <= d <= n, got d=6, n=5"),
])
def test_query_check_shared(n, d, q, message):
    # one check serves the query, the Levenshtein bound and bound A alike;
    # Singleton, which takes no alphabet, shares its distance check
    calls = [lambda: best_upper_k(n, d, q),
             lambda: levenshtein_max_size(n, d, q),
             lambda: bound_a_check(n, 3, d, q)]
    if message.startswith("distance"):
        calls.append(lambda: singleton_max_k(n, d))
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_variant_check_shared():
    # bound A and the tail mass reject an unknown variant with one message
    message = "variant must be one of ('weight', 'literal'), got 'printed'"
    for call in (lambda: bound_a_check(8, 3, 5, 3, "printed"),
                 lambda: tail_mass(5, 3, 3, "printed", 1)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_hamming_never_below_oracle_truth():
    # any code the oracle can actually build must fit under the sphere bound
    cases = [(n, k, 2) for n in range(3, 7) for k in range(1, n)]
    cases += [(5, k, 3) for k in range(1, 5)]
    for n, k, q in cases:
        for code in enumerate_linear_systematic(n, k, q):
            d = min_distance(code)
            assert q ** k <= hamming_max_size(n, d, q), (n, k, q, d)
