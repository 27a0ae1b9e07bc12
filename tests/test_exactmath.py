"""Counting primitives: golden values, enumeration cross-checks, identities."""

from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import binomial, krawtchouk, tail_mass, weight_count

from codebounds.exactmath import floor_log_q, sphere_volume


def brute_weight_count(m, j, q):
    """Count weight-j words by enumerating all q**m of them."""
    return sum(
        1 for word in product(range(q), repeat=m)
        if sum(1 for s in word if s) == j
    )


class TestBinomial:
    def test_small(self):
        assert binomial(5, 2) == 10
        assert binomial(0, 0) == 1

    def test_r_larger_than_m_is_zero(self):
        assert binomial(4, 5) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 2)
        with pytest.raises(ValueError):
            binomial(3, -1)

    @given(st.integers(1, 60), st.integers(1, 60))
    def test_pascal_identity(self, m, r):
        if r > m:
            r = r % m + 1 if m > 1 else 1
        assert binomial(m, r) == binomial(m - 1, r - 1) + binomial(m - 1, r)


class TestWeightCount:
    def test_binary_reduces_to_binomial(self):
        assert weight_count(5, 3, 2) == 10

    def test_ternary_by_enumeration(self):
        assert weight_count(3, 2, 3) == brute_weight_count(3, 2, 3) == 12

    def test_weight_zero(self):
        for m, q in [(1, 2), (7, 3), (4, 5)]:
            assert weight_count(m, 0, q) == 1

    def test_invalid_alphabet(self):
        with pytest.raises(ValueError):
            weight_count(5, 2, 1)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_completeness(self, q):
        # the weights of all q**m words partition them
        for m in range(21):
            assert sum(weight_count(m, j, q) for j in range(m + 1)) == q ** m


class TestSphereVolume:
    def test_binary_radius_one(self):
        assert sphere_volume(11, 1, 2) == 12
        assert sphere_volume(7, 1, 2) == 8

    def test_ternary_by_enumeration(self):
        # all 81 ternary 4-tuples within distance 2 of the zero word
        count = sum(
            1 for word in product(range(3), repeat=4)
            if sum(1 for s in word if s) <= 2
        )
        assert sphere_volume(4, 2, 3) == count == 33

    def test_full_radius_is_whole_space(self):
        for n, q in [(1, 2), (6, 2), (5, 3), (4, 5)]:
            assert sphere_volume(n, n, q) == q ** n

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_matches_binomial_sum(self, q):
        # the running term C(n, j)(q-1)**j against one comb per radius
        for n in range(40):
            for r in range(n + 1):
                assert sphere_volume(n, r, q) == sum(comb(n, j) * (q - 1) ** j for j in range(r + 1)), (n, r)

    def test_radius_beyond_length_rejected(self):
        with pytest.raises(ValueError):
            sphere_volume(4, 5, 2)


class TestTailMass:
    def test_binary_variants_agree(self):
        assert tail_mass(5, 3, 2, "weight", 1) == 16
        assert tail_mass(5, 3, 2, "literal", 1) == 16

    def test_weight_variant_by_enumeration(self):
        # 125 tail vectors of length 3 over q=5; count those of weight >= 2
        count = sum(
            1 for word in product(range(5), repeat=3)
            if sum(1 for s in word if s) >= 2
        )
        assert tail_mass(3, 2, 5, "weight", 1) == count == 112

    def test_literal_variant(self):
        # (q-1)**i times the bare binomial tail: 4 * (C(3,2) + C(3,3))
        assert tail_mass(3, 2, 5, "literal", 1) == 16

    def test_whole_space_and_empty_range(self):
        for m, q in [(4, 2), (5, 3), (3, 5)]:
            assert tail_mass(m, 0, q, "weight", 0) == q ** m
            assert tail_mass(m, m + 1, q, "weight", 1) == 0
            assert tail_mass(m, m + 3, q, "literal", 2) == 0

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            tail_mass(3, 1, 2, "other", 1)


class TestKrawtchouk:
    def test_degree_zero(self):
        for x in range(8):
            assert krawtchouk(7, 2, 0, x) == 1

    def test_degree_one_closed_form(self):
        assert krawtchouk(7, 2, 1, 0) == 7
        for n, q in [(7, 2), (6, 3), (5, 5)]:
            for x in range(n + 1):
                assert krawtchouk(n, q, 1, x) == n * (q - 1) - q * x

    def test_value_at_zero(self):
        assert krawtchouk(7, 2, 2, 0) == 21
        for n, q in [(7, 2), (6, 3)]:
            for k in range(n + 1):
                assert krawtchouk(n, q, k, 0) == binomial(n, k) * (q - 1) ** k

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_orthogonality(self, q):
        # sum_x w(x) K_r(x) K_s(x) = q**n * w-mass of weight r, iff r = s
        for n in (4, 7, 10):
            for r in range(n + 1):
                for s in range(r, n + 1):
                    total = sum(
                        weight_count(n, x, q) * krawtchouk(n, q, r, x) * krawtchouk(n, q, s, x)
                        for x in range(n + 1)
                    )
                    expected = q ** n * weight_count(n, r, q) if r == s else 0
                    assert total == expected

    def test_degree_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            krawtchouk(5, 2, 6, 1)


class TestFloorLogQ:
    def test_examples(self):
        assert floor_log_q(37, 2) == 5
        assert floor_log_q(1, 2) == 0
        assert floor_log_q(1, 7) == 0

    def test_exact_powers(self):
        # on and either side of q**k, perfect powers q included
        for q in (2, 3, 4, 5, 8, 9, 16):
            for k in (0, 1, 5, 17, 100):
                assert floor_log_q(q ** k, q) == k
                if k:
                    assert floor_log_q(q ** k - 1, q) == k - 1
                    assert floor_log_q(q ** k + 1, q) == k

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            floor_log_q(0, 2)

    @settings(max_examples=200)
    @given(st.integers(1, 2 ** 4000), st.integers(2, 16))
    def test_round_trip(self, M, q):
        k = floor_log_q(M, q)
        assert q ** k <= M < q ** (k + 1)
