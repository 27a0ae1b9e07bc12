"""Counting primitives: golden values, enumeration cross-checks, identities."""

import inspect
import sys
from itertools import product
from math import comb

import pytest
from conftest import exact_identities
from reference import krawtchouk, tail_mass, weight_count

from codebounds.exactmath import check_query, floor_log_q, sphere_volume


def brute_weight_count(m, j, q):
    """Count weight-j words by enumerating all q**m of them."""
    return sum(
        1 for word in product(range(q), repeat=m)
        if sum(1 for s in word if s) == j
    )


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
        # the weights of all q**m words partition them, m <= 20
        assert not [(m, q_) for m, q_ in exact_identities()["completeness"] if q_ == q]


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
        assert not exact_identities()["full sphere"]

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
        assert not exact_identities()["tail mass edges"]

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
                assert krawtchouk(n, q, k, 0) == comb(n, k) * (q - 1) ** k

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_orthogonality(self, q):
        # n in {4, 6, 7, 10}, every pair of degrees
        assert not [case for case in exact_identities()["orthogonality"] if case[0] == q]

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

    def test_needs_no_recursion(self):
        # q**(2**12) takes 12 squarings; with 12 frames to spare above this
        # test's own, a search that recursed once per squaring would overflow
        cases = [(q ** 2 ** 12 + delta, q, 2 ** 12 - (delta < 0))
                 for q in (2, 3, 7) for delta in (-1, 1)]
        got = []
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 12)
        try:
            for M, q, _ in cases:
                got.append(floor_log_q(M, q))
        finally:
            sys.setrecursionlimit(limit)
        assert got == [k for _, _, k in cases]

    def test_round_trip(self):
        # q**k <= M < q**(k+1) on 500 seeded draws, M up to 2**4000
        assert not exact_identities()["floor_log_q round trip"]

    @pytest.mark.parametrize("q", [2, 4, 8, 32, 1024])
    def test_power_of_two_alphabet(self, q):
        # q = 2**e reads k off the bit length; on and either side of every
        # q**k up to 5000 bits it agrees with a running product of q
        power, k, got, expected = 1, 0, [], []
        while (power := power * q).bit_length() <= 5000:
            k += 1
            got += [floor_log_q(M, q) for M in (power - 1, power, power + 1)]
            expected += [k - 1, k, k]
        assert k == 4999 // (q.bit_length() - 1) and got == expected


class TestCheckQuery:
    ALPHABET = "alphabet size must be at least 2, got q=1"

    @pytest.mark.parametrize("n,d,q,message", [
        (0, 0, 1, ALPHABET),
        (3, 4, 1, ALPHABET),
        (-2, 5, 1, ALPHABET),
        (0, 0, 2, "length must be positive, got n=0"),
        (-2, 5, 3, "length must be positive, got n=-2"),
        (3, 4, 2, "distance must satisfy 1 <= d <= n, got d=4, n=3"),
        (3, 0, 5, "distance must satisfy 1 <= d <= n, got d=0, n=3"),
    ])
    def test_first_broken_rule_names_the_message(self, n, d, q, message):
        # the alphabet is checked before the length, the length before the
        # distance, whatever else the query breaks
        with pytest.raises(ValueError) as exc:
            check_query(n, d, q)
        assert str(exc.value) == message

    def test_valid_queries_pass(self):
        for n, d, q in [(1, 1, 2), (5, 5, 2), (5, 1, 7), (500, 95, 2)]:
            assert check_query(n, d, q) is None
