"""Bound engine: verdicts, max-k computations, and the module invariants."""

from collections import Counter
from fractions import Fraction
from math import comb
from types import ModuleType

import pytest
from conftest import (
    AUDIT_GRID,
    BOUND_A_GRID,
    ELIAS_WITNESS_POINTS,
    bound_a_sweep,
    elias_witnesses,
    every_code_caps,
    linear_family,
    record_calls,
)
from reference import (
    Code,
    distance_multiset,
    elias_every_radius,
    johnson_max_size,
    nordstrom_robinson,
    systematic_coordinates,
    tail_mass,
)

import codebounds
from codebounds import bounds
from codebounds.bounds import (
    FEASIBLE,
    NOT_APPLICABLE,
    REFUTED,
    BoundResult,
    FeasibilityVerdict,
    best_upper_k,
    best_upper_row,
    bound_a_check,
    bound_a_max_k,
    elias_max_size,
    griesmer_max_k,
    hamming_max_size,
    plotkin_max_size,
    singleton_max_k,
)
from codebounds.exactmath import EnumerationBudgetError, floor_log_q
from codebounds.golden import Mismatch, TableRow, load_table1
from codebounds.levenshtein import levenshtein_max_size
from codebounds.oracle import best_linear_d_witness, refutation_crosscheck


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

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError) as exc:
            bound_a_check(5, 0, 3, 2)
        assert str(exc.value) == "dimension must be positive, got k=0"

    @pytest.mark.parametrize("q", list(BOUND_A_GRID))
    def test_incremental_matches_naive(self, q):
        # the ratio-update arithmetic against the plain formula, witness,
        # lhs and rhs included, at every k of the check's domain
        # 3 <= k <= n - 1, both ends included, both variants, n <= 40
        failed = [cell for cell in bound_a_sweep().failed["naive"] if cell[3] == q]
        assert not failed, failed[:5]


class TestBoundAMaxK:
    @pytest.mark.parametrize("n,d,q,expected", [
        (20, 4, 2, 15),
        (123, 19, 2, 84),
        (6, 3, 3, 3),
        (22, 21, 3, 2),   # even k = 3 is refuted; floor of 2
        (10, 3, 5, 7),
    ])
    def test_reference_values(self, n, d, q, expected):
        assert bound_a_max_k(n, d, q)[0] == expected

    def test_variant_pins_the_exponent_reading(self):
        assert bound_a_max_k(10, 3, 5, "weight")[0] == 7
        assert bound_a_max_k(10, 3, 5, "literal")[0] == 6

    def test_small_d_rejected(self):
        with pytest.raises(ValueError):
            bound_a_max_k(10, 2, 2)

    def test_short_length_rejected(self):
        with pytest.raises(ValueError) as exc:
            bound_a_max_k(3, 3, 2)
        assert str(exc.value) == "bound A needs n >= 4, got n=3"

    def test_capped_search_matches_linear_scan(self):
        # the scan down from the cap against the plain scan from k = 3 up, on
        # the whole sweep; the answer is never more than 2 below the cap
        # there, so no call makes more than 3 checks, and the total over
        # q = 2, 3, 5, 7 at n <= 40 pins the scan's cost
        sweep = bound_a_sweep()
        assert not sweep.failed["linear"] + sweep.failed["search"]
        probes = [p for q in (2, 3, 5, 7) for p in sweep.probes[q]]
        assert (len(probes), sum(probes)) == (5920, 11077)

    def test_cap_of_two_is_the_pass_at_three(self):
        # 592 cells over q = 2, 3, 5, 7 at n <= 40 have a cap of 2
        sweep = bound_a_sweep()
        assert not sweep.failed["cap of two"]
        assert sum(sweep.cap_two[q] for q in (2, 3, 5, 7)) == 592

    def test_every_dimension_above_the_cap_is_refuted(self):
        assert not bound_a_sweep().failed["cap"]

    @pytest.mark.parametrize("d", [94, 95, 96])
    def test_gate_query_makes_two_checks(self, monkeypatch, d):
        # bound A's answer at (500, d, 2) is its cap: the search checks the
        # cap, which stands, and then k_max + 1 for the refutation that the
        # result carries
        checks = record_calls(monkeypatch, bounds, "bound_a_check")
        results, _ = best_upper_k(500, d, 2)
        (k_max,) = [r.k_max for r in results if r.bound_id == "a"]
        assert [k for _, _, k, *_ in checks] == [k_max, k_max + 1], d


class TestBoundARefutation:
    def test_refutation_blocks_the_next_dimension(self):
        # bound A's result carries the verdict at k_max + 1 wherever A
        # applies (n >= 4, d >= 3); no other result carries one
        assert not bound_a_sweep().failed["refutation"]

    def test_small_queries_carry_none(self):
        # d < 3 or n < 4: bound A does not apply, so there is nothing to block
        for n, d in ((3, 3), (10, 2), (10, 1)):
            (res,), _ = best_upper_k(n, d, 2, ["a"])
            assert (res.k_max, res.refutation) == (None, None)


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

    @pytest.mark.parametrize("n,d,q", ELIAS_WITNESS_POINTS)
    def test_witness_is_admissible_and_optimal(self, n, d, q):
        # w is admissible, its floored cap is the size, and no admissible w
        # does strictly better, on the sweep criterion 8 reads too
        assert elias_witnesses()[n, d, q] == []

    def test_matches_every_radius_reference(self):
        # stopping at the first inadmissible radius loses no admissible one,
        # here, at the gate's cells and at a few larger sizes
        cells = [(n, d, q) for q in (2, 3, 5, 7) for n in range(1, 81) for d in range(1, n + 1)]
        cells += [(500, 94, 2), (500, 95, 2), (500, 96, 2), (160, 40, 3), (100, 30, 5),
                  (2000, 3, 2), (2000, 400, 2)]
        for n, d, q in cells:
            assert elias_max_size(n, d, q) == elias_every_radius(n, d, q), (n, d, q)


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


def _outcome(call):
    """What call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


class TestBestUpperRow:
    """A row is the cells of best_upper_k at each d in turn: the same
    results, and the same first error.  An unknown bound id is refused
    before any cell, so an empty row raises for it too."""

    SELECTIONS = [[b] for b in bounds.BOUND_IDS] + [list(bounds.BOUND_IDS), ["singleton", "a", "elias", "a"]]

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    def test_matches_cell_by_cell(self, q):
        for n in range(1, 41):
            for selection in self.SELECTIONS:
                # no bound but A reads the reading, and "all" holds A
                for variant in ("weight", "literal") if "a" in selection else ("weight",):
                    # every d of the length, and the empty row
                    for ds in (range(1, n + 1), range(n + 1, n + 1)):
                        row = best_upper_row(n, ds, q, selection, variant)
                        assert row == [best_upper_k(n, d, q, selection, variant) for d in ds], (n, ds)

    @pytest.mark.parametrize("n,ds,q,args", [
        (6, range(-1, 4), 2, ()),
        (6, range(3, 9), 2, ()),  # d = 7 > n after four good cells
        (6, range(0, 4), 1, (["nope"],)),
        (0, range(1, 3), 2, ()),
        (6, range(0, 4), 2, (["nope"],)),  # the ids before the distance
        (6, range(3, 5), 2, (["a", "nope"],)),
        (6, range(2, 5), 2, (["a"], "printed")),  # the variant before the cells
        (6, range(4, 4), 1, (["nope"],)),  # no cell, and still the ids' error
    ])
    def test_first_error_matches_cell_by_cell(self, n, ds, q, args):
        row = _outcome(lambda: best_upper_row(n, ds, q, *args))
        if ds:
            assert row == _outcome(lambda: [best_upper_k(n, d, q, *args) for d in ds])
        assert row[0] is ValueError
        if args and "nope" in args[0]:  # refused before any query is checked
            assert row[1] == "unknown bound ids: ['nope']"

    def test_unknown_variant_refused_before_any_cell(self):
        # as an unknown id is, whether or not bound A is selected or applies
        refused = (ValueError, "variant must be one of ('weight', 'literal'), got 'bogus'")
        assert [_outcome(call) for call in [
            lambda: best_upper_k(3, 3, 2, ["a"], "bogus"),  # n < 4: A does not apply
            lambda: best_upper_k(20, 4, 2, ["hamming"], "bogus"),
            lambda: best_upper_row(20, [], 2, ["a"], "bogus"),
            lambda: best_upper_k(20, 4, 2, ["a"], "bogus"),
        ]] == [refused] * 4


class TestMonotonicity:
    """Refutation is monotone: once a dimension is refuted, so is every
    larger one, and growing the distance can only shrink the cap (q = 2, 3,
    5 at n <= 60 and q = 4, 7 at n <= 40, under both readings, on the sweep
    criterion 8 reads too)."""

    def test_refutation_monotone_in_k(self):
        assert not bound_a_sweep().failed["k-monotonicity"]

    def test_cap_monotone_in_d(self):
        assert not bound_a_sweep().failed["d-monotonicity"]

    def test_variants_agree_at_q2(self):
        # (q-1)**i and (q-1)**j are both 1, so the verdicts must be
        # identical, status, witness, lhs and rhs, at n <= 60
        assert not bound_a_sweep().failed["variants at q = 2"]


@pytest.mark.parametrize("n,d,q,message", [
    (5, 3, 1, "alphabet size must be at least 2, got q=1"),
    (0, 1, 2, "length must be positive, got n=0"),
    (5, 0, 2, "distance must satisfy 1 <= d <= n, got d=0, n=5"),
    (5, 6, 2, "distance must satisfy 1 <= d <= n, got d=6, n=5"),
])
def test_query_check_shared(n, d, q, message):
    # one check serves the query, the Levenshtein bound, bound A and the
    # oracle's search alike; Singleton, which takes no alphabet, shares its
    # distance check
    calls = [lambda: best_upper_k(n, d, q),
             lambda: levenshtein_max_size(n, d, q),
             lambda: bound_a_check(n, 3, d, q),
             lambda: refutation_crosscheck(n, 3, d, q)]
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


def test_every_cap_admits_the_best_linear_codes():
    # k* is the largest k whose best standard-form code, found by the oracle
    # wherever its budget guards admit (n, k, q), reaches d; every cap of
    # every bound must allow it
    searches = 0
    for q in (2, 3, 5):
        for n in range(2, 9):
            best = {}
            for k in range(1, n):
                try:
                    best[k] = best_linear_d_witness(n, k, q)[0]
                except EnumerationBudgetError:
                    continue
            searches += len(best)
            for d in range(1, n + 1):
                k_star = max((k for k, best_d in best.items() if best_d >= d), default=0)
                results, _ = best_upper_k(n, d, q)
                for r in results:
                    if r.k_max is not None:
                        assert r.k_max >= k_star, (q, n, d, r)
                    if r.size_max is not None:
                        assert r.size_max >= q ** k_star, (q, n, d, r)
    assert searches == 72


def _punctured(code, i):
    """The code with coordinate i deleted from every word."""
    return Code(code.q, code.n - 1, tuple(w[:i] + w[i + 1:] for w in code.words))


def _shortened(code, i):
    """The words with 0 at coordinate i, with that coordinate deleted."""
    return _punctured(Code(code.q, code.n, tuple(w for w in code.words if w[i] == 0)), i)


def test_nordstrom_robinson_family_under_every_cap():
    """Truth in bound A's nonlinear scope beyond the oracle's reach.

    The Nordstrom-Robinson code has 2**8 words of length 16 at distance 6,
    where the best linear code has 2**7.  It and the codes made from it by
    puncturing a tail coordinate and by shortening on one message
    coordinate, then on two, are systematic, so bound A, every bound that
    holds for every code and Johnson's bound must admit their k.  Pinned:
    A's cap, and the bounds whose cap k meets: Johnson meets it on all four.
    """
    nr = nordstrom_robinson()
    first = systematic_coordinates(nr, 8)
    tail = max(set(range(nr.n)) - set(first))
    once = _shortened(nr, first[0])
    twice = _shortened(once, systematic_coordinates(once, 7)[0])
    family = [
        (nr, 8, 6, 9, {"elias", "hamming", "johnson", "levenshtein"}),
        (_punctured(nr, tail), 8, 5, 9, {"hamming", "johnson", "levenshtein"}),
        (once, 7, 6, 8, {"johnson", "levenshtein"}),
        (twice, 6, 6, 7, {"johnson", "levenshtein"}),
    ]
    every_code = [b for b, (_, scope, _) in bounds.BOUNDS.items() if scope == bounds.EVERY_CODE]
    for code, k, d, k_a, met in family:
        # Code rejected duplicate words when each code was built
        assert systematic_coordinates(code, k) is not None, (code.n, k, d)
        assert distance_multiset(code)[0] == d
        results, _ = best_upper_k(code.n, d, 2, ["a", *every_code])
        caps = {r.bound_id: r.k_max for r in results if r.k_max is not None}
        caps["johnson"] = floor_log_q(johnson_max_size(code.n, d), 2)
        assert caps["a"] == k_a, (code.n, d)
        assert min(caps.values()) >= k, (code.n, d, caps)
        assert {b for b, cap in caps.items() if cap == k} == met, (code.n, d, caps)


def _least_weight(rows):
    """The least weight of a nonzero word in the binary span of rows,
    linearly independent bit masks."""
    span = [0]
    for row in rows:
        span += [word ^ row for word in span]
    return min(bin(word).count("1") for word in span[1:])


def test_johnson_never_below_the_codes_the_tests_hold():
    """Johnson's binary cap against every binary code the tests hold.

    The oracle's best linear k per (n, d), n = 3..6, from the walk over
    every standard-form code: Johnson admits 2**k and meets it in all 18
    cells.  The families walked at (7, 4) and (8, 2): it meets the
    [7, 4, 3] code and allows 5 words for the best [8, 2, 5].  The Hamming
    codes [3, 1, 3], [7, 4, 3] and [15, 11, 3] and the Golay codes
    [23, 12, 7] and [24, 12, 8], built here from their generators, with
    their distances checked on every word: all perfect or extended perfect,
    and Johnson meets each.  The Nordstrom-Robinson family is checked in
    the test above.
    """
    for n in range(3, 7):
        best_d = {k: max(d for d, _ in linear_family(n, k, 2).distances) for k in range(1, n)}
        for d in range(1, n + 1):
            k_star = max((k for k, reached in best_d.items() if reached >= d), default=0)
            # the whole space reaches d = 1
            assert johnson_max_size(n, d) == 2 ** (n if d == 1 else k_star), (n, d)
    for n, k, best, cap in [(7, 4, 3, 16), (8, 2, 5, 5)]:
        assert max(d for d, _ in linear_family(n, k, 2).distances) == best
        assert johnson_max_size(n, best) == cap
        assert all(johnson_max_size(n, d) >= 2 ** k for d in range(1, best)), (n, k)
    codes = []
    for r in (2, 3, 4):
        # a message bit per column of weight >= 2 in the parity checks
        tails = [v for v in range(1, 2 ** r) if bin(v).count("1") >= 2]
        codes.append((len(tails) + r, [(1 << (r + i)) | v for i, v in enumerate(tails)], 3))
    golay = [0b110001110101 << i for i in range(12)]  # x**11 + x**10 + x**6 + x**5 + x**4 + x**2 + 1
    codes.append((23, golay, 7))
    codes.append((24, [row | (bin(row).count("1") & 1) << 23 for row in golay], 8))
    for n, rows, d in codes:
        assert _least_weight(rows) == d, n
        assert johnson_max_size(n, d) == 2 ** len(rows), n
        assert all(johnson_max_size(n, e) >= 2 ** len(rows) for e in range(1, d)), n


def test_table1_independence_audit():
    """Bound A against the best of the six other caps on every table1 row.

    The source paper calls A independent of the other known bounds, and each
    table1 row shows it beating the one competitor of its block.  Against
    the minimum of all six it is strictly lower only in 4 rows, all binary
    with d = 4; it ties in 33 and is weaker in 35.
    """
    lower, ties, weaker = [], 0, 0
    for row in load_table1():
        results, _ = best_upper_k(row.n, row.d, row.q)
        caps = {r.bound_id: r.k_max for r in results}
        k_a = caps.pop("a")
        best_other = min(k for k in caps.values() if k is not None)
        if k_a < best_other:
            lower.append((row.block, row.q, row.n, row.d, k_a, best_other))
        elif k_a == best_other:
            ties += 1
        else:
            weaker += 1
    assert lower == [("h", 2, 22, 4, 16, 17), ("h", 2, 30, 4, 24, 25),
                     ("h", 2, 52, 4, 45, 46), ("h", 2, 107, 4, 99, 100)]
    assert (ties, weaker) == (33, 35)
    # Johnson's bound, which the six leave out, ties A in each of the four
    assert [floor_log_q(johnson_max_size(n, d), 2) for _, _, n, d, _, _ in lower] == [16, 24, 45, 99]


def _below_the_closure(variant):
    """Cells (q, n, d) of the audit grid, 3 <= d <= n, where A's cap is
    below the closed cap of the bounds that hold for every code, and those
    where it is below their plain min at (n, d).

    The closed cap is the min of their cap at (n, d), at (n-1, d-1) and 1 +
    their cap at (n-1, d): puncturing gives A_q(n, d) <= A_q(n-1, d-1) and
    shortening A_q(n, d) <= q A_q(n-1, d), for every code.
    """
    closed, plain = [], []
    for q, n_max in AUDIT_GRID.items():
        cap = every_code_caps()[q]
        for n in range(4, n_max + 1):
            for d in range(3, n + 1):
                near = [cap[n, d], cap[n - 1, d - 1], 1 + cap[n - 1, d] if d < n else None]
                _, k_a = best_upper_k(n, d, q, ["a"], variant)
                if k_a < min(k for k in near if k is not None):
                    closed.append((q, n, d))
                if k_a < cap[n, d]:
                    plain.append((q, n, d))
    return closed, plain


def test_second_source_audit():
    """Bound A against the bounds that hold for every code, on a grid.

    Those five hold for systematic codes too, so each is a second source for
    A's cap.  Under the weight reading A is strictly below their min at
    (n, d) in 37 binary cells with n <= 120, all at d = 4, and never below
    their closed cap.
    The literal reading, unsound for q > 2, falls below the closed cap in
    hundreds of cells, the Reed-Solomon cell (5, 3) at q = 5 among them.
    """
    closed, plain = _below_the_closure("weight")
    assert closed == []
    assert plain == [(2, n, 4) for n in [*range(22, 31), *range(49, 63), *range(107, 121)]]
    closed, _ = _below_the_closure("literal")
    assert Counter(q for q, _, _ in closed) == {3: 116, 4: 149, 5: 256, 7: 172}
    assert (5, 5, 3) in closed


def test_johnson_audit():
    """Bound A against the five every-code caps and Johnson's bound, on the
    binary part of the audit grid: n <= 120, every 3 <= d <= n.

    A is strictly below the min of the five in 37 cells, those of the
    second-source audit.  Johnson is below that min in 624 cells, and A is
    below the min of the five and Johnson in none: on this grid A never
    beats the best classical cap once Johnson is counted.
    """
    cap = every_code_caps()[2]
    a_below = both_below = johnson_below = 0
    for n in range(4, AUDIT_GRID[2] + 1):
        for d in range(3, n + 1):
            k_a, _ = bound_a_max_k(n, d, 2)
            k_j = floor_log_q(johnson_max_size(n, d), 2)
            a_below += k_a < cap[n, d]
            both_below += k_a < min(cap[n, d], k_j)
            johnson_below += k_j < cap[n, d]
    assert (a_below, both_below, johnson_below) == (37, 0, 624)


# q -> largest n of the independence floor's grid
_FLOOR_GRID = {2: 140, 3: 90, 4: 70, 5: 60, 7: 50}


def test_independence_floor():
    """Bound A's cap never falls below three cheap caps that hold for every
    code, on a grid past the second-source audit's.

    The floor is min(H(n, d), H(n-1, d-1), n - d + 1), where H is the
    floored sphere-packing cap on k and the middle term is one puncture.
    Under the weight reading A is never below it, on 18 735 cells.  The
    literal reading, unsound for q > 2, is below it in over a thousand cells
    at each q > 2.
    """
    below, cells = Counter(), 0
    for q, n_max in _FLOOR_GRID.items():
        h = {(n, d): floor_log_q(hamming_max_size(n, d, q), q)
             for n in range(3, n_max + 1) for d in range(2, n + 1)}
        for n in range(4, n_max + 1):
            for d in range(3, n + 1):
                cells += 1
                floor = min(h[n, d], h[n - 1, d - 1], n - d + 1)
                for variant in ("weight", "literal"):
                    if bound_a_max_k(n, d, q, variant)[0] < floor:
                        below[q, variant] += 1
    assert cells == 18735
    assert below == {(3, "literal"): 1155, (4, "literal"): 1229, (5, "literal"): 1175, (7, "literal"): 1050}


# q -> largest n of the grid on which Hamming's bound implies A's i = t test
_HAMMING_GRID = {2: 84, 3: 54, 4: 42, 5: 36, 7: 30}


def test_hamming_implies_the_last_test_of_a():
    """At odd d = 2t + 1, wherever Hamming's bound admits k, bound A's
    inequality at i = t holds under the weight reading.

    Vandermonde's identity splits a radius-t ball over n = k + m positions by
    the weight a in the first k:  V_n(t) = sum_{a + b <= t} C(k, a) C(m, b)
    (q-1)**(a+b) >= V_m(t) + C(k, t)(q-1)**t.  Hamming at k is q**k V_n(t)
    <= q**n, so C(k, t)(q-1)**t <= q**m - V_m(t), the tail of weight >= t + 1
    = d - t over m positions: A's rhs at i = t.  So wherever A refutes a k
    that Hamming admits, its witness is below t: on this grid A refutes 539
    of the 44 206 dimensions Hamming admits.
    """
    cells = below = 0
    for q, n_max in _HAMMING_GRID.items():
        for n in range(4, n_max + 1):
            for d in range(3, n + 1, 2):
                t = (d - 1) // 2
                for k in range(3, min(floor_log_q(hamming_max_size(n, d, q), q), n - 1) + 1):
                    cells += 1
                    m = n - k
                    tail = sum(comb(m, j) * (q - 1) ** j for j in range(t + 1, m + 1))
                    assert comb(k, t) * (q - 1) ** t <= tail, (n, k, d, q)
                    verdict = bound_a_check(n, k, d, q)
                    if verdict.refuted:
                        below += 1
                        assert verdict.witness < t, (n, k, d, q)
    assert (cells, below) == (44206, 539)


def test_bound_table_contents():
    # one table registers every bound: its alias, the codes it holds for and
    # its evaluator; the id and alias lists are read off it
    assert {b: (alias, scope) for b, (alias, scope, _) in bounds.BOUNDS.items()} == {
        "a": (None, bounds.SYSTEMATIC),
        "elias": ("e", bounds.EVERY_CODE),
        "griesmer": ("g", bounds.LINEAR),
        "hamming": ("h", bounds.EVERY_CODE),
        "levenshtein": ("l", bounds.EVERY_CODE),
        "plotkin": ("p", bounds.EVERY_CODE),
        "singleton": ("s", bounds.EVERY_CODE),
    }
    assert bounds.BOUND_IDS == tuple(bounds.BOUNDS)
    assert bounds.BOUND_ALIASES == {alias: b for b, (alias, _, _) in bounds.BOUNDS.items() if alias}
    assert sorted(bounds.BOUND_ALIASES) == sorted("ghleps")
    assert set(bounds.BLOCKS) <= set(bounds.BOUND_ALIASES)
    # the package root has no __all__; its public names are its export list
    public = {k for k, v in vars(codebounds).items()
              if not k.startswith("_") and not isinstance(v, ModuleType)}
    assert public == {"BOUND_IDS", "BoundResult", "best_upper_k"}
    assert codebounds.BOUND_IDS is bounds.BOUND_IDS


class TestResultTypes:
    """The record types keep their fields, defaults, repr and behaviour."""

    def test_repr_pinned(self):
        # recorded when these types were frozen dataclasses
        assert repr(best_upper_k(20, 4, 2, ["a", "elias"])) == (
            "([BoundResult(bound_id='a', k_max=15, size_max=None, witness=None, "
            "refutation=FeasibilityVerdict(status='refuted', witness=1, lhs=16, rhs=5)), "
            "BoundResult(bound_id='elias', k_max=15, size_max=49695, witness=2, "
            "refutation=None)], 15)")
        assert repr(load_table1()[0]) == (
            "TableRow(block='g', q=2, n=20, d=4, k_competitor=16, k_A=15)")

    @pytest.mark.parametrize("record,field", [
        (FeasibilityVerdict(FEASIBLE), "status"),
        (BoundResult("a", 3), "k_max"),
        (TableRow("g", 2, 20, 4, 16, 15), "k_A"),
        (Mismatch(TableRow("g", 2, 20, 4, 16, 15), "k_A", 15, 16), "note"),
    ])
    def test_immutable(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)

    def test_keyword_construction_with_defaults(self):
        verdict = FeasibilityVerdict(status=REFUTED, witness=1, lhs=16, rhs=5)
        assert (verdict.status, verdict.witness, verdict.lhs, verdict.rhs) == (REFUTED, 1, 16, 5)
        assert FeasibilityVerdict(status=FEASIBLE).witness is None
        res = BoundResult(bound_id="singleton", k_max=7)
        assert (res.size_max, res.witness, res.refutation) == (None, None, None)
        row = TableRow(block="h", q=3, n=76, d=68, k_competitor=9, k_A=8)
        mm = Mismatch(row=row, column="k_A", expected=8, computed=9)
        assert (mm.row, mm.note) == (row, None)

    def test_equal_results_compare_and_hash_equal(self):
        first, k_first = best_upper_k(20, 4, 2, ["a", "elias"])
        second, k_second = best_upper_k(20, 4, 2, ["a", "elias"])
        assert (first, k_first) == (second, k_second)
        assert [hash(r) for r in first] == [hash(r) for r in second]
        assert bound_a_check(20, 16, 4, 2) == FeasibilityVerdict(REFUTED, 1, 16, 5)
        assert hash(load_table1()[0]) == hash(TableRow("g", 2, 20, 4, 16, 15))
        assert first[0] != first[1]

    def test_refuted_property(self):
        assert bound_a_check(20, 16, 4, 2).refuted
        assert not bound_a_check(20, 15, 4, 2).refuted
        assert not FeasibilityVerdict(NOT_APPLICABLE).refuted
        assert best_upper_k(20, 4, 2, ["a"])[0][0].refutation.refuted
