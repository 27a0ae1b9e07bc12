"""Oracle: words, codes, enumerations, and the proof-mechanics checks.

A word is a tuple of symbols and a code the tuple of its words, as the
oracle returns them; reference.Code validates them."""

import inspect
import sys
import tracemalloc
from functools import cache
from itertools import islice, product

import pytest
from conftest import injection_sweep, linear_family, record_calls, translation_failures
from reference import (
    Code,
    StandardFormGenerator,
    contains,
    contains_zero,
    distance_multiset,
    enumerate_linear_systematic,
    enumerate_systematic_nonlinear,
    hamming_distance,
    translate_code,
    verify_injection_property,
    weight,
)

from codebounds import oracle
from codebounds.bounds import bound_a_check
from codebounds.exactmath import DEFAULT_BUDGET, EnumerationBudgetError
from codebounds.oracle import (
    best_linear_d_witness,
    min_distance,
    refutation_crosscheck,
)
from codebounds.oracle import _first_linear_tail, _first_nonlinear_code

HAMMING_TAIL = ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1))


def hamming_code():
    return StandardFormGenerator(2, 4, 7, HAMMING_TAIL).code()


class TestWord:
    def test_symbols_validated(self):
        # a code's words are checked against its alphabet, which is checked too
        with pytest.raises(ValueError, match=r"symbols must lie in \[0, 3\)"):
            Code(3, 2, ((0, 3),))
        with pytest.raises(ValueError, match="alphabet size must be at least 2"):
            Code(1, 2, ((0, 0),))

    def test_distance_and_weight(self):
        u = (0, 1, 1, 0, 1)
        v = (0, 1, 0, 0, 0)
        assert hamming_distance(u, v) == 2
        assert hamming_distance(u, u) == 0
        assert weight((0, 0, 0)) == 0
        assert weight(u) == 3

    def test_symbol_distance_matches_reference(self):
        # the distance the nonlinear search builds its tables from, against
        # the reference on every pair of words
        for q, length in product((2, 3), range(5)):
            words = list(product(range(q), repeat=length))
            assert all(oracle._symbol_distance(u, v) == hamming_distance(u, v)
                       for u in words for v in words), (q, length)

    def test_incompatible_words_rejected(self):
        with pytest.raises(ValueError):
            hamming_distance((0, 1), (0, 1, 0))


class TestCode:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Code(2, 2, ((0, 1), (0, 1)))

    def test_lengths_checked(self):
        with pytest.raises(ValueError, match="all words must share the code's length"):
            Code(2, 2, ((0, 1), (0, 1, 0)))

    def test_systematic_projection_checked(self):
        words = ((0, 0), (1, 0))
        Code(2, 2, words, systematic_k=1)
        bad = ((0, 0), (0, 1))  # prefixes collide
        with pytest.raises(ValueError):
            Code(2, 2, bad, systematic_k=1)


class TestMinDistance:
    def test_repetition_codes(self):
        for q in (2, 3, 5):
            for n in (2, 4, 6):
                tail = tuple((1,) * (n - 1) for _ in range(1))
                code = StandardFormGenerator(q, 1, n, tail).code()
                assert min_distance(code.words) == n

    def test_hamming_code_by_weight_and_pairwise(self):
        code = hamming_code()
        assert len(code) == 16
        assert min_distance(code.words) == 3
        assert min(weight(w) for w in code.words if weight(w)) == 3
        ws = code.words
        pairwise = min(
            hamming_distance(ws[a], ws[b])
            for a in range(len(ws)) for b in range(a + 1, len(ws))
        )
        assert pairwise == 3

    def test_single_word_rejected(self):
        with pytest.raises(ValueError):
            min_distance(((0, 0),))

    def test_shortcut_matches_pairwise_exhaustively(self):
        # every standard-form code at small scale: a linear code's minimum
        # distance is its least nonzero codeword weight
        cases = [(n, k, 2) for n in range(3, 7) for k in range(1, n)]
        cases += [(n, k, 3) for n in range(3, 6) for k in range(1, n)]
        for n, k, q in cases:
            for d, least_weight in linear_family(n, k, q).distances:
                assert d == least_weight, (n, k, q)


class TestEnumerations:
    def test_linear_counts(self):
        assert len(linear_family(3, 2, 2).distances) == 4
        assert len(linear_family(7, 4, 2).distances) == 4096
        # counted without the walk: no other test reads these codes, and the
        # pairwise distances of their 81 words would take seconds
        assert sum(1 for _ in enumerate_linear_systematic(6, 4, 3)) == 6561

    def test_linear_budget(self):
        with pytest.raises(EnumerationBudgetError):
            enumerate_linear_systematic(30, 15, 2)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            enumerate_linear_systematic(5, 2, 4)

    @pytest.mark.parametrize("k,q,message", [
        (2, 1, "alphabet size must be at least 2, got q=1"),
        *((2, q, f"linear enumeration needs a prime alphabet, got q={q}") for q in (4, 9)),
        *((k, 2, f"need 1 <= k < n, got k={k}, n=4") for k in (0, 4)),
    ])
    def test_linear_checks_shared(self, k, q, message):
        # one check serves the search and the generator alike
        n = 4
        tail = tuple((0,) * (n - k) for _ in range(k))
        for call in (lambda: best_linear_d_witness(n, k, q),
                     lambda: StandardFormGenerator(q, k, n, tail)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_alphabet_over_budget_refused_before_prime_test(self, monkeypatch):
        # q > budget means at least q > budget codes, so the search and the
        # enumeration refuse it without running trial division up to sqrt(q)
        def prime_test(*args):
            raise AssertionError("prime test ran before the budget guard")

        monkeypatch.setattr(oracle, "_check_prime", prime_test)
        for call in (best_linear_d_witness, enumerate_linear_systematic):
            with pytest.raises(EnumerationBudgetError) as exc:
                call(3, 1, 11, budget=10)
            assert str(exc.value) == (
                "enumerating at least q = 11 standard-form codes exceeds the budget of 10")
            with pytest.raises(ValueError, match="budget must be at least 1, got 0"):
                call(3, 1, 11, budget=0)

    def test_nonlinear_counts(self):
        assert sum(1 for _ in enumerate_systematic_nonlinear(3, 2, 2)) == 16
        assert sum(1 for _ in enumerate_systematic_nonlinear(4, 2, 2)) == 256

    def test_nonlinear_budget(self):
        with pytest.raises(EnumerationBudgetError):
            enumerate_systematic_nonlinear(10, 5, 2)

    def test_deterministic_order(self):
        first = [c.words for c in islice(enumerate_linear_systematic(5, 2, 3), 20)]
        second = [c.words for c in islice(enumerate_linear_systematic(5, 2, 3), 20)]
        assert first == second
        a = [c.words for c in islice(enumerate_systematic_nonlinear(4, 2, 2), 20)]
        b = [c.words for c in islice(enumerate_systematic_nonlinear(4, 2, 2), 20)]
        assert a == b

    def test_all_codes_distinct_and_systematic(self):
        seen = set()
        for code in enumerate_linear_systematic(4, 2, 3):
            assert code.systematic_k == 2
            seen.add(code.words)
        assert len(seen) == 3 ** 4


class TestBestLinearD:
    @pytest.mark.parametrize("n,k,q,expected", [
        (5, 2, 2, 3),
        (7, 4, 2, 3),
        (6, 4, 3, 2),
        (6, 2, 2, 4),
    ])
    def test_known_optima(self, n, k, q, expected):
        assert best_linear_d_witness(n, k, q)[0] == expected

    def test_repetition_dimension_one(self):
        for q in (2, 3):
            for n in (3, 5, 7):
                assert best_linear_d_witness(n, 1, q)[0] == n

    def test_search_matches_every_code(self):
        # the independent check of best_linear_d_witness: the best d of
        # every code enumerated is the largest d that the first codes reach
        for n, k, q in _LINEAR_CASES:
            assert best_linear_d_witness(n, k, q)[0] == len(linear_family(n, k, q).first), (n, k, q)

    def test_witness_attains_the_optimum(self):
        d, tail = best_linear_d_witness(7, 4, 2)
        assert d == 3
        assert min_distance(StandardFormGenerator(2, 4, 7, tail).code().words) == 3

    def test_witness_is_first_optimal_code_in_enumeration_order(self):
        for n, k, q in _LINEAR_CASES:
            d, tail = best_linear_d_witness(n, k, q)
            assert tail == _tail_rows(linear_family(n, k, q).first[d]), (n, k, q)

    @pytest.mark.parametrize("n,k,q", [(7, 5, 3), (8, 2, 3), (5, 3, 5), (5, 3, 7), (4, 2, 11)])
    def test_row_search_matches_decoding_every_tail(self, n, k, q):
        # every tail decoded, against the row search: at q = 3 it first
        # fails at the Singleton bound, and at q = 5, 7, 11 it reaches that
        # bound with rows that skip every leading entry but 0 and 1
        d, tail = best_linear_d_witness(n, k, q)
        ref_d, ref_idx = _best_d_by_decoding(n, k, q)
        assert d == ref_d
        flat = [e for row in tail for e in row]
        assert sum(e * q ** p for p, e in enumerate(reversed(flat))) == ref_idx


def _first_codes(codes, n):
    """d -> first of the codes, in their order, with minimum distance >= d,
    for every d in 1..n that some code reaches; one pass.  The keys are
    always 1..len(first), so a code matters only if it reaches the next."""
    first = {}
    for code in codes:
        if _reaches_distance(code, len(first) + 1):
            for d in range(len(first) + 1, min_distance(code.words) + 1):
                first[d] = code
            if len(first) == n:
                break
    return first


# every (n, k) over q = 2, n <= 6, and over q = 3, n <= 5, the grid of TestBestLinearD
_LINEAR_CASES = [(n, k, q) for q, n_hi in ((2, 6), (3, 5)) for n in range(2, n_hi + 1) for k in range(1, n)]


@pytest.mark.parametrize("q,n_hi", [(2, 6), (3, 5), (5, 4)])
def test_row_search_matches_enumeration_below_the_optimum(q, n_hi):
    # the pruning to ascending rows with leading entry 1 must not skip the
    # first code at any d, not only at the best one
    for n in range(2, n_hi + 1):
        for k in range(1, n):
            expected = {d: _tail_rows(code) for d, code in linear_family(n, k, q).first.items()}
            for d in range(1, n - k + 3):
                assert _first_linear_tail(n, k, d, q) == expected.get(d), (n, k, q, d)


class TestTranslate:
    def test_zero_translation_is_identity(self):
        code = hamming_code()
        assert translate_code(code, (0,) * 7).words == code.words

    def test_translate_by_codeword(self):
        code = hamming_code()
        t = code.words[5]
        moved = translate_code(code, t)
        assert contains_zero(moved)
        assert min_distance(moved.words) == 3
        assert moved.systematic_k == 4
        assert distance_multiset(moved) == distance_multiset(code)

    def test_translate_by_noncodeword(self):
        code = hamming_code()
        t = (1, 0, 0, 0, 0, 0, 1)
        assert not contains(code, t)
        moved = translate_code(code, t)
        assert not contains_zero(moved)
        assert distance_multiset(moved) == distance_multiset(code)

    def test_mismatched_translation_rejected(self):
        with pytest.raises(ValueError):
            translate_code(hamming_code(), (0, 1))

    def test_random_codes_translation_invariance(self):
        # distances, the systematic structure and zero-containment, on the
        # 1200 random codes criterion 7 reads too
        failures = translation_failures()
        assert not failures, failures[:5]


class TestInjectionProperty:
    def test_translated_hamming_code_passes(self):
        code = translate_code(hamming_code(), hamming_code().words[3])
        assert verify_injection_property(code, 1).status == "pass"

    def test_low_distance_not_applicable(self):
        # a systematic code with d = 1 cannot support any i
        words = tuple((a, b, a) for a in range(2) for b in range(2))
        code = Code(2, 3, words, systematic_k=2)
        assert min_distance(words) == 1
        assert verify_injection_property(code, 1).status == "not-applicable"

    def test_zero_word_required(self):
        code = translate_code(hamming_code(), (1, 0, 0, 0, 0, 0, 1))
        with pytest.raises(ValueError):
            verify_injection_property(code, 1)

    def test_exhaustive_sweep_at_six_three(self):
        # every binary (6, 3) standard-form code with d >= 3, at i = 1, in
        # the sweep criterion 7 reads
        checked, failures = injection_sweep()
        assert checked[6, 3, 2, 1] > 0
        assert [f for f in failures if f[:4] == (6, 3, 2, 1)] == []


class TestRefutationCrosscheck:
    def test_ternary_case_confirmed(self):
        assert refutation_crosscheck(6, 4, 3, 3) is None

    def test_binary_case_confirmed(self):
        assert refutation_crosscheck(4, 3, 3, 2) is None

    def test_budget_propagates(self):
        with pytest.raises(EnumerationBudgetError):
            refutation_crosscheck(20, 16, 4, 2)

    def test_nonlinear_search_alone_where_it_fits(self, monkeypatch):
        # all 2**8 systematic codes at (4, 3) fit, so the nonlinear search
        # runs once and the linear one not at all
        calls = []

        def linear(*args):
            raise AssertionError("linear search ran where the nonlinear one fits")

        def nonlinear(*args):
            calls.append(args)
            return first_nonlinear(*args)

        first_nonlinear = oracle._first_nonlinear_code
        monkeypatch.setattr(oracle, "_first_linear_tail", linear)
        monkeypatch.setattr(oracle, "best_linear_d_witness", linear)
        monkeypatch.setattr(oracle, "_first_nonlinear_code", nonlinear)
        assert refutation_crosscheck(4, 3, 3, 2) is None
        assert calls == [(4, 3, 3, 2)]

    def test_guard_names_the_search_reading_the_budget_once(self, monkeypatch):
        # the budget guard returns the search it admits, so a cross-check
        # reads floor_log_q(budget, q) once: at the bench's (4, 3, 3, 2),
        # where all 2**8 systematic codes fit, and at (4, 3, 3, 3), where
        # 3**27 do not and the linear search runs
        assert oracle.check_search_budget(4, 3, 2, DEFAULT_BUDGET) is True
        assert oracle.check_search_budget(4, 3, 3, DEFAULT_BUDGET) is False
        log = record_calls(monkeypatch, oracle, "floor_log_q")
        assert refutation_crosscheck(4, 3, 3, 2) is None
        assert refutation_crosscheck(4, 3, 3, 3) is None
        assert log == [("floor_log_q", DEFAULT_BUDGET, 2), ("floor_log_q", DEFAULT_BUDGET, 3)]

    def test_nonlinear_contradiction_returns_its_first_code(self):
        # the search reads no bound: a code of distance 3 exists at (6, 3)
        # over q = 2, and all 2**24 systematic codes fit the budget, so the
        # nonlinear search returns it
        words = refutation_crosscheck(6, 3, 3, 2, budget=2 ** 24)
        Code(2, 6, words, systematic_k=3)
        assert [w[:3] for w in words] == list(product(range(2), repeat=3))
        assert min_distance(words) >= 3
        assert words == _first_nonlinear_code(6, 3, 3, 2)

    def test_linear_contradiction_encodes_the_first_tail(self):
        # bound A's literal reading refutes (5, 3, 3) over q = 5, where a
        # Reed-Solomon code of distance 3 exists; its 5**250 systematic
        # codes do not fit, so the linear search finds the code, encoded
        # from its tail
        assert bound_a_check(5, 3, 3, 5, "literal").refuted
        words = refutation_crosscheck(5, 3, 3, 5)
        assert len(words) == 125
        with pytest.raises(TypeError):  # the budget is keyword-only
            refutation_crosscheck(5, 3, 3, 5, "literal")
        Code(5, 5, words, systematic_k=3)
        assert [w[:3] for w in words] == list(product(range(5), repeat=3))
        assert min_distance(words) >= 3
        tail = _first_linear_tail(5, 3, 3, 5)
        assert words == StandardFormGenerator(5, 3, 5, tail).code().words

    def test_span_guard_shared_with_best_d(self, monkeypatch):
        # 3**10 codes fit the default budget but 59 048 x 59 049 codeword
        # pairs do not: the cross-check refuses with best-d's message, and
        # the nonlinear count is never reached
        def search(*args):
            raise AssertionError("search ran past the budget guard")

        monkeypatch.setattr(oracle, "_first_linear_tail", search)
        monkeypatch.setattr(oracle, "_first_nonlinear_code", search)
        messages = []
        for call in (lambda: refutation_crosscheck(11, 10, 3, 3),
                     lambda: best_linear_d_witness(11, 10, 3)):
            with pytest.raises(EnumerationBudgetError) as exc:
                call()
            messages.append(str(exc.value))
        assert messages == ["the search's 59048 x 59049 codeword pairs exceed the budget of 10000000"] * 2

    def test_budget_below_one_rejected(self):
        for budget in (0, -3):
            with pytest.raises(ValueError, match="budget must be at least 1"):
                refutation_crosscheck(4, 3, 3, 2, budget=budget)
            with pytest.raises(ValueError, match="budget must be at least 1"):
                enumerate_linear_systematic(4, 2, 2, budget=budget)
            with pytest.raises(ValueError, match="budget must be at least 1"):
                enumerate_systematic_nonlinear(3, 2, 2, budget=budget)


def _best_d_by_decoding(n, k, q):
    """Reference for the linear search: decode every tail matrix from its
    row-major index and weigh every nonzero codeword directly.  Returns
    (best distance, first attaining index).  It is the suite's one use of
    numpy, imported here so that every other test runs without it: up to
    531 441 tail matrices are decoded, vectorised."""
    import numpy as np

    m = n - k
    msgs = np.array(list(product(range(q), repeat=k))[1:], dtype=np.int64)
    msg_w = np.count_nonzero(msgs, axis=1)
    place = q ** np.arange(k * m - 1, -1, -1, dtype=np.int64)
    total = q ** (k * m)
    chunk = max(1, 2_000_000 // (len(msgs) * m))
    best = (0, 0)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        tails = (idx[:, None] // place % q).reshape(-1, k, m)
        wts = msg_w + np.count_nonzero((msgs @ tails) % q, axis=2)
        code_min = wts.min(axis=1)
        i = int(code_min.argmax())
        if code_min[i] > best[0]:
            best = (int(code_min[i]), start + i)
    return best


def _tail_rows(code):
    """The tail matrix of a standard-form linear code, read off its words:
    row r is the tail of the codeword whose prefix is the r-th unit vector."""
    k = code.systematic_k
    tails = {w[:k]: w[k:] for w in code.words}
    return tuple(tails[tuple(int(c == r) for c in range(k))] for r in range(k))


@cache
def _first_nonlinear_codes(n, k, q):
    return _first_codes(enumerate_systematic_nonlinear(n, k, q), n)


# every (n, k) over q whose nonlinear enumeration fits in the budget
_NONLINEAR_CASES = [(n, k, 2) for n in range(2, 6) for k in range(1, n)] + [(n, 1, 3) for n in range(2, 5)]


def test_nonlinear_search_matches_enumeration():
    found = missing = 0
    for n, k, q in _NONLINEAR_CASES:
        expected = _first_nonlinear_codes(n, k, q)
        for d in range(1, n + 1):
            words = _first_nonlinear_code(n, k, d, q)
            if d in expected:
                found += 1
                assert words is not None, (n, k, q, d)
                assert words == expected[d].words, (n, k, q, d)
                Code(q, n, words, systematic_k=k)
            else:
                missing += 1
                assert words is None, (n, k, q, d)
    assert found and missing


def test_nonlinear_enumeration_confirms_refutations():
    # a (n, k, d) that bound A refutes is reached by no systematic code,
    # linear or not, wherever the full nonlinear sweep fits in budget: the
    # enumeration's first codes have no key d, so none of its codes reaches d
    refuted = []
    for n, k, q in _NONLINEAR_CASES:
        expected = _first_nonlinear_codes(n, k, q)
        for d in range(1, n + 1):
            if bound_a_check(n, k, d, q).refuted:
                refuted.append((n, k, d, q))
                assert d not in expected, (n, k, q, d)
    assert refuted == [(4, 3, 3, 2), (4, 3, 4, 2), (5, 3, 3, 2), (5, 3, 4, 2), (5, 3, 5, 2),
                       (5, 4, 3, 2), (5, 4, 4, 2), (5, 4, 5, 2)]


def test_nonlinear_search_needs_no_recursion():
    # the 32 prefixes of (6, 5) are 32 levels of the walk, and the even-weight
    # code reaches d = 2; with 16 frames to spare above this test's own, a
    # search that recursed once per prefix would overflow
    expected = _first_nonlinear_code(6, 5, 2, 2)
    assert expected is not None
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 16)
    try:
        words = _first_nonlinear_code(6, 5, 2, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert words == expected


def _tails_tried_first(monkeypatch, n, k, d, q):
    """The tails the nonlinear search tries at prefix 0 and at prefix
    0...01, read off the children it gives the walk."""
    tried = ([], [])
    walk = oracle._first_leaf

    def recording(root, children):
        def logged(chosen):
            kids = children(chosen)
            if kids is None or len(chosen) > 1:
                return kids
            kids = list(kids)
            tried[len(chosen)].extend(kid[-1] for kid in kids)
            return kids

        return walk(root, logged)

    monkeypatch.setattr(oracle, "_first_leaf", recording)
    _first_nonlinear_code(n, k, d, q)
    monkeypatch.undo()
    return tried


def test_nonlinear_search_fixes_its_two_symmetries(monkeypatch):
    # prefix 0 tries tail 0 alone, and prefix 0...01 the tails 0...01...1
    # of w >= d - 1 ones alone, in ascending order
    for n, k, q in _NONLINEAR_CASES + [(3, 1, 5), (4, 2, 3)]:
        for d in range(1, n + 1):
            at_zero, at_unit = _tails_tried_first(monkeypatch, n, k, d, q)
            assert at_zero == [(0,) * (n - k)], (n, k, d, q)
            assert at_unit == [(0,) * (n - k - w) + (1,) * w
                               for w in range(d - 1, n - k + 1)], (n, k, d, q)


def test_nonlinear_search_memory_follows_the_walk():
    # the default budget admits (10, 1) over q = 2, as (n-k) q**k = 18 <= 23;
    # its 512 tails would give a table of 512 x 512 distances, while the walk
    # holds two prefixes and the tail it tries
    assert oracle.check_search_budget(10, 1, 2, DEFAULT_BUDGET)
    tracemalloc.start()
    try:
        words = _first_nonlinear_code(10, 1, 10, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == ((0,) * 10, (1,) * 10)
    assert peak < 64 * 1024


def test_nonlinear_fit_carries_to_the_smaller_pairs():
    # where the guard admits the nonlinear search at (n, k) it admits it at
    # (n-1, k) and at (n-1, k-1), the pairs refute-check confirms (n, k)
    # from by puncturing and shortening, so their verdicts cover every code
    # a search at (n, k) would try; a refusal counts as no fit
    def fits(n, k, q, budget):
        try:
            return oracle.check_search_budget(n, k, q, budget)
        except EnumerationBudgetError:
            return False

    count = 0
    for q, budget in product([2, 3, 5, 7], [1, 2 ** 12, 10 ** 5, 10 ** 7, 10 ** 60]):
        for n in range(3, 60):
            for k in range(2, n):
                if fits(n, k, q, budget):
                    count += 1
                    assert k == n - 1 or fits(n - 1, k, q, budget), (n, k, q)
                    assert fits(n - 1, k - 1, q, budget), (n, k, q)
    assert count == 138


def _reaches_distance(code, d):
    """Early-exit pairwise check: does every pair sit at distance >= d?"""
    ws = code.words
    for a in range(len(ws)):
        sa = ws[a]
        for b in range(a + 1, len(ws)):
            if sum(1 for x, y in zip(sa, ws[b]) if x != y) < d:
                return False
    return True
