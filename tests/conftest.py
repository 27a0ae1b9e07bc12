"""Shared test helpers, and the sweeps that more than one test file reads.

Each sweep runs once per session and returns, per property it checks, the
inputs at which the check fails; the unit tests and the acceptance criteria
that assert a property read the same sweep.  Each small family of
standard-form codes is walked once too, by linear_family."""

import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from typing import NamedTuple

import pytest
from reference import (
    Code,
    contains,
    contains_zero,
    distance_multiset,
    enumerate_linear_systematic,
    krawtchouk,
    tail_mass,
    translate_code,
    verify_injection_property,
    weight,
    weight_count,
)

from codebounds import bounds
from codebounds.bounds import (BOUND_IDS, BOUNDS, EVERY_CODE, FEASIBLE, NOT_APPLICABLE, REFUTED, FeasibilityVerdict,
                               _bound_a_cap, best_upper_k, bound_a_check, elias_max_size)
from codebounds.exactmath import VARIANTS, floor_log_q, sphere_volume
from codebounds.oracle import min_distance


def random_systematic_code(rng: random.Random) -> Code:
    """A random nonlinear systematic code at tiny parameters."""
    q = rng.choice([2, 3, 5])
    k = rng.randint(1, 2 if q == 5 else 3)
    m = rng.randint(1, 3)
    n = k + m
    prefixes = list(product(range(q), repeat=k))
    words = tuple(p + tuple(rng.randrange(q) for _ in range(m)) for p in prefixes)
    return Code(q, n, words, systematic_k=k)


def record_calls(monkeypatch, module, *names):
    """The list to which each later call of the named functions of module
    appends (name, *positional arguments), before the original runs."""
    log = []
    for name in names:
        def logged(*args, _name=name, _original=getattr(module, name), **kwargs):
            log.append((_name, *args))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, logged)
    return log


def naive_verdict(n, k, d, q, variant="weight"):
    """Straight re-statement of the inequality, no incremental updates."""
    if k <= 2 or k >= n or d < 3:
        return FeasibilityVerdict(NOT_APPLICABLE)
    for i in range(1, (d - 1) // 2 + 1):
        lhs = weight_count(k, i, q)
        rhs = tail_mass(n - k, d - i, q, variant, i)
        if lhs > rhs:
            return FeasibilityVerdict(REFUTED, i, lhs, rhs)
    return FeasibilityVerdict(FEASIBLE)


# q -> largest n of the bound-A sweep; its walk, the checks that cost more
# than the verdicts, stops at WALK_N
BOUND_A_GRID = {2: 60, 3: 60, 4: 40, 5: 60, 7: 40}
WALK_N = 40


class BoundASweep(NamedTuple):
    failed: dict  # check -> the inputs at which it fails
    probes: dict  # q -> the bound_a_check calls of each search on the walk
    cap_two: Counter  # q -> the cells of the walk whose cap is 2


@cache
def bound_a_sweep() -> BoundASweep:
    """Bound A on every cell (n, d, q, variant) of BOUND_A_GRID, n >= 4 and
    3 <= d <= n, under both readings.

    Each bound_a_check verdict, k = 3..n-1, is computed once, and bound A's
    search runs once per cell, through best_upper_k.  On every cell: the
    refuted k form a suffix (k-monotonicity) and the search stops below its
    first k (linear) with at most 3 checks (search); its cap does not grow
    with d (d-monotonicity); its result carries the verdict at k_max + 1
    (refutation); and at q = 2 the two readings give the same verdicts.  On
    the walk, n <= WALK_N: every verdict matches naive_verdict, the
    closed-form cap refutes nothing that bound_a_check admits, a cap of 2
    is the one check at k = 3, and at q = 2, 3, 5 best_upper_k runs every
    bound, of which no other result carries a refutation."""
    failed = {name: [] for name in ("k-monotonicity", "d-monotonicity", "variants at q = 2", "linear",
                                    "search", "refutation", "naive", "cap", "cap of two")}
    probes, cap_two = {q: [] for q in BOUND_A_GRID}, Counter()
    with pytest.MonkeyPatch.context() as mp:
        # the search's checks, made through the module; the sweep's own
        # calls use the name imported here and are not recorded
        checks = record_calls(mp, bounds, "bound_a_check")
        for q, n_max in BOUND_A_GRID.items():
            for n in range(4, n_max + 1):
                walk = n <= WALK_N
                prev_cap = {}
                for d in range(3, n + 1):
                    verdicts = {}
                    for variant in VARIANTS:
                        cell = (n, d, q, variant)
                        v = verdicts[variant] = {k: bound_a_check(n, k, d, q, variant) for k in range(3, n)}
                        first = next((k for k in v if v[k].refuted), n)
                        failed["k-monotonicity"] += [(q, n, d, k, variant) for k in range(first, n)
                                                     if not v[k].refuted]
                        checks.clear()
                        selection = BOUND_IDS if walk and q in (2, 3, 5) else ["a"]
                        (a, *others), _ = best_upper_k(n, d, q, selection, variant)  # A's result first
                        k_max = a.k_max
                        if k_max != first - 1:
                            failed["linear"].append(cell)
                        if len(checks) > 3:
                            failed["search"].append(cell)
                        if k_max > prev_cap.get(variant, k_max):
                            failed["d-monotonicity"].append((q, n, d, variant))
                        prev_cap[variant] = k_max
                        expect = v.get(k_max + 1)
                        if expect is None or not expect.refuted or a.refutation != expect:
                            failed["refutation"].append(("a", *cell))
                        failed["refutation"] += [(r.bound_id, *cell) for r in others if r.refutation is not None]
                        if not walk:
                            continue
                        probes[q].append(len(checks))
                        naive = {k: naive_verdict(n, k, d, q, variant) for k in range(3, n)}
                        failed["naive"] += [(n, k, d, q, variant) for k in v if v[k] != naive[k]]
                        cap = _bound_a_cap(n, d, q, variant)
                        if not (2 <= cap <= max(2, n - d + 1) <= n - 1
                                and all(v[k].refuted for k in range(cap + 1, n))):
                            failed["cap"].append(cell)
                        # a cap of 2 admits no k >= 3; the one check, at k = 3,
                        # refutes 3 and the search returns the floor with it
                        if cap == 2:
                            cap_two[q] += 1
                            if (not naive[3].refuted or (k_max, a.refutation) != (2, naive[3])
                                    or [k for _, _, k, *_ in checks] != [3]):
                                failed["cap of two"].append(cell)
                    if q == 2:
                        failed["variants at q = 2"] += [(n, d, k) for k in verdicts["weight"]
                                                        if verdicts["weight"][k] != verdicts["literal"][k]]
    return BoundASweep(failed, probes, cap_two)


# q -> largest n of the grid on which bound A meets the every-code caps
AUDIT_GRID = {2: 120, 3: 40, 4: 34, 5: 40, 7: 30}


@cache
def every_code_caps():
    """Per q of AUDIT_GRID, the min k_max of the five bounds that hold for
    every code at each (n, d), 2 <= d <= n.  None of the five reads bound
    A's variant, so one grid serves every audit."""
    five = [b for b, (_, scope, _) in BOUNDS.items() if scope == EVERY_CODE]
    return {q: {(n, d): best_upper_k(n, d, q, five)[1]
                for n in range(2, n_max + 1) for d in range(2, n + 1)}
            for q, n_max in AUDIT_GRID.items()}


def _floor_log_q_draws():
    """(q, M) pairs from one seeded stream: 300 with M <= 10**60 and q in
    {2, 3, 5, 11}, then 200 with M <= 2**4000, of a size drawn first, and q
    in 2..16."""
    rng = random.Random(29)
    draws = [(rng.choice([2, 3, 5, 11]), rng.randint(1, 10 ** 60)) for _ in range(300)]
    return draws + [(rng.randint(2, 16), rng.randint(1, 2 ** rng.randint(0, 4000))) for _ in range(200)]


@cache
def exact_identities():
    """The identities of the exact primitives, each over every input a test
    gives it: per identity, the inputs where it fails."""
    failed = {name: [] for name in ("completeness", "full sphere", "tail mass edges",
                                    "orthogonality", "floor_log_q round trip")}
    for q in (2, 3, 5):
        # the weights of all q**m words partition them
        failed["completeness"] += [(m, q) for m in range(21)
                                   if sum(weight_count(m, j, q) for j in range(m + 1)) != q ** m]
        # sum_x w(x) K_r(x) K_s(x) = q**n * w-mass of weight r, iff r = s
        for n in (4, 6, 7, 10):
            for r in range(n + 1):
                for s in range(r, n + 1):
                    total = sum(weight_count(n, x, q) * krawtchouk(n, q, r, x) * krawtchouk(n, q, s, x)
                                for x in range(n + 1))
                    if total != (q ** n * weight_count(n, r, q) if r == s else 0):
                        failed["orthogonality"].append((q, n, r, s))
    full = {(n, q) for n in (1, 4, 9) for q in (2, 3, 5)} | {(6, 2), (5, 3)}
    failed["full sphere"] = sorted((n, q) for n, q in full if sphere_volume(n, n, q) != q ** n)
    for m, q in [(4, 2), (5, 3), (3, 5), (7, 2), (7, 3), (7, 5)]:
        if (tail_mass(m, 0, q, "weight", 0) != q ** m or tail_mass(m, m + 1, q, "weight", 1) != 0
                or tail_mass(m, m + 3, q, "literal", 2) != 0):
            failed["tail mass edges"].append((m, q))
    for q, M in _floor_log_q_draws():
        k = floor_log_q(M, q)
        if not q ** k <= M < q ** (k + 1):
            failed["floor_log_q round trip"].append((M, q))
    return failed


# (n, d, q) at which TestElias checks the witness, one test each; the cap at
# the reported w is an integer at the last two, so the floor is exact there
ELIAS_WITNESS_POINTS = [(7, 3, 2), (12, 3, 2), (16, 3, 5), (30, 5, 3), (47, 7, 2), (54, 50, 5),
                        (7, 4, 2), (11, 4, 3)]


@cache
def elias_witnesses():
    """Per (n, d, q) of ELIAS_WITNESS_POINTS and of the grid q in {2, 3, 5},
    n in {7, 16, 31}, d in {3, 5, n}: the ways in which the reported witness
    w is not admissible, does not give the reported size, or is beaten by
    another admissible w, against the textbook form with r = (1 - 1/q)n as
    an exact rational."""
    grid = [(n, d, q) for q in (2, 3, 5) for n in (7, 16, 31) for d in (3, 5, n)]
    problems = {}
    for n, d, q in dict.fromkeys(ELIAS_WITNESS_POINTS + grid):
        r = Fraction((q - 1) * n, q)

        def floored_cap(w):
            value = r * d / (w * w - 2 * r * w + r * d) * Fraction(q ** n, sphere_volume(n, w, q))
            return value.numerator // value.denominator

        size, w = elias_max_size(n, d, q)
        found = problems[n, d, q] = []
        if not (0 <= w <= r and Fraction(w * w) - 2 * r * w + r * d > 0):
            found.append(f"w={w} inadmissible")
        elif size != floored_cap(w):
            found.append(f"size {size} is not the cap at w={w}")
        found += [f"w={w2} does better" for w2 in range(0, int(r) + 1)
                  if Fraction(w2 * w2) - 2 * r * w2 + r * d > 0 and floored_cap(w2) < size]
    return problems


@cache
def translation_failures():
    """Random systematic codes, each translated by a random word: 200 from
    seed 20260808 and 1000 from seed 987654321.  Returns (seed, trial, what)
    wherever the distance multiset, the systematic structure or the
    zero-containment rule is lost."""
    failures = []
    for seed, trials in ((20260808, 200), (987654321, 1000)):
        rng = random.Random(seed)
        for trial in range(trials):
            code = random_systematic_code(rng)
            t = tuple(rng.randrange(code.q) for _ in range(code.n))
            moved = translate_code(code, t)
            if distance_multiset(moved) != distance_multiset(code):
                failures.append((seed, trial, "distance multiset changed"))
            if moved.systematic_k != code.systematic_k:
                failures.append((seed, trial, "systematic structure lost"))
            if contains_zero(moved) != contains(code, t):
                failures.append((seed, trial, "zero-containment wrong"))
    return failures


class LinearFamily(NamedTuple):
    """What the tests read of every standard-form code of one (n, k, q), in
    enumeration order."""

    distances: list  # (minimum distance, least nonzero weight) per code
    first: dict  # d -> the first code of minimum distance >= d, d = 1..the best
    injection_checks: Counter  # i -> codes checked at i, every i with 2i + 1 <= d
    injection_failures: list  # (i, report) of each check that did not pass


@cache
def linear_family(n: int, k: int, q: int) -> LinearFamily:
    """One walk over every standard-form code of (n, k, q), read by every
    test of those codes: their count, distances and least weights, the first
    code per distance, and the injection property at every applicable i."""
    distances, first, checks, failures = [], {}, Counter(), []
    for code in enumerate_linear_systematic(n, k, q):
        d = min_distance(code.words)
        distances.append((d, min(weight(w) for w in code.words if weight(w))))
        for reached in range(len(first) + 1, d + 1):
            first[reached] = code
        for i in range(1, (d - 1) // 2 + 1):
            checks[i] += 1
            outcome = verify_injection_property(code, i)
            if outcome.status != "pass":
                failures.append((i, outcome))
    return LinearFamily(distances, first, checks, failures)


def injection_sweep():
    """The injection property on every standard-form code of (n, k, q) =
    (6, 3, 2), (7, 4, 2), (8, 2, 2) and (8, 1, 3), at every i with
    2i + 1 <= d: the checks made per (n, k, q, i), and the (n, k, q, i,
    report) of each that did not pass."""
    checked, failures = Counter(), []
    for n, k, q in [(6, 3, 2), (7, 4, 2), (8, 2, 2), (8, 1, 3)]:
        family = linear_family(n, k, q)
        checked.update({(n, k, q, i): count for i, count in family.injection_checks.items()})
        failures += [(n, k, q, i, outcome) for i, outcome in family.injection_failures]
    return checked, failures
