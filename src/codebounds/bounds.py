"""Feasibility predicates and max-dimension computations for code bounds.

The central bound ("bound A") refutes the existence of an (n, k, q) systematic
code of minimum distance >= d by counting: vectors of weight i in the message
block must map injectively to tails of weight >= d - i, so for every i with
1 <= i <= (d-1)//2 the count C(k, i)(q-1)**i cannot exceed the tail mass.
Classical comparison bounds (Griesmer, Singleton, Hamming, Plotkin, Elias,
Levenshtein) are implemented alongside it, all in exact integer arithmetic:
every rational cap is a ratio of integers floored with one integer division.
"""

from math import comb
from typing import Iterable, NamedTuple, Optional

from .exactmath import (VARIANT_WEIGHT, check_distance, check_query, check_variant,
                        floor_log_q, sphere_volume)
from .levenshtein import levenshtein_max_size

__all__ = [
    "FEASIBLE",
    "REFUTED",
    "NOT_APPLICABLE",
    "BOUND_IDS",
    "BOUND_ALIASES",
    "BLOCKS",
    "FeasibilityVerdict",
    "BoundResult",
    "bound_a_check",
    "bound_a_max_k",
    "griesmer_max_k",
    "singleton_max_k",
    "hamming_max_size",
    "plotkin_max_size",
    "elias_max_size",
    "levenshtein_max_size",
    "best_upper_k",
]

FEASIBLE = "feasible"
REFUTED = "refuted"
NOT_APPLICABLE = "not-applicable"

# evaluation order is alphabetical so reports are deterministic
BOUND_IDS = ("a", "elias", "griesmer", "hamming", "levenshtein", "plotkin", "singleton")

# single-letter names: CLI shorthand, and the competitor blocks of table1
BOUND_ALIASES = {
    "g": "griesmer",
    "h": "hamming",
    "l": "levenshtein",
    "e": "elias",
    "p": "plotkin",
    "s": "singleton",
}

# the competitor blocks of table1, in table order
BLOCKS = ("g", "h", "l", "e")


class FeasibilityVerdict(NamedTuple):
    """Outcome of one bound-A check at fixed (n, k, d, q).

    status is refuted only together with a witness: the smallest i whose
    inequality fails, plus the offending lhs/rhs pair.
    """

    status: str
    witness: Optional[int] = None
    lhs: Optional[int] = None
    rhs: Optional[int] = None

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED


class BoundResult(NamedTuple):
    """Per-bound answer for one query: a dimension cap, and for size-based
    bounds also the cap on the number of codewords it was derived from.

    witness is Elias's minimizing radius w.  refutation is bound A's verdict
    at k_max + 1, the dimension its cap blocks, when k_max + 1 <= n - 1; it
    is None on every other result.
    """

    bound_id: str
    k_max: Optional[int]
    size_max: Optional[int] = None
    witness: Optional[int] = None
    refutation: Optional[FeasibilityVerdict] = None


def bound_a_check(n: int, k: int, d: int, q: int, variant: str = VARIANT_WEIGHT) -> FeasibilityVerdict:
    """Test every admissible i of the counting inequality at fixed dimension k.

    Not applicable unless n > k > 2 and d >= 3.  Otherwise, for each i with
    1 <= i <= (d-1)//2 compares lhs = C(k, i)(q-1)**i against the tail mass
    over m = n - k positions with minimum weight d - i (variant "weight":
    sum C(m, j)(q-1)**j; variant "literal": (q-1)**i * sum C(m, j)).  Returns
    the first violated i as the refutation witness.

    The per-i terms are updated by ratio rather than recomputed, so a full
    check costs O(n) big-integer operations.
    """
    check_query(n, d, q)
    check_variant(variant)
    if k < 1:
        raise ValueError(f"dimension must be positive, got k={k}")
    if k <= 2 or k >= n or d < 3:
        return FeasibilityVerdict(NOT_APPLICABLE)

    # Both variants read rhs = outside * sum_{j=d-i..m} C(m, j) unit**j, with
    # unit = q - 1 and outside = 1 ("weight"), or unit = 1 and outside =
    # (q-1)**i ("literal").  As i rises the lower limit walks down, so the sum
    # gains terms; term is its summand at the next j to add.
    m = n - k
    unit = q - 1 if variant == VARIANT_WEIGHT else 1
    term = unit ** m
    tail = 0
    j = m
    outside = 1
    lhs = k * (q - 1)  # C(k, 1)(q-1)**1
    for i in range(1, (d - 1) // 2 + 1):
        outside *= (q - 1) // unit
        while j >= d - i:
            tail += term
            term = term * j // ((m - j + 1) * unit)
            j -= 1
        rhs = outside * tail
        if lhs > rhs:
            return FeasibilityVerdict(REFUTED, witness=i, lhs=lhs, rhs=rhs)
        lhs = lhs * (k - i) * (q - 1) // (i + 1)
    return FeasibilityVerdict(FEASIBLE)


def _bound_a_cap(n: int, d: int, q: int, variant: str) -> int:
    """Largest k in 3..n-1 with C(k, t) unit**t <= (1 + unit)**(n-k), where
    t = (d-1)//2 and unit is as in bound_a_check; 2 when there is none.

    At i = t bound_a_check compares C(k, t)(q-1)**t with outside * tail,
    where outside * unit**t = (q-1)**t and the tail is at most its sum over
    every weight, (1 + unit)**(n-k).  So every k above the cap is refuted at
    some i <= t.  The left side does not fall as k grows and the right side
    falls, so the inequality holds on a prefix of 3..n-1 and is bisected.
    """
    t = (d - 1) // 2
    unit = q - 1 if variant == VARIANT_WEIGHT else 1
    lhs_unit = unit ** t
    lo, hi = 3, n - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if comb(mid, t) * lhs_unit > (1 + unit) ** (n - mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return hi


def bound_a_max_k(n: int, d: int, q: int, variant: str = VARIANT_WEIGHT) -> int:
    """Largest k in 3..n-1 not refuted by bound A; 2 when even k = 3 fails.

    Dimensions k <= 2 are outside the bound's guard and can never be
    constrained, hence the floor of 2.  Refutation is monotone in k (the lhs
    grows, the tail shrinks), so the answer is found by search.  Every k
    above _bound_a_cap is refuted without a check, and unless d is large
    (about 0.4 n and up) the answer is the cap or one below it, so those two
    are probed first; only when both are refuted is 3..cap-2 bisected.
    """
    check_query(n, d, q)
    if d < 3:
        raise ValueError(f"bound A needs d >= 3, got d={d}")
    if n < 4:
        raise ValueError(f"bound A needs n >= 4, got n={n}")
    check_variant(variant)
    cap = _bound_a_cap(n, d, q, variant)
    for k in (cap, cap - 1):
        # k = 2 is reached only when every k >= 3 is refuted
        if k < 3 or not bound_a_check(n, k, d, q, variant).refuted:
            return k
    # every k below lo is feasible, every k above hi refuted
    lo, hi = 3, cap - 2
    while lo <= hi:
        mid = (lo + hi) // 2
        if bound_a_check(n, mid, d, q, variant).refuted:
            hi = mid - 1
        else:
            lo = mid + 1
    return hi


def griesmer_max_k(n: int, d: int, q: int) -> int:
    """Largest k >= 1 with sum_{i=0..k-1} ceil(d / q**i) <= n (linear codes)."""
    check_query(n, d, q)
    total = 0
    k = 0
    power = 1
    while True:
        term = -(-d // power)  # ceil
        if total + term > n:
            return k
        total += term
        k += 1
        if term == 1:
            # every further term is 1: the remaining room is n - total
            return k + (n - total)
        power *= q


def singleton_max_k(n: int, d: int) -> int:
    """k <= n - d + 1 for any code."""
    check_distance(n, d)
    return n - d + 1


def hamming_max_size(n: int, d: int, q: int) -> int:
    """Sphere-packing cap floor(q**n / V_q(n, (d-1)//2)) on the codeword count."""
    check_query(n, d, q)
    t = (d - 1) // 2
    return q ** n // sphere_volume(n, t, q)


def plotkin_max_size(n: int, d: int, q: int) -> Optional[int]:
    """floor(d / (d - (1 - 1/q) n)) when d exceeds (1 - 1/q) n, else None.

    Scaled by q: floor(qd / (qd - (q-1)n)), applicable iff qd > (q-1)n.
    """
    check_query(n, d, q)
    excess = q * d - (q - 1) * n
    if excess <= 0:
        return None
    return q * d // excess


def elias_max_size(n: int, d: int, q: int) -> tuple[int, int]:
    """Smallest floored Elias cap over admissible radii, with the witness w.

    For each integer w with 0 <= w <= r and w**2 - 2rw + rd > 0 (r = (1-1/q)n)
    the cap is (rd / (w**2 - 2rw + rd)) * q**n / V_q(n, w); the minimum over w
    is returned together with the smallest w attaining it.  w = 0 is always
    admissible, so the bound always applies.

    Scaled by q, with a = (q-1)n = qr: the cap is
    a*d*q**n / ((q*w*w - 2*a*w + a*d) * V_q(n, w)) for q*w <= a, and w is
    admissible when q*w*w - 2*a*w + a*d > 0.  From w to w + 1 that
    denominator changes by q(2w + 1) - 2a < 0 while q(w + 1) <= a, so the
    admissible radii form a prefix of 0..a//q and the scan stops at the
    first inadmissible one.
    """
    check_query(n, d, q)
    a = (q - 1) * n
    ad_qn = a * d * q ** n
    # w = 0: denom = a d and V = 1, so the cap is q**n
    best, best_w = q ** n, 0
    volume = term = 1  # term = C(n, w)(q-1)**w at current w
    for w in range(1, a // q + 1):
        term = term * (n - w + 1) * (q - 1) // w
        volume += term
        denom = q * w * w - 2 * a * w + a * d
        if denom <= 0:
            break
        floored = ad_qn // (denom * volume)
        if floored < best:
            best = floored
            best_w = w
    return best, best_w


def _eval_bound(bound_id: str, n: int, d: int, q: int, variant: str) -> BoundResult:
    """One known bound id at a checked query.  Bound A's result carries the
    refutation that blocks k_max + 1.  The size bounds share one result: a
    codeword cap M gives the dimension cap floor(log_q M)."""
    if bound_id == "a":
        if d < 3 or n < 4:
            return BoundResult("a", None)
        k = bound_a_max_k(n, d, q, variant)
        return BoundResult("a", k, refutation=bound_a_check(n, k + 1, d, q, variant) if k + 1 < n else None)
    if bound_id == "griesmer":
        return BoundResult("griesmer", griesmer_max_k(n, d, q))
    if bound_id == "singleton":
        return BoundResult("singleton", singleton_max_k(n, d))
    w = None
    if bound_id == "hamming":
        size = hamming_max_size(n, d, q)
    elif bound_id == "plotkin":
        size = plotkin_max_size(n, d, q)
    elif bound_id == "elias":
        size, w = elias_max_size(n, d, q)
    else:
        size = levenshtein_max_size(n, d, q)
    if size is None:  # Plotkin does not apply
        return BoundResult(bound_id, None)
    return BoundResult(bound_id, floor_log_q(size, q), size_max=size, witness=w)


def best_upper_k(
    n: int,
    d: int,
    q: int,
    bounds: Iterable[str] = BOUND_IDS,
    variant: str = VARIANT_WEIGHT,
) -> tuple[list[BoundResult], Optional[int]]:
    """Evaluate each selected bound and report the minimum applicable cap.

    Results come back in deterministic (alphabetical) bound-id order; a bound
    that does not apply contributes a k_max of None without failing the query.
    """
    check_query(n, d, q)
    selected = set(bounds)
    unknown = selected.difference(BOUND_IDS)
    if unknown:
        raise ValueError(f"unknown bound ids: {sorted(unknown)}")
    results = [_eval_bound(b, n, d, q, variant) for b in sorted(selected, key=BOUND_IDS.index)]
    applicable = [r.k_max for r in results if r.k_max is not None]
    return results, (min(applicable) if applicable else None)
