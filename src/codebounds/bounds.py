"""Feasibility predicates and max-dimension computations for code bounds.

The central bound ("bound A") refutes the existence of an (n, k, q) systematic
code of minimum distance >= d by counting: vectors of weight i in the message
block must map injectively to tails of weight >= d - i, so for every i with
1 <= i <= (d-1)//2 the count C(k, i)(q-1)**i cannot exceed the tail mass.
Classical comparison bounds (Griesmer, Singleton, Hamming, Plotkin, Elias,
Levenshtein) are implemented alongside it, all in exact integer arithmetic:
every rational cap is a ratio of integers floored with one integer division.

BOUNDS, at the end of this module, is the one place where a bound is
registered: it maps the bound's id to its single-letter alias, the codes it
holds for, and its evaluator.  A scope is one of SYSTEMATIC (bound A:
systematic codes, linear or not), LINEAR (Griesmer: linear codes only) or
EVERY_CODE (the other five).  BOUND_IDS and BOUND_ALIASES are read off the
table.
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
    "SYSTEMATIC",
    "LINEAR",
    "EVERY_CODE",
    "BOUNDS",
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
    "best_upper_row",
]

FEASIBLE = "feasible"
REFUTED = "refuted"
NOT_APPLICABLE = "not-applicable"

# the codes a bound holds for, its scope in BOUNDS
SYSTEMATIC = "systematic"
LINEAR = "linear"
EVERY_CODE = "every code"


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
    at k_max + 1, the dimension its cap blocks, wherever A applies (n >= 4,
    d >= 3); it is None on every other result.
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

    This is the one loop over the inequality.  The per-i terms are updated
    by ratio rather than recomputed, so a full check costs O(n) big-integer
    operations, and a check ends at its own witness.
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
            return FeasibilityVerdict(REFUTED, i, lhs, rhs)
        lhs = lhs * ((k - i) * (q - 1)) // (i + 1)
    return FeasibilityVerdict(FEASIBLE)


def _bound_a_cap(n: int, d: int, q: int, variant: str) -> int:
    """Largest k in 3..n-d+1 with C(k, t) unit**t <= (1 + unit)**(n-k), where
    t = (d-1)//2 and unit is as in bound_a_check; 2 when there is none.

    Every k above the cap is refuted by bound_a_check.  Above n - d + 1
    (Singleton's bound) the n - k < d - 1 tail positions cannot carry weight
    d - 1, so the tail is empty at i = 1.  Elsewhere, at i = t the check
    compares C(k, t)(q-1)**t with outside * tail, where outside * unit**t =
    (q-1)**t and the tail is at most its sum over every weight,
    (1 + unit)**(n-k).  The left side does not fall as k grows and the right
    side falls, so the inequality holds on a prefix of 3..n-d+1 and is
    bisected.
    """
    t = (d - 1) // 2
    unit = q - 1 if variant == VARIANT_WEIGHT else 1
    lhs_unit = unit ** t
    lo, hi = 3, max(2, n - d + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        if comb(mid, t) * lhs_unit > (1 + unit) ** (n - mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return hi


def bound_a_max_k(n: int, d: int, q: int,
                  variant: str = VARIANT_WEIGHT) -> tuple[int, FeasibilityVerdict]:
    """Largest k in 3..n-1 not refuted by bound A (2 when even k = 3 fails),
    with bound_a_check's verdict at that k + 1, which blocks it.

    Dimensions k <= 2 are outside the bound's guard and can never be
    constrained, hence the floor of 2.  Refutation is monotone in k (the lhs
    grows, the tail shrinks) and every k above _bound_a_cap is refuted, so
    the search checks the cap, cap - 1, ... down to the first k that
    bound_a_check does not refute, or to the floor; the verdict that blocks
    the answer is that of the step before.  When the cap stands, it comes
    from one more check at cap + 1, which is at most n - d + 2 <= n - 1; a
    cap of 2 is the check at 3 alone.  On every cell tested the answer is at
    most 2 below the cap, so a call makes at most three checks.
    """
    check_query(n, d, q)
    if d < 3:
        raise ValueError(f"bound A needs d >= 3, got d={d}")
    if n < 4:
        raise ValueError(f"bound A needs n >= 4, got n={n}")
    check_variant(variant)
    k = _bound_a_cap(n, d, q, variant)
    blocked = None
    while k >= 3 and (verdict := bound_a_check(n, k, d, q, variant)).refuted:
        k, blocked = k - 1, verdict
    return k, blocked or bound_a_check(n, k + 1, d, q, variant)


def griesmer_max_k(n: int, d: int, q: int) -> int:
    """Largest k >= 1 with sum_{i=0..k-1} ceil(d / q**i) <= n (linear codes)."""
    check_query(n, d, q)
    total = k = 0
    power = 1
    while (term := -(-d // power)) > 1:  # ceil
        if total + term > n:
            return k
        total += term
        k += 1
        power *= q
    # every further term is 1, and total <= n: the remaining room is n - total
    return k + n - total


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

    Scaled by q, with a = (q-1)n = qr: the cap is a*d*q**n / x_w,
    x_w = (q*w*w - 2*a*w + a*d) * V_q(n, w), for q*w <= a, and w is
    admissible when q*w*w - 2*a*w + a*d > 0.  From w to w + 1 that
    denominator changes by q(2w + 1) - 2a < 0 while q(w + 1) <= a, so the
    admissible radii form a prefix of 0..a//q and the scan stops at the
    first inadmissible one.  Each admissible radius's cap is floored as the
    scan reaches it, and the first smallest is kept with its w.
    """
    check_query(n, d, q)
    a = (q - 1) * n
    ad_qn = a * d * q ** n
    best = best_w = None
    volume, term = 0, 1  # V_q(n, w - 1) and C(n, w)(q-1)**w
    for w in range(a // q + 1):
        denom = q * w * w - 2 * a * w + a * d
        if denom <= 0:
            break
        volume += term
        cap = ad_qn // (denom * volume)
        if best is None or cap < best:
            best, best_w = cap, w
        term = term * ((n - w) * (q - 1)) // (w + 1)
    return best, best_w


def _bound_a(n: int, d: int, q: int, variant: str) -> BoundResult:
    """Bound A's result carries the refutation that blocks k_max + 1, as
    bound_a_max_k returns it: no check is made here."""
    if d < 3 or n < 4:
        return BoundResult("a", None)
    k, blocked = bound_a_max_k(n, d, q, variant)
    return BoundResult("a", k, refutation=blocked)


def _sized(bound_id: str, q: int, size: Optional[int], witness: Optional[int] = None) -> BoundResult:
    """A codeword cap M gives the dimension cap floor(log_q M); a size of
    None, Plotkin's outside its range, gives none."""
    k = None if size is None else floor_log_q(size, q)
    return BoundResult(bound_id, k, size, witness)


# id -> (alias, scope, evaluate): the bound's single-letter alias (None for
# A), the codes it holds for, and evaluate(n, d, q, variant), its BoundResult
# at a checked query.  Key order is evaluation order, alphabetical so reports
# are deterministic.  Each evaluator names its bound function as a module
# global, looked up at call time, so a wrapper installed on this module with
# setattr is called.
BOUNDS = {
    "a": (None, SYSTEMATIC, _bound_a),
    "elias": ("e", EVERY_CODE, lambda n, d, q, v: _sized("elias", q, *elias_max_size(n, d, q))),
    "griesmer": ("g", LINEAR, lambda n, d, q, v: BoundResult("griesmer", griesmer_max_k(n, d, q))),
    "hamming": ("h", EVERY_CODE, lambda n, d, q, v: _sized("hamming", q, hamming_max_size(n, d, q))),
    "levenshtein": ("l", EVERY_CODE,
                    lambda n, d, q, v: _sized("levenshtein", q, levenshtein_max_size(n, d, q))),
    "plotkin": ("p", EVERY_CODE, lambda n, d, q, v: _sized("plotkin", q, plotkin_max_size(n, d, q))),
    "singleton": ("s", EVERY_CODE, lambda n, d, q, v: BoundResult("singleton", singleton_max_k(n, d))),
}

BOUND_IDS = tuple(BOUNDS)

# single-letter names: CLI shorthand, and the competitor blocks of table1
BOUND_ALIASES = {alias: bound_id for bound_id, (alias, _, _) in BOUNDS.items() if alias}

# the competitor blocks of table1, in table order, by alias; kept here so that
# the CLI reads them without loading golden
BLOCKS = ("g", "h", "l", "e")


def best_upper_row(n: int, ds: Iterable[int], q: int, bounds: Iterable[str] = BOUND_IDS,
                   variant: str = VARIANT_WEIGHT) -> list[tuple[list[BoundResult], Optional[int]]]:
    """best_upper_k at each d of ds in turn, with the bounds resolved once.

    An unknown bound id, and then an unknown variant, is refused once,
    before any cell, so even an empty row raises for it.  Then each d's
    query is checked, and every selected bound evaluated, before the next d
    is read, so a bad query raises what the first cell to meet it would
    raise alone.
    """
    selected = set(bounds)
    if unknown := selected.difference(BOUNDS):
        raise ValueError(f"unknown bound ids: {sorted(unknown)}")
    check_variant(variant)
    evaluators = [evaluate for b, (_, _, evaluate) in BOUNDS.items() if b in selected]
    row = []
    for d in ds:
        check_query(n, d, q)
        results = [evaluate(n, d, q, variant) for evaluate in evaluators]
        applicable = [r.k_max for r in results if r.k_max is not None]
        row.append((results, min(applicable) if applicable else None))
    return row


def best_upper_k(n: int, d: int, q: int, bounds: Iterable[str] = BOUND_IDS,
                 variant: str = VARIANT_WEIGHT) -> tuple[list[BoundResult], Optional[int]]:
    """Evaluate each selected bound and report the minimum applicable cap:
    best_upper_row with the one distance d.

    Results come back in the order of BOUNDS, alphabetical by id; a bound
    that does not apply contributes a k_max of None without failing the query.
    An unknown bound id, and then an unknown variant, is refused before the
    query is checked, whichever bounds are selected.
    """
    return best_upper_row(n, (d,), q, bounds, variant)[0]
