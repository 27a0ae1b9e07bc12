"""Input checks and exact counting primitives shared by every layer.

Each input rule (alphabet, distance, query, tail-mass variant, enumeration
budget) is checked by one function here, with one message, which every
layer that takes that input calls.  The counting primitives work on plain
Python integers (arbitrary precision); nothing here ever touches floating
point, so results stay bit-exact for lengths in the hundreds where q**n has
thousands of bits.

Every function is a pure function of its arguments and safe to call from any
number of threads.
"""

from math import comb

__all__ = [
    "VARIANT_WEIGHT",
    "VARIANT_LITERAL",
    "VARIANTS",
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
    "check_alphabet",
    "check_budget",
    "check_distance",
    "check_query",
    "check_variant",
    "sphere_volume",
    "floor_log_q",
]

VARIANT_WEIGHT = "weight"
VARIANT_LITERAL = "literal"
VARIANTS = (VARIANT_WEIGHT, VARIANT_LITERAL)

# the oracle's enumeration budget, here so that the CLI can name it without
# loading the oracle and numpy
DEFAULT_BUDGET = 10_000_000


class EnumerationBudgetError(RuntimeError):
    """Raised when an exhaustive sweep would exceed the code budget."""


def check_budget(budget: int) -> None:
    """Reject an enumeration budget below one code."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")


def check_alphabet(q: int) -> None:
    """Reject an alphabet of fewer than two symbols."""
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got q={q}")


def check_distance(n: int, d: int) -> None:
    """Reject a distance outside 1..n."""
    if not 1 <= d <= n:
        raise ValueError(f"distance must satisfy 1 <= d <= n, got d={d}, n={n}")


def check_query(n: int, d: int, q: int) -> None:
    """Reject a query (length n, distance d, alphabet q) that no bound takes."""
    check_alphabet(q)
    if n < 1:
        raise ValueError(f"length must be positive, got n={n}")
    check_distance(n, d)


def check_variant(variant: str) -> None:
    """Reject a reading of the tail mass other than the two in VARIANTS."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def sphere_volume(n: int, r: int, q: int) -> int:
    """Number of q-ary words within Hamming distance r of a fixed word."""
    check_alphabet(q)
    if r < 0 or r > n:
        raise ValueError(f"radius must satisfy 0 <= r <= n, got r={r}, n={n}")
    return sum(comb(n, j) * (q - 1) ** j for j in range(r + 1))


def floor_log_q(M: int, q: int) -> int:
    """Largest k with q**k <= M.  M must be at least 1."""
    check_alphabet(q)
    if M < 1:
        raise ValueError(f"floor_log_q is undefined for M < 1, got M={M}")
    # climb by repeated squaring, then refine
    k = 0
    power = 1
    step_pows = []
    p, e = q, 1
    while power * p <= M:
        power *= p
        k += e
        step_pows.append((p, e))
        p, e = p * p, e * 2
    for p, e in reversed(step_pows):
        if power * p <= M:
            power *= p
            k += e
    return k
