"""Exact counting primitives shared by every bound.

All values are plain Python integers (arbitrary precision); nothing here ever
touches floating point, so results stay bit-exact for lengths in the hundreds
where q**n has thousands of bits.

Every function is a pure function of its arguments and safe to call from any
number of threads.
"""

from math import comb, factorial

__all__ = [
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
    "check_alphabet",
    "check_distance",
    "check_query",
    "check_variant",
    "binomial",
    "weight_count",
    "sphere_volume",
    "tail_mass",
    "krawtchouk",
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


def binomial(m: int, r: int) -> int:
    """C(m, r), with the convention C(m, r) = 0 whenever r > m."""
    if m < 0 or r < 0:
        raise ValueError(f"binomial needs nonnegative arguments, got ({m}, {r})")
    return comb(m, r)


def weight_count(m: int, j: int, q: int) -> int:
    """Number of length-m vectors of Hamming weight j over a q-ary alphabet.

    Equals C(m, j) * (q-1)**j: choose the support, then a nonzero symbol per
    position.
    """
    check_alphabet(q)
    if j < 0:
        raise ValueError(f"weight must be nonnegative, got {j}")
    return comb(m, j) * (q - 1) ** j


def sphere_volume(n: int, r: int, q: int) -> int:
    """Number of q-ary words within Hamming distance r of a fixed word."""
    check_alphabet(q)
    if r < 0 or r > n:
        raise ValueError(f"radius must satisfy 0 <= r <= n, got r={r}, n={n}")
    return sum(weight_count(n, j, q) for j in range(r + 1))


def tail_mass(m: int, lo: int, q: int, variant: str = VARIANT_WEIGHT, i: int = 0) -> int:
    """Size of the tail set counted on the right-hand side of the dimension bound.

    variant "weight" counts all length-m vectors of weight >= lo, i.e.
    sum_{j=lo..m} C(m, j)(q-1)**j.  variant "literal" instead evaluates
    (q-1)**i * sum_{j=lo..m} C(m, j), the printed form of the inequality in
    which the exponent is the systematic weight i rather than the running
    index j.  Both are exposed because only one of them can be the intended
    reading and callers need to compare them.  An empty range (lo > m)
    gives 0.
    """
    check_alphabet(q)
    check_variant(variant)
    if i < 0:
        raise ValueError(f"systematic weight must be nonnegative, got {i}")
    lo = max(lo, 0)
    if lo > m:
        return 0
    if variant == VARIANT_WEIGHT:
        return sum(comb(m, j) * (q - 1) ** j for j in range(lo, m + 1))
    return (q - 1) ** i * sum(comb(m, j) for j in range(lo, m + 1))


def _poly_binomial(y: int, j: int) -> int:
    """C(y, j) as the degree-j polynomial y(y-1)...(y-j+1)/j!, any integer y."""
    num = 1
    for t in range(j):
        num *= y - t
    return num // factorial(j)


def krawtchouk(n: int, q: int, k: int, x: int) -> int:
    """Krawtchouk polynomial value K_k(x) for the q-ary Hamming scheme on n.

    K_k(x) = sum_j (-1)**j C(x, j) C(n-x, k-j) (q-1)**(k-j).  The binomials
    are evaluated as polynomials in x, so any integer point is accepted.
    """
    check_alphabet(q)
    if not 0 <= k <= n:
        raise ValueError(f"degree must satisfy 0 <= k <= n, got k={k}, n={n}")
    total = 0
    for j in range(k + 1):
        term = _poly_binomial(x, j) * _poly_binomial(n - x, k - j) * (q - 1) ** (k - j)
        total += -term if j & 1 else term
    return total


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
