"""Brute-force reference definitions that the package is checked against.

The exact primitives are written here the slow, literal way: binomial and
weight_count by their counting formulas, tail_mass in both readings of bound
A's right-hand side, krawtchouk as the explicit alternating sum, and the
Elias cap over every radius up to r.  The package's fast paths (bound A's
incremental tail walk, the Krawtchouk recurrences, the coefficient check of
the Levenshtein bound and the Elias scan that stops at its last admissible
radius) are compared with them.

The oracle references wrap the oracle's plain answers, where a word is a
tuple of symbols and a code the tuple of its words, in two validated
records: Code, whose words must be distinct, of one length, with symbols in
[0, q), and whose prefixes must be a bijection when it is systematic, and
StandardFormGenerator, a generator matrix [I | T] that encodes its own
code.  They enumerate systematic codes one Code at a time: linear ones via
standard-form generator matrices, nonlinear ones as arbitrary
prefix-to-tail assignments.  With them the tests check the counting
mechanics that the dimension bound rests on: translation invariance, and the
injection from weight-i message prefixes to tails of weight >= d - i.
Enumerations are deterministic (tails in ascending mixed-radix order) and
guarded by the oracle's budget; a sweep that would exceed it raises rather
than silently truncating.

Every input rule comes from the package's shared guards, so no rule has a
second copy here.  Nothing is imported from codebounds.bounds or
codebounds.levenshtein, the code these definitions are the reference for.
"""

from dataclasses import dataclass
from itertools import product
from math import comb, factorial
from typing import Iterator, Optional

from codebounds.exactmath import (
    DEFAULT_BUDGET,
    VARIANT_WEIGHT,
    EnumerationBudgetError,
    check_alphabet,
    check_budget,
    check_query,
    check_variant,
)
from codebounds.oracle import (
    _all_messages,
    _check_prime,
    _check_systematic,
    _linear_count_within,
    _nonlinear_within,
    best_linear_d_witness,
    min_distance,
)


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


def tail_mass(m: int, lo: int, q: int, variant: str = VARIANT_WEIGHT, i: int = 0) -> int:
    """Size of the tail set counted on the right-hand side of the dimension bound.

    variant "weight" counts all length-m vectors of weight >= lo, i.e.
    sum_{j=lo..m} C(m, j)(q-1)**j.  variant "literal" instead evaluates
    (q-1)**i * sum_{j=lo..m} C(m, j), the printed form of the inequality in
    which the exponent is the systematic weight i rather than the running
    index j.  An empty range (lo > m) gives 0.
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


def elias_every_radius(n: int, d: int, q: int) -> tuple[int, int]:
    """Smallest floored Elias cap a*d*q**n // ((q*w*w - 2*a*w + a*d) * V_q(n, w))
    over every w with q*w <= a = (q-1)n whose denominator is positive, with
    the smallest w attaining it."""
    check_query(n, d, q)
    a = (q - 1) * n
    ad_qn = a * d * q ** n
    volume = 0
    term = 1  # C(n, w)(q-1)**w at current w
    best: Optional[int] = None
    best_w = 0
    w = 0
    while q * w <= a:
        if w:
            term = term * (n - w + 1) * (q - 1) // w
        volume += term
        denom = q * w * w - 2 * a * w + a * d
        if denom > 0:
            floored = ad_qn // (denom * volume)
            if best is None or floored < best:
                best = floored
                best_w = w
        w += 1
    assert best is not None  # w = 0 always admissible
    return best, best_w


Words = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Code:
    """A finite set of distinct equal-length q-ary words, each a tuple of
    symbols in [0, q).

    systematic_k = k asserts that projecting onto the first k coordinates is
    a bijection onto all q**k prefixes; the constructor verifies it.
    """

    q: int
    n: int
    words: Words
    systematic_k: Optional[int] = None

    def __post_init__(self) -> None:
        check_alphabet(self.q)
        for w in self.words:
            if len(w) != self.n:
                raise ValueError("all words must share the code's length")
            if any(not 0 <= s < self.q for s in w):
                raise ValueError(f"symbols must lie in [0, {self.q})")
        if len(set(self.words)) != len(self.words):
            raise ValueError("code contains duplicate words")
        k = self.systematic_k
        if k is not None:
            if not 1 <= k <= self.n:
                raise ValueError(f"systematic_k must lie in 1..n, got {k}")
            prefixes = set(w[:k] for w in self.words)
            if len(prefixes) != len(self.words) or len(self.words) != self.q ** k:
                raise ValueError("prefix projection is not a bijection onto all prefixes")

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class StandardFormGenerator:
    """Generator matrix [I_k | tail] over a prime field; rows span the code
    { (v, v @ tail) : v in F_q**k } with arithmetic mod q."""

    q: int
    k: int
    n: int
    tail: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_prime(self.q)
        _check_systematic(self.n, self.k, self.q)
        if len(self.tail) != self.k or any(len(r) != self.n - self.k for r in self.tail):
            raise ValueError("tail must be a k x (n-k) matrix")
        if any(not 0 <= e < self.q for r in self.tail for e in r):
            raise ValueError("tail entries must be residues mod q")

    def encode(self, message: tuple[int, ...]) -> tuple[int, ...]:
        m = self.n - self.k
        tail = [0] * m
        for vi, row in zip(message, self.tail):
            if vi:
                for j in range(m):
                    tail[j] += vi * row[j]
        return tuple(message) + tuple(t % self.q for t in tail)

    def code(self) -> Code:
        words = tuple(self.encode(msg) for msg in _all_messages(self.k, self.q))
        return Code(self.q, self.n, words, systematic_k=self.k)


def hamming_distance(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Number of coordinates where u and v differ."""
    if len(u) != len(v):
        raise ValueError("words have mismatched length")
    return sum(1 for a, b in zip(u, v) if a != b)


def weight(u: tuple[int, ...]) -> int:
    """Hamming weight: distance to the zero word."""
    return sum(1 for s in u if s)


def contains(code: Code, w: tuple[int, ...]) -> bool:
    """Whether w is a word of the code."""
    return w in code.words


def contains_zero(code: Code) -> bool:
    """Whether the zero word is a word of the code."""
    return any(weight(w) == 0 for w in code.words)


def distance_multiset(code: Code) -> tuple[int, ...]:
    """Sorted multiset of all pairwise distances."""
    ws = code.words
    return tuple(sorted(
        hamming_distance(ws[a], ws[b])
        for a in range(len(ws))
        for b in range(a + 1, len(ws))
    ))


def _tail_matrix(index: int, k: int, m: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The k x m tail matrix whose entries, read row-major, are the base-q
    digits of index, most significant first."""
    flat = []
    for _ in range(k * m):
        index, digit = divmod(index, q)
        flat.append(digit)
    flat.reverse()
    return tuple(tuple(flat[r * m:(r + 1) * m]) for r in range(k))


def enumerate_linear_systematic(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> Iterator[Code]:
    """Yield every standard-form linear code, one per tail matrix, in
    ascending mixed-radix order of the tail entries."""
    _linear_count_within(n, k, q, budget)

    def gen() -> Iterator[Code]:
        for idx in range(q ** (k * (n - k))):
            yield StandardFormGenerator(q, k, n, _tail_matrix(idx, k, n - k, q)).code()

    return gen()


def best_linear_d(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Best achievable minimum distance over all standard-form (n, k) codes."""
    return best_linear_d_witness(n, k, q, budget)[0]


def enumerate_systematic_nonlinear(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> Iterator[Code]:
    """Yield every systematic code: one tail choice per message prefix."""
    _check_systematic(n, k, q)
    check_budget(budget)
    m = n - k
    if not _nonlinear_within(n, k, q, budget):
        raise EnumerationBudgetError(
            f"enumerating (q**{m})**(q**{k}) systematic codes exceeds the budget of {budget}"
        )
    prefixes = _all_messages(k, q)
    tails = _all_messages(m, q)

    def gen() -> Iterator[Code]:
        for assignment in product(tails, repeat=len(prefixes)):
            words = tuple(p + t for p, t in zip(prefixes, assignment))
            yield Code(q, n, words, systematic_k=k)

    return gen()


def translate_code(code: Code, t: tuple[int, ...]) -> Code:
    """Subtract t coordinate-wise (mod q) from every word.

    Distances are translation invariant and the prefix projection stays a
    bijection, so systematic_k is preserved.  The zero word appears in the
    result exactly when t was a codeword.
    """
    if len(t) != code.n:
        raise ValueError("translation word has mismatched length")
    q = code.q
    words = tuple(tuple((a - b) % q for a, b in zip(w, t)) for w in code.words)
    return Code(q, code.n, words, systematic_k=code.systematic_k)


@dataclass(frozen=True)
class InjectionReport:
    """Outcome of the prefix-to-tail injection check at one systematic weight."""

    status: str  # "pass" | "not-applicable" | "counterexample"
    offending: Optional[Words] = None


def verify_injection_property(code: Code, i: int) -> InjectionReport:
    """Check the two counting facts behind the dimension bound on one code.

    Requires a systematic code containing the zero word.  Not applicable
    unless the code's minimum distance d satisfies d >= 2i + 1.  Verifies
    that (a) every codeword whose prefix has weight i carries a tail of
    weight >= d - i, and (b) those codewords have pairwise distinct tails;
    either failure comes back as a counterexample with the offending words.
    """
    if code.systematic_k is None:
        raise ValueError("injection check needs a systematic code")
    if i < 1:
        raise ValueError(f"systematic weight must be positive, got {i}")
    if not contains_zero(code):
        raise ValueError("injection check needs the zero word in the code")
    d = min_distance(code.words)
    if d < 2 * i + 1:
        return InjectionReport("not-applicable")
    k = code.systematic_k
    chosen = [w for w in code.words if weight(w[:k]) == i]
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for w in chosen:
        tail = w[k:]
        if weight(tail) < d - i:
            return InjectionReport("counterexample", (w,))
        if tail in seen:
            return InjectionReport("counterexample", (seen[tail], w))
        seen[tail] = w
    return InjectionReport("pass")
