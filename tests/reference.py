"""Brute-force reference definitions that the package is checked against.

The exact primitives are written here the slow, literal way: weight_count
by its counting formula over math.comb, tail_mass in both readings of bound
A's right-hand side, krawtchouk as the explicit alternating sum, and the
Elias cap over every radius up to r.  johnson_max_size is Johnson's binary
cap, which the package does not carry; the tests set it beside bound A.
The package's fast paths (bound A's incremental tail walk, the Krawtchouk
recurrences, the coefficient check of the Levenshtein bound and the Elias
scan that stops at its last admissible radius) are compared with them.

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

nordstrom_robinson builds a nonlinear code that no linear code of its
length and distance matches, from quadratic forms over GF(2), and
systematic_coordinates finds by search the coordinates on which a code is
systematic; together they give truth in bound A's scope beyond what the
enumerations reach.

Every input rule comes from the package's shared guards, so no rule has a
second copy here.  The one count stated here is the nonlinear
enumeration's, q**((n-k) q**k) codes within the budget: it takes any
alphabet, while check_search_budget returns that answer only past the
linear search's guards, a prime alphabet among them.  Nothing is imported
from codebounds.bounds or codebounds.levenshtein, the code these
definitions are the reference for, and codebounds.oracle, whose guards and
helpers are imported here, imports nothing from them either.
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
    floor_log_q,
)
from codebounds.oracle import (
    _all_messages,
    _check_prime,
    _check_systematic,
    check_search_budget,
    min_distance,
)


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


def johnson_max_size(n: int, d: int) -> int:
    """Johnson's (1962) cap on the size of a binary code of length n and
    minimum distance d (MacWilliams & Sloane ch. 17 §2), in exact integers.

    At d = 2t + 1, with f = n // (t + 1) and V the volume of a radius-t ball,
    A(n, d) <= 2**n f // (V f + C(n, t+1) - C(d, t) W), where W is an upper
    bound on the constant-weight A(n, d, d).  Johnson's recursion gives one:
    W(n, w) = n W(n-1, w-1) // w, with W = 1 at w = t.  A larger W only
    weakens the cap, and without the floors the recursion gives
    C(n, t+1) / C(d, t), so the denominator stays at least V f.  At even d,
    puncturing gives A(n, d) = A(n-1, d-1).
    """
    check_query(n, d, 2)
    if d % 2 == 0:
        return johnson_max_size(n - 1, d - 1)
    t = (d - 1) // 2
    w_cap = 1
    for w in range(t + 1, d + 1):  # W(n - d + w, w), up from W(n - d + t, t) = 1
        w_cap = (n - d + w) * w_cap // w
    f = n // (t + 1)
    volume = sum(comb(n, i) for i in range(t + 1))
    return 2 ** n * f // (volume * f + comb(n, t + 1) - comb(d, t) * w_cap)


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
        if not set(map(len, self.words)) <= {self.n}:
            raise ValueError("all words must share the code's length")
        # each distinct symbol is checked once
        if any(not 0 <= s < self.q for s in set().union(*self.words)):
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
        check_alphabet(self.q)
        _check_prime(self.q)
        _check_systematic(self.n, self.k)
        if len(self.tail) != self.k or any(len(r) != self.n - self.k for r in self.tail):
            raise ValueError("tail must be a k x (n-k) matrix")
        if any(not 0 <= e < self.q for r in self.tail for e in r):
            raise ValueError("tail entries must be residues mod q")

    def code(self) -> Code:
        """The q**k words in ascending order of their messages, each tail
        column built for every message at once: a message led by symbol a
        adds a times the column's first entry to its value at the rest of
        the message."""
        columns = []
        for column in zip(*self.tail):
            values = [0]
            for entry in reversed(column):
                values = [(a * entry + v) % self.q for a in range(self.q) for v in values]
            columns.append(values)
        words = tuple(msg + tail for msg, tail in zip(_all_messages(self.k, self.q), zip(*columns)))
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
    check_search_budget(n, k, q, budget)

    def gen() -> Iterator[Code]:
        for idx in range(q ** (k * (n - k))):
            yield StandardFormGenerator(q, k, n, _tail_matrix(idx, k, n - k, q)).code()

    return gen()


def enumerate_systematic_nonlinear(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> Iterator[Code]:
    """Yield every systematic code: one tail choice per message prefix, all
    (q**(n-k))**(q**k) = q**((n-k) q**k) of them within the budget."""
    check_alphabet(q)
    _check_systematic(n, k)
    check_budget(budget)
    m = n - k
    if m * q ** k > floor_log_q(budget, q):
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


# the entries above the diagonal of an alternating 4 x 4 matrix, in the
# order a matrix lists them
_UPPER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _kerdock_set() -> list[tuple[int, ...]]:
    """Eight alternating 4 x 4 matrices over GF(2), each given by its entries
    above the diagonal in _UPPER order, the zero matrix included, whose
    pairwise differences are nonsingular: the first such set in
    lexicographic order, found by backtracking.  An alternating 4 x 4
    matrix is nonsingular exactly when its Pfaffian
    b01 b23 + b02 b13 + b03 b12 is 1."""
    matrices = list(product((0, 1), repeat=len(_UPPER)))
    chosen = [matrices[0]]

    def pfaffian(b: tuple[int, ...]) -> int:
        return (b[0] & b[5]) ^ (b[1] & b[4]) ^ (b[2] & b[3])

    def extend(start: int) -> bool:
        if len(chosen) == 8:
            return True
        for i in range(start, len(matrices)):
            b = matrices[i]
            if all(pfaffian(tuple(x ^ y for x, y in zip(b, c))) for c in chosen):
                chosen.append(b)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    if not extend(1):
        raise AssertionError("no Kerdock set of 4 x 4 matrices found")
    return chosen


def nordstrom_robinson() -> Code:
    """The Nordstrom-Robinson code: 2**8 binary words of length 16 at
    minimum distance 6, twice the size of the best linear [16, 7, 6] code.

    Each matrix B of _kerdock_set gives the quadratic form
    Q_B(x) = sum_{i<j} B_ij x_i x_j on GF(2)**4; the code is the union, over
    the eight forms, of the cosets Q_B + RM(1, 4), a word listing its
    function's values at the 16 points of GF(2)**4 in lexicographic order.
    Two words of one coset differ by an affine function, in 8 or 16 places;
    two words of different cosets by a form of rank 4 plus an affine
    function, in 6 or 10 (MacWilliams & Sloane, ch. 15).
    """
    points = list(product((0, 1), repeat=4))
    words = []
    for b in _kerdock_set():
        form = [sum(bij & x[i] & x[j] for bij, (i, j) in zip(b, _UPPER)) & 1 for x in points]
        for *a, c in product((0, 1), repeat=5):
            words.append(tuple((f + c + sum(ai & xi for ai, xi in zip(a, x))) & 1
                               for f, x in zip(form, points)))
    return Code(2, 16, tuple(words))


def systematic_coordinates(code: Code, k: int) -> Optional[tuple[int, ...]]:
    """The first k-set of coordinates, in lexicographic order, on which the
    code's words project onto all q**k words, each once; None if there is
    none.

    The search runs depth-first over increasing coordinates, and extends a
    partial set only while every pattern on it is met by the same number of
    words, as it is on every subset of a systematic set.
    """
    if len(code) != code.q ** k:
        return None

    def balanced(coords: tuple[int, ...]) -> bool:
        counts: dict[tuple[int, ...], int] = {}
        for w in code.words:
            pattern = tuple(w[i] for i in coords)
            counts[pattern] = counts.get(pattern, 0) + 1
        return len(counts) == code.q ** len(coords) and len(set(counts.values())) == 1

    def search(coords: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        if len(coords) == k:
            return coords
        for i in range(coords[-1] + 1 if coords else 0, code.n - k + len(coords) + 1):
            if balanced(coords + (i,)):
                found = search(coords + (i,))
                if found is not None:
                    return found
        return None

    return search(())
