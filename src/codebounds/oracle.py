"""Brute-force ground truth at tiny scale.

Enumerates systematic codes (linear ones via standard-form generator matrices
[I | T], nonlinear ones as arbitrary prefix-to-tail assignments), computes
exact minimum distances, and checks the counting mechanics that the dimension
bound rests on: translation invariance, and the injection from weight-i
message prefixes to tails of weight >= d - i.

Enumerations are deterministic (tails in ascending mixed-radix order) and
guarded by an explicit budget; a sweep that would exceed it raises rather
than silently truncating, so soundness claims never rest on a partial scan.
The alphabet must be prime here (vector-space arithmetic mod q); the bound
formulas themselves do not care.
"""

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Optional

import numpy as np

from .bounds import bound_a_check
from .exactmath import VARIANT_WEIGHT, floor_log_q

__all__ = [
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
    "Word",
    "Code",
    "StandardFormGenerator",
    "hamming_distance",
    "weight",
    "min_distance",
    "enumerate_linear_systematic",
    "best_linear_d",
    "enumerate_systematic_nonlinear",
    "translate_code",
    "verify_injection_property",
    "refutation_crosscheck",
    "InjectionReport",
    "CONFIRMED",
]

DEFAULT_BUDGET = 10_000_000

CONFIRMED = "confirmed"


class EnumerationBudgetError(RuntimeError):
    """Raised when an exhaustive sweep would exceed the code budget."""


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class Word:
    """A q-ary vector; symbols are residues in [0, q)."""

    symbols: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"alphabet size must be at least 2, got q={self.q}")
        if any(not 0 <= s < self.q for s in self.symbols):
            raise ValueError(f"symbols must lie in [0, {self.q})")

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def weight(self) -> int:
        return sum(1 for s in self.symbols if s)


def _check_compatible(u: Word, v: Word) -> None:
    if len(u) != len(v) or u.q != v.q:
        raise ValueError("words have mismatched length or alphabet")


def hamming_distance(u: Word, v: Word) -> int:
    """Number of coordinates where u and v differ."""
    _check_compatible(u, v)
    return sum(1 for a, b in zip(u.symbols, v.symbols) if a != b)


def weight(u: Word) -> int:
    """Hamming weight: distance to the zero word."""
    return u.weight


@dataclass(frozen=True)
class Code:
    """A finite set of distinct equal-length q-ary words.

    systematic_k = k asserts that projecting onto the first k coordinates is
    a bijection onto all q**k prefixes; the constructor verifies it.  linear
    marks codes built from a generator matrix, enabling the minimum-weight
    shortcut in min_distance.
    """

    q: int
    n: int
    words: tuple[Word, ...]
    systematic_k: Optional[int] = None
    linear: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        for w in self.words:
            if len(w) != self.n or w.q != self.q:
                raise ValueError("all words must share the code's length and alphabet")
        if len(set(w.symbols for w in self.words)) != len(self.words):
            raise ValueError("code contains duplicate words")
        k = self.systematic_k
        if k is not None:
            if not 1 <= k <= self.n:
                raise ValueError(f"systematic_k must lie in 1..n, got {k}")
            prefixes = set(w.symbols[:k] for w in self.words)
            if len(prefixes) != len(self.words) or len(self.words) != self.q ** k:
                raise ValueError("prefix projection is not a bijection onto all prefixes")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: Word) -> bool:
        return any(w.symbols == c.symbols and w.q == c.q for c in self.words)

    @property
    def contains_zero(self) -> bool:
        return any(w.weight == 0 for w in self.words)

    def distance_multiset(self) -> tuple[int, ...]:
        """Sorted multiset of all pairwise distances."""
        ws = self.words
        return tuple(sorted(
            hamming_distance(ws[a], ws[b])
            for a in range(len(ws))
            for b in range(a + 1, len(ws))
        ))


def min_distance(code: Code) -> int:
    """Minimum pairwise distance; minimum nonzero weight for linear codes.

    The weight shortcut is only taken for codes that carry the linear flag;
    everything else gets the full pairwise computation.
    """
    if len(code) < 2:
        raise ValueError("minimum distance needs at least two words")
    if code.linear:
        return min(w.weight for w in code.words if w.weight > 0)
    best = code.n + 1
    ws = code.words
    for a in range(len(ws)):
        sa = ws[a].symbols
        for b in range(a + 1, len(ws)):
            sb = ws[b].symbols
            dist = sum(1 for x, y in zip(sa, sb) if x != y)
            if dist < best:
                best = dist
    return best


def _all_messages(k: int, q: int) -> list[tuple[int, ...]]:
    return list(product(range(q), repeat=k))


@dataclass(frozen=True)
class StandardFormGenerator:
    """Generator matrix [I_k | tail] over a prime field; rows span the code
    { (v, v @ tail) : v in F_q**k } with arithmetic mod q."""

    q: int
    k: int
    n: int
    tail: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not _is_prime(self.q):
            raise ValueError(f"generator arithmetic needs a prime alphabet, got q={self.q}")
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if len(self.tail) != self.k or any(len(r) != self.n - self.k for r in self.tail):
            raise ValueError("tail must be a k x (n-k) matrix")
        if any(not 0 <= e < self.q for r in self.tail for e in r):
            raise ValueError("tail entries must be residues mod q")

    def encode(self, message: tuple[int, ...]) -> Word:
        m = self.n - self.k
        tail = [0] * m
        for vi, row in zip(message, self.tail):
            if vi:
                for j in range(m):
                    tail[j] += vi * row[j]
        return Word(tuple(message) + tuple(t % self.q for t in tail), self.q)

    def code(self) -> Code:
        words = tuple(self.encode(msg) for msg in _all_messages(self.k, self.q))
        return Code(self.q, self.n, words, systematic_k=self.k, linear=True)


def _digits(value: int, base: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(value % base)
        value //= base
    return tuple(reversed(out))


def _linear_count_within(n: int, k: int, q: int, budget: int) -> int:
    exponent = k * (n - k)
    if exponent > floor_log_q(budget, q):
        raise EnumerationBudgetError(
            f"enumerating q**(k(n-k)) = {q}**{exponent} standard-form codes exceeds the budget of {budget}"
        )
    return q ** exponent


def enumerate_linear_systematic(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> Iterator[Code]:
    """Yield every standard-form linear code, one per tail matrix, in
    ascending mixed-radix order of the tail entries."""
    if not _is_prime(q):
        raise ValueError(f"linear enumeration needs a prime alphabet, got q={q}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    count = _linear_count_within(n, k, q, budget)
    m = n - k

    def gen() -> Iterator[Code]:
        for idx in range(count):
            flat = _digits(idx, q, k * m)
            tail = tuple(flat[r * m:(r + 1) * m] for r in range(k))
            yield StandardFormGenerator(q, k, n, tail).code()

    return gen()


def _best_d_vectorized(n: int, k: int, q: int) -> tuple[int, int]:
    """Exhaustive max-over-tails of the minimum nonzero codeword weight,
    returning (best distance, index of the first attaining tail matrix).

    Works column-wise: a tail contributes weight through each of its m
    columns independently, so one (messages x possible-columns) nonzero table
    covers every code; per tail it only remains to gather and add.
    """
    m = n - k
    qk = q ** k
    total = q ** (k * m)
    msgs = np.array([msg for msg in _all_messages(k, q) if any(msg)], dtype=np.int64)
    msg_w = np.count_nonzero(msgs, axis=1).astype(np.uint8)
    cols = np.array(_all_messages(k, q), dtype=np.int64)  # column c has index sum c_r q**(k-1-r)
    nonzero = ((msgs @ cols.T) % q != 0).astype(np.uint8)  # (messages, qk)
    chunk = max(256, min(1 << 15, 50_000_000 // (msgs.shape[0] + 1)))
    best_d = 0
    best_idx = 0
    row_place = [q ** (k - 1 - r) for r in range(k)]
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        rem = np.arange(start, stop, dtype=np.int64)
        col_idx = np.zeros((m, stop - start), dtype=np.int64)
        # digits come off least-significant first: position p = r*m + j
        for p in range(k * m - 1, -1, -1):
            digit = rem % q
            rem //= q
            col_idx[p % m] += digit * row_place[p // m]
        wts = np.repeat(msg_w[:, None], stop - start, axis=1)
        for j in range(m):
            wts += nonzero[:, col_idx[j]]
        code_min = wts.min(axis=0)
        local = int(code_min.argmax())
        if int(code_min[local]) > best_d:
            best_d = int(code_min[local])
            best_idx = start + local
        start = stop
    return best_d, best_idx


def best_linear_d(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Best achievable minimum distance over all standard-form (n, k) codes."""
    return best_linear_d_witness(n, k, q, budget)[0]


def best_linear_d_witness(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> tuple[int, StandardFormGenerator]:
    """Best achievable minimum distance over all standard-form (n, k) codes,
    with the first generator (in enumeration order) that attains it."""
    if not _is_prime(q):
        raise ValueError(f"linear enumeration needs a prime alphabet, got q={q}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    _linear_count_within(n, k, q, budget)
    m = n - k
    d, idx = _best_d_vectorized(n, k, q)
    flat = _digits(idx, q, k * m)
    tail = tuple(flat[r * m:(r + 1) * m] for r in range(k))
    return d, StandardFormGenerator(q, k, n, tail)


def enumerate_systematic_nonlinear(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> Iterator[Code]:
    """Yield every systematic code: one tail choice per message prefix."""
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got q={q}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    m = n - k
    prefix_count = q ** k
    exponent = m * prefix_count  # (q**m) ** (q**k) = q ** (m q**k)
    if exponent > floor_log_q(budget, q):
        raise EnumerationBudgetError(
            f"enumerating (q**{m})**(q**{k}) systematic codes exceeds the budget of {budget}"
        )
    prefixes = _all_messages(k, q)
    tails = _all_messages(m, q)

    def gen() -> Iterator[Code]:
        for assignment in product(tails, repeat=prefix_count):
            words = tuple(Word(p + t, q) for p, t in zip(prefixes, assignment))
            yield Code(q, n, words, systematic_k=k)

    return gen()


def translate_code(code: Code, t: Word) -> Code:
    """Subtract t coordinate-wise (mod q) from every word.

    Distances are translation invariant and the prefix projection stays a
    bijection, so systematic_k is preserved.  The zero word appears in the
    result exactly when t was a codeword.  Linearity of the word set is not
    preserved in general, so the translated code always drops the shortcut
    flag and is measured pairwise.
    """
    if len(t) != code.n or t.q != code.q:
        raise ValueError("translation word has mismatched length or alphabet")
    q = code.q
    words = tuple(
        Word(tuple((a - b) % q for a, b in zip(w.symbols, t.symbols)), q)
        for w in code.words
    )
    return Code(q, code.n, words, systematic_k=code.systematic_k)


@dataclass(frozen=True)
class InjectionReport:
    """Outcome of the prefix-to-tail injection check at one systematic weight."""

    status: str  # "pass" | "not-applicable" | "counterexample"
    offending: Optional[tuple[Word, ...]] = None


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
    if not code.contains_zero:
        raise ValueError("injection check needs the zero word in the code")
    d = min_distance(code)
    if d < 2 * i + 1:
        return InjectionReport("not-applicable")
    k = code.systematic_k
    chosen = [w for w in code.words if sum(1 for s in w.symbols[:k] if s) == i]
    seen: dict[tuple[int, ...], Word] = {}
    for w in chosen:
        tail = w.symbols[k:]
        if sum(1 for s in tail if s) < d - i:
            return InjectionReport("counterexample", (w,))
        if tail in seen:
            return InjectionReport("counterexample", (seen[tail], w))
        seen[tail] = w
    return InjectionReport("pass")


def refutation_crosscheck(
    n: int,
    k: int,
    d: int,
    q: int,
    variant: str = VARIANT_WEIGHT,
    budget: int = DEFAULT_BUDGET,
) -> str | Code:
    """Exhaustively confirm a refutation: no systematic code can reach d.

    Requires bound_a_check(n, k, d, q, variant) to be a refutation.  Sweeps
    all standard-form linear codes (and all nonlinear systematic codes when
    the budget allows) and returns "confirmed" if none attains minimum
    distance >= d, else the contradicting code.
    """
    verdict = bound_a_check(n, k, d, q, variant)
    if not verdict.refuted:
        raise ValueError(f"({n}, {k}, {d}) over q={q} is not refuted; nothing to cross-check")
    best, gen = best_linear_d_witness(n, k, q, budget=budget)
    if best >= d:
        return gen.code()
    m = n - k
    if m * q ** k <= floor_log_q(budget, q):
        for code in enumerate_systematic_nonlinear(n, k, q, budget=budget):
            if min_distance(code) >= d:
                return code
    return CONFIRMED
