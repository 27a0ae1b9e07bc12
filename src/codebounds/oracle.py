"""Brute-force ground truth at tiny scale.

Enumerates systematic codes (linear ones via standard-form generator matrices
[I | T], nonlinear ones as arbitrary prefix-to-tail assignments), computes
exact minimum distances, and checks the counting mechanics that the dimension
bound rests on: translation invariance, and the injection from weight-i
message prefixes to tails of weight >= d - i.

Enumerations are deterministic (tails in ascending mixed-radix order) and
guarded by an explicit budget; a sweep that would exceed it raises rather
than silently truncating, so soundness claims never rest on a partial scan.
The budget must be at least 1.  The alphabet must be prime here
(vector-space arithmetic mod q); the bound formulas themselves do not care.

The refutation cross-check searches without building a code per candidate.
Its linear phase computes the best distance and its first witness once per
(n, k, q), and every refuted d reuses them.  Its nonlinear phase is a
complete depth-first search over prefix-to-tail assignments that skips only
the partial assignments already holding a pair closer than d; it finds the
same first code, in enumeration order, as scanning every systematic code.
Both phases run under the same budget guards as the enumerations, and the
linear phase also counts the entries of its message-by-column table.
"""

from dataclasses import dataclass, field
from functools import cache
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


def _symbol_distance(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(u, v) if a != b)


def hamming_distance(u: Word, v: Word) -> int:
    """Number of coordinates where u and v differ."""
    _check_compatible(u, v)
    return _symbol_distance(u.symbols, v.symbols)


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
            dist = _symbol_distance(sa, ws[b].symbols)
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


def _within_budget(exponent: int, q: int, budget: int) -> bool:
    """Whether q**exponent codes fit in the budget."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return exponent <= floor_log_q(budget, q)


def _linear_count_within(n: int, k: int, q: int, budget: int) -> int:
    exponent = k * (n - k)
    if not _within_budget(exponent, q, budget):
        raise EnumerationBudgetError(
            f"enumerating q**(k(n-k)) = {q}**{exponent} standard-form codes exceeds the budget of {budget}"
        )
    return q ** exponent


def _nonlinear_within(n: int, k: int, q: int, budget: int) -> bool:
    """Whether all (q**(n-k))**(q**k) = q**((n-k) q**k) systematic codes fit
    in the budget."""
    return _within_budget((n - k) * q ** k, q, budget)


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


@cache
def _best_d_vectorized(n: int, k: int, q: int) -> tuple[int, int]:
    """Exhaustive max-over-tails of the minimum nonzero codeword weight,
    returning (best distance, index of the first attaining tail matrix).

    A pure function of (n, k, q), computed once per process.  Works
    column-wise: a tail adds weight through each of its m columns
    independently, so one (messages x possible-columns) nonzero table covers
    every code.  The weights of every tuple of the trailing columns are built
    once by broadcasting; each outer step adds the nonzero vector of one
    choice of the leading columns and takes the minimum over messages.  The
    nonzero table has (q**k - 1) x q**k entries, which best_linear_d_witness
    counts against the budget; no other array exceeds (messages x chunk).
    Tail matrices are indexed row-major, so among the attaining column tuples
    the witness is the one with the smallest row-major index.
    """
    m = n - k
    qk = q ** k
    msgs = np.array([msg for msg in _all_messages(k, q) if any(msg)], dtype=np.int64)
    msg_w = np.count_nonzero(msgs, axis=1).astype(np.uint8)
    cols = np.array(_all_messages(k, q), dtype=np.int64)  # column c has index sum c_r q**(k-1-r)
    nonzero = ((msgs @ cols.T) % q != 0).astype(np.uint8)  # (messages, qk)
    chunk = max(256, min(1 << 15, 50_000_000 // (msgs.shape[0] + 1)))
    inner = m
    while qk ** inner > chunk:
        inner -= 1
    # a column's entries, placed at their row-major positions in a one-column tail
    spread = cols @ np.array([q ** ((k - 1 - r) * m) for r in range(k)], dtype=np.int64)
    # weights and row-major index parts of every tuple of the last `inner` columns
    wts = msg_w[:, None]
    inner_idx = np.zeros(1, dtype=np.int64)
    for _ in range(inner):
        wts = (wts[:, :, None] + nonzero[:, None, :]).reshape(msgs.shape[0], -1)
        inner_idx = (inner_idx[:, None] * q + spread[None, :]).reshape(-1)
    best_d = 0
    best_idx = 0
    for lead in product(range(qk), repeat=m - inner):
        lead_idx = 0
        for c in lead:
            lead_idx = lead_idx * q + int(spread[c])
        code_min = (wts + nonzero[:, list(lead)].sum(axis=1, dtype=np.uint8)[:, None]).min(axis=0)
        step_d = int(code_min.max())
        if step_d < best_d:
            continue
        step_idx = lead_idx * q ** inner + int(inner_idx[code_min == step_d].min())
        if step_d > best_d or step_idx < best_idx:
            best_d, best_idx = step_d, step_idx
    return best_d, best_idx


def best_linear_d(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Best achievable minimum distance over all standard-form (n, k) codes."""
    return best_linear_d_witness(n, k, q, budget)[0]


def best_linear_d_witness(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> tuple[int, StandardFormGenerator]:
    """Best achievable minimum distance over all standard-form (n, k) codes,
    with the first generator (in enumeration order) that attains it.

    Besides the codes, the search holds one entry per nonzero message and
    column, (q**k - 1) x q**k in all, and that count must fit in the budget too.
    """
    if not _is_prime(q):
        raise ValueError(f"linear enumeration needs a prime alphabet, got q={q}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    _linear_count_within(n, k, q, budget)
    if (q ** k - 1) * q ** k > budget:
        raise EnumerationBudgetError(
            f"the search's {q ** k - 1} x {q ** k} message-by-column table exceeds the budget of {budget}"
        )
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
    if not _nonlinear_within(n, k, q, budget):
        raise EnumerationBudgetError(
            f"enumerating (q**{m})**(q**{k}) systematic codes exceeds the budget of {budget}"
        )
    prefixes = _all_messages(k, q)
    tails = _all_messages(m, q)

    def gen() -> Iterator[Code]:
        for assignment in product(tails, repeat=len(prefixes)):
            words = tuple(Word(p + t, q) for p, t in zip(prefixes, assignment))
            yield Code(q, n, words, systematic_k=k)

    return gen()


def _first_nonlinear_code(n: int, k: int, d: int, q: int) -> Optional[Code]:
    """The first code of enumerate_systematic_nonlinear(n, k, q) with minimum
    distance >= d, or None when there is none.

    Depth-first search assigning tails to prefixes in enumeration order,
    each prefix trying tails in ascending order.  The distance of two words
    is the prefix distance plus the tail distance, so a partial assignment
    holding a pair a < b with P[a][b] + T[t_a][t_b] < d has no completion
    reaching d; only those are skipped, so the search is complete.  No budget
    check here: callers guard it like the enumeration.
    """
    prefixes = _all_messages(k, q)
    tails = _all_messages(n - k, q)
    pdist = [[_symbol_distance(u, v) for v in prefixes] for u in prefixes]
    tdist = [[_symbol_distance(u, v) for v in tails] for u in tails]
    chosen: list[int] = []

    def extend(b: int) -> bool:
        if b == len(prefixes):
            return True
        need = [(tdist[t], d - pdist[a][b]) for a, t in enumerate(chosen)]
        for t in range(len(tails)):
            if all(row[t] >= lo for row, lo in need):
                chosen.append(t)
                if extend(b + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    words = tuple(Word(p + tails[t], q) for p, t in zip(prefixes, chosen))
    return Code(q, n, words, systematic_k=k)


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

    Requires bound_a_check(n, k, d, q, variant) to be a refutation.  Searches
    all standard-form linear codes (and all nonlinear systematic codes when
    the budget allows) and returns "confirmed" if none attains minimum
    distance >= d, else a contradicting code: the witness of
    best_linear_d_witness, or failing that the first nonlinear code in
    enumeration order.
    """
    verdict = bound_a_check(n, k, d, q, variant)
    if not verdict.refuted:
        raise ValueError(f"({n}, {k}, {d}) over q={q} is not refuted; nothing to cross-check")
    best, gen = best_linear_d_witness(n, k, q, budget=budget)
    if best >= d:
        return gen.code()
    if _nonlinear_within(n, k, q, budget):
        code = _first_nonlinear_code(n, k, d, q)
        if code is not None:
            return code
    return CONFIRMED
