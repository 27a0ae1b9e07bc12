"""Exhaustive search at tiny scale: the ground truth behind bound A's refutations.

Codes are systematic: linear ones come from standard-form generator matrices
[I | T] (StandardFormGenerator), nonlinear ones are arbitrary prefix-to-tail
assignments.  min_distance measures a Code, and refutation_crosscheck
confirms a bound-A refutation by searching every systematic code at its
(n, k, q).

Searches are deterministic (tails in ascending mixed-radix order) and
guarded by an explicit budget; a search that would exceed it raises rather
than silently truncating, so soundness claims never rest on a partial scan.
The budget must be at least 1.  The alphabet must be prime here
(vector-space arithmetic mod q); the bound formulas themselves do not care.
check_linear_alphabet refuses an alphabet larger than the budget before the
prime test.

The refutation cross-check searches without building a code per candidate.
Its linear phase computes the best distance and its first witness once per
(n, k, q), and every refuted d reuses them.  Its nonlinear phase is a
complete depth-first search over prefix-to-tail assignments that skips only
the partial assignments already holding a pair closer than d; it finds the
same first code, in enumeration order, as scanning every systematic code.
Both phases run under the budget guards, and the linear phase also counts
the entries of its message-by-column table.
"""

from dataclasses import dataclass
from functools import cache
from itertools import product
from math import isqrt
from typing import Optional

import numpy as np

from .bounds import bound_a_check
from .exactmath import (
    DEFAULT_BUDGET,
    VARIANT_WEIGHT,
    EnumerationBudgetError,
    check_alphabet,
    check_budget,
    floor_log_q,
)

__all__ = [
    "Word",
    "Code",
    "StandardFormGenerator",
    "min_distance",
    "check_linear_alphabet",
    "best_linear_d_witness",
    "refutation_crosscheck",
    "CONFIRMED",
]

CONFIRMED = "confirmed"


def _check_systematic(n: int, k: int, q: int) -> None:
    check_alphabet(q)
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")


def _check_prime(q: int) -> None:
    """A prime alphabet, for arithmetic mod q."""
    if q < 2 or any(q % f == 0 for f in range(2, isqrt(q) + 1)):
        raise ValueError(f"linear enumeration needs a prime alphabet, got q={q}")


def check_linear_alphabet(q: int, budget: int) -> None:
    """An alphabet that a search over standard-form codes can take.

    With 1 <= k < n there are at least q such codes, so an alphabet larger
    than the budget is refused first, before the prime test's trial division
    up to sqrt(q).
    """
    if q > budget:
        check_budget(budget)
        raise EnumerationBudgetError(
            f"enumerating at least q = {q} standard-form codes exceeds the budget of {budget}"
        )
    _check_prime(q)


@dataclass(frozen=True)
class Word:
    """A q-ary vector; symbols are residues in [0, q)."""

    symbols: tuple[int, ...]
    q: int

    def __post_init__(self) -> None:
        check_alphabet(self.q)
        if any(not 0 <= s < self.q for s in self.symbols):
            raise ValueError(f"symbols must lie in [0, {self.q})")

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def weight(self) -> int:
        return sum(1 for s in self.symbols if s)


def _symbol_distance(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(u, v) if a != b)


@dataclass(frozen=True)
class Code:
    """A finite set of distinct equal-length q-ary words.

    systematic_k = k asserts that projecting onto the first k coordinates is
    a bijection onto all q**k prefixes; the constructor verifies it.
    """

    q: int
    n: int
    words: tuple[Word, ...]
    systematic_k: Optional[int] = None

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


def min_distance(code: Code) -> int:
    """Minimum pairwise distance, computed over every pair of words."""
    if len(code) < 2:
        raise ValueError("minimum distance needs at least two words")
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
        _check_prime(self.q)
        _check_systematic(self.n, self.k, self.q)
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
        return Code(self.q, self.n, words, systematic_k=self.k)


def _tail_matrix(index: int, k: int, m: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The k x m tail matrix whose entries, read row-major, are the base-q
    digits of index, most significant first."""
    flat = []
    for _ in range(k * m):
        index, digit = divmod(index, q)
        flat.append(digit)
    flat.reverse()
    return tuple(tuple(flat[r * m:(r + 1) * m]) for r in range(k))


def _within_budget(exponent: int, q: int, budget: int) -> bool:
    """Whether q**exponent codes fit in the budget."""
    check_budget(budget)
    return exponent <= floor_log_q(budget, q)


def _linear_count_within(n: int, k: int, q: int, budget: int) -> int:
    """The number q**(k(n-k)) of standard-form codes, once q passes
    check_linear_alphabet, 1 <= k < n, and the count fits in the budget."""
    check_linear_alphabet(q, budget)
    _check_systematic(n, k, q)
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


def best_linear_d_witness(n: int, k: int, q: int, budget: int = DEFAULT_BUDGET) -> tuple[int, StandardFormGenerator]:
    """Best achievable minimum distance over all standard-form (n, k) codes,
    with the first generator (in enumeration order) that attains it.

    Besides the codes, the search holds one entry per nonzero message and
    column, (q**k - 1) x q**k in all, and that count must fit in the budget too.
    """
    _linear_count_within(n, k, q, budget)
    if (q ** k - 1) * q ** k > budget:
        raise EnumerationBudgetError(
            f"the search's {q ** k - 1} x {q ** k} message-by-column table exceeds the budget of {budget}"
        )
    d, idx = _best_d_vectorized(n, k, q)
    return d, StandardFormGenerator(q, k, n, _tail_matrix(idx, k, n - k, q))


def _first_nonlinear_code(n: int, k: int, d: int, q: int) -> Optional[Code]:
    """The first systematic code with minimum distance >= d, or None when
    there is none.

    Codes are ordered as their tuples of tails, one per prefix with the
    prefixes in ascending order, compared lexicographically.  Depth-first
    search assigning tails to prefixes in that order, each prefix trying
    tails in ascending order.  The distance of two words is the prefix
    distance plus the tail distance, so a partial assignment holding a pair
    a < b with P[a][b] + T[t_a][t_b] < d has no completion reaching d; only
    those are skipped, so the search is complete.  No budget check here:
    callers check _nonlinear_within first.
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
