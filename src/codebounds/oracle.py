"""Exhaustive search at tiny scale: the ground truth behind bound A's refutations.

Codes are systematic: linear ones come from standard-form generator matrices
[I | T], nonlinear ones are arbitrary prefix-to-tail assignments.  Answers
are plain values: a word is a tuple of symbols in [0, q), a code is the
tuple of its words with their prefixes in ascending order, and a
standard-form code is given by its tail T, a tuple of k rows.  min_distance
measures a code, and refutation_crosscheck confirms a bound-A refutation by
searching every systematic code at its (n, k, q).

Searches are deterministic (tails in ascending mixed-radix order) and
guarded by an explicit budget; a search that would exceed it raises rather
than silently truncating, so soundness claims never rest on a partial scan.
The budget must be at least 1.  The alphabet must be prime here
(vector-space arithmetic mod q); the bound formulas themselves do not care.
check_linear_alphabet refuses an alphabet larger than the budget before the
prime test.

The searches build no code per candidate.  The linear one is a depth-first
search over the rows of the tail that finds the first code reaching a given
d; best_linear_d_witness (oracle best-d) runs it for d counting down from
the Singleton bound.  The nonlinear one is a complete depth-first search
over prefix-to-tail assignments that skips only the partial assignments
already holding a pair closer than d.  Each finds the same first code, in
enumeration order, as scanning every code of its kind.  Every search passes
the linear search's budget guards first, which also bound the span of up to
q**k codewords that the linear search checks every candidate row against.

The cross-check runs one search per refuted triple, chosen by the budget:
the nonlinear search where all systematic codes fit in it, since every
standard-form code is one of them, and the linear search at the refuted d
elsewhere.  It returns None when the search finds no code, else the words
of the first code it finds.
"""

from collections.abc import Iterator
from itertools import combinations, product
from math import isqrt
from typing import Optional

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
    "min_distance",
    "check_linear_alphabet",
    "best_linear_d_witness",
    "refutation_crosscheck",
]


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


def _symbol_distance(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(u, v) if a != b)


def min_distance(words: tuple[tuple[int, ...], ...]) -> int:
    """Minimum pairwise distance of a code's words, over every pair."""
    if len(words) < 2:
        raise ValueError("minimum distance needs at least two words")
    return min(_symbol_distance(u, v) for u, v in combinations(words, 2))


def _all_messages(k: int, q: int) -> list[tuple[int, ...]]:
    return list(product(range(q), repeat=k))


def _encode(tail: tuple[tuple[int, ...], ...], q: int) -> tuple[tuple[int, ...], ...]:
    """The words (v, v @ tail mod q) of the standard-form code with this
    tail, one per message v, in ascending order of v."""
    columns = list(zip(*tail))
    return tuple(v + tuple(sum(a * b for a, b in zip(v, col)) % q for col in columns)
                 for v in _all_messages(len(tail), q))


def _linear_count_within(n: int, k: int, q: int, budget: int) -> None:
    """Refuse the search unless q passes check_linear_alphabet, 1 <= k < n,
    and the q**(k(n-k)) standard-form codes fit in the budget.

    (q**k - 1) x q**k, one per ordered pair of distinct codewords, must fit
    too: the linear search checks each candidate row against the span of the
    rows before it, up to q**k codewords.
    """
    check_linear_alphabet(q, budget)
    _check_systematic(n, k, q)
    exponent = k * (n - k)
    if exponent > floor_log_q(budget, q):
        raise EnumerationBudgetError(
            f"enumerating q**(k(n-k)) = {q}**{exponent} standard-form codes exceeds the budget of {budget}"
        )
    if (q ** k - 1) * q ** k > budget:
        raise EnumerationBudgetError(
            f"the search's {q ** k - 1} x {q ** k} codeword pairs exceed the budget of {budget}"
        )


def _nonlinear_within(n: int, k: int, q: int, budget: int) -> bool:
    """Whether all (q**(n-k))**(q**k) = q**((n-k) q**k) systematic codes fit
    in the budget, once _linear_count_within has passed."""
    return (n - k) * q ** k <= floor_log_q(budget, q)


def _first_linear_tail(n: int, k: int, d: int, q: int) -> Optional[tuple[tuple[int, ...], ...]]:
    """The first standard-form tail, in row-major order, whose code has
    minimum distance >= d, or None when there is none.

    Depth-first search over the rows of the tail, each row trying tails in
    ascending order.  A codeword whose last nonzero message symbol sits in
    row r is a nonzero multiple of e_r plus a message on the earlier rows, so
    its weight is pw + 1 + dist(t, s) for the row t and some codeword
    (pw, s), prefix weight and tail, of the span of the earlier rows, zero
    included.  A row is built one coordinate at a time and dropped as soon
    as that sum cannot reach d for some such codeword, which loses no code
    that reaches d.  Permuting the rows or scaling one moves only prefix
    coordinates and gives a tail no later in the order, so the first code
    has ascending rows, each zero or with leading nonzero entry 1, and only
    those are tried.  No budget check here: callers check the span's size
    first.
    """
    m = n - k

    def extend(rows: tuple, span: list, row: tuple, spare: list[int], entries: Iterator[int]):
        """The state with row extended by the next entry that keeps every
        codeword far enough, or None when no entry left does."""
        # spare[i]: coordinates in which row may still agree with span[i]'s tail
        j = len(row)
        for a in entries:
            left = [x - (s[j] == a) for x, (_, s) in zip(spare, span)]
            if min(left) >= 0:
                return rows, span, row + (a,), left
        return None

    # one frame per entry of the tail built so far, each with the entries
    # it has still to try, so the depth is not bounded by the call stack
    stack: list[tuple] = []
    rows, span, row, spare = (), [(0, (0,) * m)], (), [1 + m - d]
    while True:
        while len(row) == m:  # a complete row joins the tail, and the next starts empty
            rows += (row,)
            if len(rows) == k:
                return rows
            span = [(pw + (c > 0), tuple((x + c * y) % q for x, y in zip(s, row)))
                    for c in range(q) for pw, s in span]
            row, spare = (), [pw + 1 + m - d for pw, _ in span]
        j = len(row)
        tight = rows and row == rows[-1][:j]
        stack.append((rows, span, row, spare, iter(range(rows[-1][j] if tight else 0, q if any(row) else 2))))
        while (child := extend(*stack[-1])) is None:
            stack.pop()
            if not stack:
                return None
        rows, span, row, spare = child


def best_linear_d_witness(n: int, k: int, q: int,
                          budget: int = DEFAULT_BUDGET) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Best achievable minimum distance over all standard-form (n, k) codes,
    with the tail of the first generator (in enumeration order) that attains
    it.

    Counts down from the Singleton bound n - k + 1 to the first d that some
    code reaches, under the guards of _linear_count_within.
    """
    _linear_count_within(n, k, q, budget)
    d = n - k + 1
    while (tail := _first_linear_tail(n, k, d, q)) is None:
        d -= 1
    return d, tail


def _first_nonlinear_code(n: int, k: int, d: int, q: int) -> Optional[tuple[tuple[int, ...], ...]]:
    """The words of the first systematic code with minimum distance >= d, or
    None when there is none.

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
    return tuple(p + tails[t] for p, t in zip(prefixes, chosen))


def refutation_crosscheck(
    n: int,
    k: int,
    d: int,
    q: int,
    variant: str = VARIANT_WEIGHT,
    budget: int = DEFAULT_BUDGET,
) -> Optional[tuple[tuple[int, ...], ...]]:
    """Exhaustively confirm a refutation: no systematic code can reach d.

    Requires bound_a_check(n, k, d, q, variant) to be a refutation, and the
    guards of _linear_count_within.  Runs one search: where all nonlinear
    systematic codes fit in the budget, the first of them with minimum
    distance >= d (every standard-form code is among them); elsewhere the
    first standard-form code with minimum distance >= d.  The nonlinear
    count fitting implies the linear guards pass, as q**k >= 2k, so running
    those guards first refuses nothing more.  Returns None when the search
    finds no code, else the words of the first code in that search's own
    order, not necessarily a best linear code.
    """
    if not bound_a_check(n, k, d, q, variant).refuted:
        raise ValueError(f"({n}, {k}, {d}) over q={q} is not refuted; nothing to cross-check")
    _linear_count_within(n, k, q, budget)
    if _nonlinear_within(n, k, q, budget):
        return _first_nonlinear_code(n, k, d, q)
    tail = _first_linear_tail(n, k, d, q)
    return None if tail is None else _encode(tail, q)
