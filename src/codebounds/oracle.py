"""Exhaustive search at tiny scale: the ground truth behind bound A's refutations.

Codes are systematic: linear ones come from standard-form generator matrices
[I | T], nonlinear ones are arbitrary prefix-to-tail assignments.  Answers
are plain values: a word is a tuple of symbols in [0, q), a code is the
tuple of its words with their prefixes in ascending order, and a
standard-form code is given by its tail T, a tuple of k rows.  min_distance
measures a code, and refutation_crosscheck searches every systematic code
at an (n, k, q) for one reaching d.  The module imports nothing of the
bounds: the searches are a source of truth independent of bound A, which
only oracle refute-check sets beside them.  No search calls min_distance;
it stays public because README's examples, tests/reference.py and the
tests' walks over whole families measure codes with it, and bench/tracer.py
wraps it.

Searches are deterministic (tails in ascending mixed-radix order) and
guarded by an explicit budget; a search that would exceed it raises rather
than silently truncating, so soundness claims never rest on a partial scan.
The budget must be at least 1.  The alphabet must be prime here
(vector-space arithmetic mod q); the bound formulas themselves do not care.
check_linear_alphabet is the one alphabet guard of both oracle commands: it
refuses q < 2, then an alphabet larger than the budget, then a composite
one.

The searches build no code per candidate and no table, and both run on one
loop, _first_leaf: a depth-first walk on its own stack, one level per tail
entry in the linear search and one per prefix in the nonlinear search, so
neither depends on the recursion limit.  A search is the function that
gives a node's children, and holds only its path.  The linear one walks the
rows of the tail to the first code reaching a given d; best_linear_d_witness
(oracle best-d) runs it for d counting down from the Singleton bound.  The
nonlinear one is a complete search over prefix-to-tail assignments that
tries tails as tuples, compares each pair of words when the walk reaches
it, skips the partial assignments already holding a pair closer than d,
and fixes two symmetries: tail 0 at prefix 0, and a tail 0...01...1 at
prefix 0...01.  Each finds the same first code, in enumeration order, as
scanning every code of its kind.  Every search passes the budget guard
check_search_budget first, which also bounds the span of up to q**(k-1)
codewords that the linear search checks every candidate row against: the
k-th row ends the tail before it would join the span.

The guard also returns the search it admits, so the budget is read once
per search: True where all systematic codes fit in it, and False where only
the standard-form codes do.  The cross-check runs the search it names: the
nonlinear search on True, since every standard-form code is one of the
systematic codes, and the linear search at d on False.
It returns None when the search finds no code, else the words of the first
code it finds.  oracle refute-check confirms a refuted triple by such a
search, or from a triple it has confirmed: by d-monotonicity (a code
reaching d reaches every smaller d), by puncturing (an (n, k) code reaching
d gives an (n-1, k) code reaching d-1) or by shortening (it gives an
(n-1, k-1) code reaching d).  The bench's q = 3 box confirms its 33
refutations with 2 searches.
"""

from itertools import combinations, product
from math import isqrt
from operator import mul, ne
from typing import Optional

from .exactmath import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    check_alphabet,
    check_budget,
    check_query,
    floor_log_q,
)

__all__ = [
    "min_distance",
    "check_linear_alphabet",
    "check_search_budget",
    "best_linear_d_witness",
    "refutation_crosscheck",
]


def _check_systematic(n: int, k: int) -> None:
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")


def _check_prime(q: int) -> None:
    """A prime alphabet, for arithmetic mod q, given q >= 2."""
    if any(q % f == 0 for f in range(2, isqrt(q) + 1)):
        raise ValueError(f"linear enumeration needs a prime alphabet, got q={q}")


def check_linear_alphabet(q: int, budget: int) -> None:
    """An alphabet that a search over standard-form codes can take: the one
    alphabet guard of both oracle commands.

    It checks q >= 2 first, as every command does.  With 1 <= k < n there
    are at least q such codes, so an alphabet larger than the budget is
    refused next, before the prime test's trial division up to sqrt(q).
    """
    check_alphabet(q)
    if q > budget:
        check_budget(budget)
        raise EnumerationBudgetError(
            f"enumerating at least q = {q} standard-form codes exceeds the budget of {budget}"
        )
    _check_prime(q)


def _symbol_distance(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(map(ne, u, v))


def min_distance(words: tuple[tuple[int, ...], ...]) -> int:
    """Minimum pairwise distance of a code's words, over every pair."""
    if len(words) < 2:
        raise ValueError("minimum distance needs at least two words")
    return min(_symbol_distance(u, v) for u, v in combinations(words, 2))


def _all_messages(k: int, q: int) -> list[tuple[int, ...]]:
    return list(product(range(q), repeat=k))


def check_search_budget(n: int, k: int, q: int, budget: int) -> bool:
    """The budget guard of every search at (n, k), which also names the
    search it admits: refuse the search unless q passes
    check_linear_alphabet, 1 <= k < n, and the q**(k(n-k)) standard-form
    codes fit in the budget; then return whether all
    (q**(n-k))**(q**k) = q**((n-k) q**k) systematic codes fit too, True
    where the nonlinear search is admitted and False where only the linear
    one is.

    (q**k - 1) x q**k, one per ordered pair of distinct codewords, must fit
    too: the linear search checks each candidate row against the span of the
    rows before it, up to q**(k-1) codewords, as the k-th row ends the tail
    before it would join the span.  The exponent (n-k) q**k is larger at
    (n, k) than at (n-1, k) and at (n-1, k-1), so where the answer is True
    at (n, k) it is True at both.
    """
    check_linear_alphabet(q, budget)
    _check_systematic(n, k)
    exponent, log = k * (n - k), floor_log_q(budget, q)
    if exponent > log:
        raise EnumerationBudgetError(
            f"enumerating q**(k(n-k)) = {q}**{exponent} standard-form codes exceeds the budget of {budget}"
        )
    if (q ** k - 1) * q ** k > budget:
        raise EnumerationBudgetError(
            f"the search's {q ** k - 1} x {q ** k} codeword pairs exceed the budget of {budget}"
        )
    return (n - k) * q ** k <= log


def _first_leaf(root, children):
    """The first node, depth first, at which children(node) is None, or None
    when there is none.

    Each node's children come in the order they are to be tried.  The walk
    keeps its own stack of child iterators, one per level, so its depth is
    not bounded by the interpreter's recursion limit.
    """
    stack = [iter((root,))]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif (kids := children(node)) is None:
            return node
        else:
            stack.append(iter(kids))
    return None


def _first_linear_tail(n: int, k: int, d: int, q: int) -> Optional[tuple[tuple[int, ...], ...]]:
    """The first standard-form tail, in row-major order, whose code has
    minimum distance >= d, or None when there is none.

    Depth-first search over the rows of the tail, each row trying tails in
    ascending order, on _first_leaf: a node is the rows so far, the span of
    their codewords, the row being built and its spare agreements, and one
    level of the walk is one tail entry.  A codeword whose last nonzero
    message symbol sits in row r is a nonzero multiple of e_r plus a message
    on the earlier rows, so its weight is pw + 1 + dist(t, s) for the row t
    and some codeword (pw, s), prefix weight and tail, of the span of the
    earlier rows, zero included.  A row is built one coordinate at a time and
    dropped as soon as that sum cannot reach d for some such codeword, which
    loses no code that reaches d.  Permuting the rows or scaling one moves
    only prefix coordinates and gives a tail no later in the order, so the
    first code has ascending rows, each zero or with leading nonzero entry 1,
    and only those are tried.  No budget check here: callers check the
    span's size first.
    """
    m = n - k

    def children(node: tuple):
        rows, span, row, spare = node
        if len(row) == m:  # a complete row ends the tail, or joins it and the next starts empty
            if len(rows) == k - 1:
                return None
            rows += (row,)
            span = [(pw + (c > 0), tuple((x + c * y) % q for x, y in zip(s, row)))
                    for c in range(q) for pw, s in span]
            row, spare = (), [pw + 1 + m - d for pw, _ in span]
        # spare[i]: coordinates in which row may still agree with span[i]'s tail
        j = len(row)
        first = rows[-1][j] if rows and row == rows[-1][:j] else 0
        lefts = ((a, [x - (s[j] == a) for x, (_, s) in zip(spare, span)])
                 for a in range(first, q if any(row) else 2))
        return ((rows, span, row + (a,), left) for a, left in lefts if min(left) >= 0)

    leaf = _first_leaf(((), [(0, (0,) * m)], (), [1 + m - d]), children)
    return None if leaf is None else leaf[0] + (leaf[2],)


def best_linear_d_witness(n: int, k: int, q: int,
                          budget: int = DEFAULT_BUDGET) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Best achievable minimum distance over all standard-form (n, k) codes,
    with the tail of the first generator (in enumeration order) that attains
    it.

    Counts down from the Singleton bound n - k + 1 to the first d that some
    code reaches, under the guards of check_search_budget; it runs the
    linear search whatever search the guard admits.
    """
    check_search_budget(n, k, q, budget)
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
    tails in ascending order, as product(range(q), repeat=n-k) gives them.
    The distance of two words is the prefix distance plus the tail distance,
    so a partial assignment holding a pair a < b with
    dist(p_a, p_b) + dist(t_a, t_b) < d has no completion reaching d; those
    are skipped.  Each pair is compared when the walk reaches it, so the
    search holds only its path: no table of distances, no list of tails.

    Prefix 0 tries only the tail (0,) * (n-k), and prefix 0...01 only the
    tails (0,) * (n-k-w) + (1,) * w, 0...01...1 of w ones, of which those
    with w >= d - 1 pass the distance check.  This loses no code, and not
    the first one: translating every tail by one vector keeps every
    distance, and so do permuting the tail coordinates and permuting the
    nonzero symbols within one coordinate; each keeps the prefixes, so the
    code stays systematic.  Translating the first code by its tail at prefix
    0 would give tail 0 there, which is first of all tails, so that tail is
    already 0.  Then the tail at prefix 0...01 has some weight w, and a
    coordinate and symbol permutation, which keeps tail 0, maps it to
    0...01...1, the first tail of weight w; so it is already that tail.
    Hence the search is complete and finds the same first code as one
    without these restrictions.  No budget check here: callers run it
    only where check_search_budget returns True.
    """
    m = n - k
    prefixes = _all_messages(k, q)

    def children(chosen: tuple[tuple[int, ...], ...]):
        b = len(chosen)
        if b == len(prefixes):
            return None
        need = [(s, d - _symbol_distance(p, prefixes[b])) for p, s in zip(prefixes, chosen)]
        # prefix 0 tries tail 0 alone, and prefix 0...01 the tails 0...01...1
        tries = ((0,) * (m - w) + (1,) * w for w in range(b * m + 1)) if b < 2 else product(range(q), repeat=m)
        return (chosen + (t,) for t in tries if all(sum(map(ne, s, t)) >= lo for s, lo in need))

    chosen = _first_leaf((), children)
    return None if chosen is None else tuple(p + t for p, t in zip(prefixes, chosen))


def refutation_crosscheck(n: int, k: int, d: int, q: int, *,
                          budget: int = DEFAULT_BUDGET) -> Optional[tuple[tuple[int, ...], ...]]:
    """The words of the first systematic code of length n and dimension k
    with minimum distance >= d, or None when the search finds none.

    The query check of every bound comes first, then the guards of
    check_search_budget, and then the one search that the guard's answer
    names: where it returns True, as all nonlinear systematic codes fit in
    the budget, the first of them (every standard-form code is among them);
    where it returns False, the first standard-form code.  The nonlinear
    count fitting implies the linear guards pass, as q**k >= 2k, so the
    guard's refusals refuse no nonlinear search that fits.  The first code
    is in that search's own order, not necessarily a best linear code.
    Nothing here reads bound A: a None for a triple that A refutes confirms
    it.

    oracle refute-check calls it only for a refuted triple that it cannot
    confirm from a triple already confirmed, by d-monotonicity, puncturing
    or shortening; it runs check_search_budget alone, and ignores the search
    it names, for the first refuted d of an (n, k) that it confirms that way.
    """
    check_query(n, d, q)
    if check_search_budget(n, k, q, budget):
        return _first_nonlinear_code(n, k, d, q)
    if (tail := _first_linear_tail(n, k, d, q)) is None:
        return None
    # the words (v, v @ tail mod q), one per message v, in ascending order of v
    columns = list(zip(*tail))
    return tuple(v + tuple(sum(map(mul, v, col)) % q for col in columns) for v in _all_messages(k, q))
