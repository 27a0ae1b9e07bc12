"""Levenshtein-style upper bound on code size via Krawtchouk kernel polynomials.

Construction.  For the q-ary Hamming scheme on n points, a polynomial f with

    f(0) > 0,   f(j) <= 0 for j = d..n,   and nonnegative Krawtchouk
    coefficients f_i for every i >= 1 with f_0 > 0

certifies A_q(n, d) <= f(0) / f_0 (the classical positive-definiteness
argument on the distance distribution).  Levenshtein's polynomials are built
from Christoffel-Darboux kernels of the systems "adjacent" to the Krawtchouk
weight w(x) = C(n, x)(q-1)**x:

  odd branch    f(x) = (d - x) * T(x)**2,
                T = CD kernel of degree c over the weight w(x) * x, which is
                the Krawtchouk system on n - 1 evaluated at x - 1, taken at
                the point pair (x - 1, d - 1);

  even branch   f(x) = (d - x)(n - x) * T(x)**2,
                T likewise for the weight w(x) * x * (n - x), i.e. the system
                on n - 2 at x - 1.

Both shapes make f(j) <= 0 on d..n automatic, so only the coefficient signs
need checking; that check is performed exactly (big integers throughout), and
a candidate degree is used only after it passes.  The reported bound is the
floored minimum over the verified candidates scanned, never exceeding the
trivial q**n.  Every returned value is therefore a sound upper bound
regardless of which degrees happen to verify.

Each query builds one Krawtchouk table, the rows K_i(x) on n at x = 0..n.
It serves the coefficient checks, and the kernel rows of both branches, on
n - 1 and n - 2 at x - 1, are derived from it by two exact identities (see
_KrawtchoukRows.adjacent), so no other recurrence is run.  The kernel is
accumulated degree by degree as integer numerators over one running common
denominator, with K_c(d - 1) read from the same kernel row.  Each branch
scans degrees upward and stops at the first candidate whose bound is not
below the best verified one; candidates before the first verified degree are
all checked.
"""

from collections.abc import Iterator
from math import comb, lcm
from operator import mul

from .exactmath import check_query

__all__ = ["levenshtein_max_size"]


class _KrawtchoukRows:
    """Lazy table of K_i(x) for the scheme of length n, at x = 0..n, with the
    rows of the two adjacent schemes derived from it."""

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self._rows = [[1] * (n + 1), [n * (q - 1) - q * x for x in range(n + 1)]]

    def row(self, i: int) -> list[int]:
        n, q = self.n, self.q
        while len(self._rows) <= i:
            r = len(self._rows)
            prev, cur = self._rows[r - 2], self._rows[r - 1]
            i0 = r - 1
            self._rows.append([
                ((i0 + (q - 1) * (n - i0) - q * x) * cur[x] - (q - 1) * (n - i0 + 1) * prev[x]) // r
                for x in range(n + 1)
            ])
        return self._rows[i]

    def adjacent(self, m: int) -> Iterator[list[int]]:
        """Yield K_c(x - 1) for the scheme of length m = n - 1 or n - 2, at
        x = 0..n, for c = 0..m.

        With sum_c K_c(x) z**c = (1 + (q-1)z)**(n-x) (1-z)**x, dividing by
        1 - z moves (n, x) to (n - 1, x - 1), and dividing that by
        1 + (q-1)z moves it on to (n - 2, x - 1):
            odd_c = odd_{c-1} + K_c(x),       odd_c = K_c(x - 1) on n - 1,
            even_c = odd_c - (q-1) even_{c-1},  even_c = K_c(x - 1) on n - 2.
        """
        odd = even = [0] * (self.n + 1)
        for c in range(m + 1):
            odd = [o + k for o, k in zip(odd, self.row(c))]
            if m == self.n - 1:
                yield odd
            else:
                even = [o - (self.q - 1) * e for o, e in zip(odd, even)]
                yield even


def _branch_min(rows: _KrawtchoukRows, m: int, d: int, wf: list[int]) -> int | None:
    """Minimum verified bound for one branch: kernel system on m, and wf the
    weights times the branch factor f(x) / T(x)**2."""
    n, q = rows.n, rows.q
    qn = q ** n
    # the kernel is T = num / den; f only enters through signs and the ratio
    # f(0) / f_0, so num, a positive multiple of T, stands in for it
    num = [0] * (n + 1)
    den = 1
    best: int | None = None
    # column x of a kernel row holds K_c(x - 1), so column d holds K_c(d - 1)
    for c, row in enumerate(rows.adjacent(m)):
        norm = comb(m, c) * (q - 1) ** c
        common = lcm(den, norm)
        widen, step = common // den, common // norm * row[d]
        num = [v * widen + r * step for v, r in zip(num, row)]
        den = common
        # g[x] = w(x) f(x) with w(0) = 1, so g[0] = f(0) and sum(g) = q**n f_0
        g = [w * v * v for w, v in zip(wf, num)]
        f0_sum = sum(g)
        if g[0] <= 0 or f0_sum <= 0:
            continue
        value = g[0] * qn // f0_sum
        if best is not None and value >= best:
            break
        # deg f <= 2c + 2, and expansions over the n + 1 points are complete
        # at degree n, so higher coefficients are identically zero
        if any(sum(map(mul, g, rows.row(i))) < 0 for i in range(1, min(2 * c + 2, n) + 1)):
            continue
        best = value
    return best


def levenshtein_max_size(n: int, d: int, q: int) -> int:
    """Exact upper bound on the number of codewords of a q-ary (n, d) code."""
    check_query(n, d, q)
    trivial = q ** n
    if n < 3 or d == 1:
        return trivial
    weights = [comb(n, x) * (q - 1) ** x for x in range(n + 1)]
    rows = _KrawtchoukRows(n, q)
    odd = _branch_min(rows, n - 1, d, [w * (d - x) for x, w in enumerate(weights)])
    even = _branch_min(rows, n - 2, d, [w * (d - x) * (n - x) for x, w in enumerate(weights)])
    return min(v for v in (odd, even, trivial) if v is not None)
