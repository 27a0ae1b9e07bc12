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
floored minimum over all verified candidates, never exceeding the trivial
q**n.  Every returned value is therefore a sound upper bound regardless of
which degrees happen to verify.

The kernel is accumulated degree by degree as integer numerators over one
running common denominator, with K_c(d - 1) read from the same Krawtchouk row
table as the kernel values.  For every n the degree scan stops once _PATIENCE
candidate degrees in a row have failed to improve the bound; the minimum sits
at the first verified degrees in practice.
"""

from math import comb, lcm

__all__ = ["levenshtein_max_size"]

_PATIENCE = 3


class _KrawtchoukRows:
    """Lazy table of K_i(y) for the scheme on m symbols-length, at fixed
    integer points (polynomial extension, so negative points are fine)."""

    def __init__(self, m: int, q: int, points: list[int]):
        self.m = m
        self.q = q
        self.points = points
        self._rows = [[1] * len(points)]

    def row(self, i: int) -> list[int]:
        m, q, pts = self.m, self.q, self.points
        while len(self._rows) <= i:
            r = len(self._rows)
            if r == 1:
                self._rows.append([m * (q - 1) - q * y for y in pts])
                continue
            prev, cur = self._rows[r - 2], self._rows[r - 1]
            i0 = r - 1
            nxt = []
            for idx, y in enumerate(pts):
                num = (i0 + (q - 1) * (m - i0) - q * y) * cur[idx] - (q - 1) * (m - i0 + 1) * prev[idx]
                nxt.append(num // r)
            self._rows.append(nxt)
        return self._rows[i]


def _branch_min(
    n: int,
    d: int,
    q: int,
    m: int,
    factor: list[int],
    weights: list[int],
    big_rows: _KrawtchoukRows,
) -> int | None:
    """Minimum verified bound for one branch (kernel system on m)."""
    if m < 1:
        return None
    qn = q ** n
    # the points are x - 1 for x = 0..n, so column d holds K_c(d - 1)
    rows = _KrawtchoukRows(m, q, [x - 1 for x in range(n + 1)])
    # the kernel is T = num / den; f only enters through signs and the ratio
    # f(0) / f_0, so num, a positive multiple of T, stands in for it
    num = [0] * (n + 1)
    den = 1
    best: int | None = None
    seen_since_improved = 0
    for c in range(0, m + 1):
        row = rows.row(c)
        norm = comb(m, c) * (q - 1) ** c
        common = lcm(den, norm)
        widen, step = common // den, common // norm * row[d]
        num = [v * widen + r * step for v, r in zip(num, row)]
        den = common
        f = [factor[x] * num[x] * num[x] for x in range(n + 1)]
        if f[0] <= 0:
            continue
        g = [weights[x] * f[x] for x in range(n + 1)]
        f0_sum = sum(g)
        if f0_sum <= 0:
            continue
        value = f[0] * qn // f0_sum
        if best is not None and value >= best:
            # cannot improve the minimum, so feasibility need not be checked
            seen_since_improved += 1
            if seen_since_improved >= _PATIENCE:
                break
            continue
        # deg f <= 2c + 2, and expansions over the n + 1 points are complete
        # at degree n, so higher coefficients are identically zero
        i_hi = min(2 * c + 2, n)
        bad = False
        for i in range(1, i_hi + 1):
            ki = big_rows.row(i)
            acc = 0
            for x in range(n + 1):
                acc += g[x] * ki[x]
            if acc < 0:
                bad = True
                break
        if bad:
            continue
        best = value
        seen_since_improved = 0
    return best


def levenshtein_max_size(n: int, d: int, q: int) -> int:
    """Exact upper bound on the number of codewords of a q-ary (n, d) code."""
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got q={q}")
    if not 1 <= d <= n:
        raise ValueError(f"distance must satisfy 1 <= d <= n, got d={d}, n={n}")
    trivial = q ** n
    if n < 3 or d == 1:
        return trivial
    weights = [comb(n, x) * (q - 1) ** x for x in range(n + 1)]
    big_rows = _KrawtchoukRows(n, q, list(range(n + 1)))
    odd = _branch_min(
        n, d, q, n - 1,
        [d - x for x in range(n + 1)],
        weights, big_rows,
    )
    even = _branch_min(
        n, d, q, n - 2,
        [(d - x) * (n - x) for x in range(n + 1)],
        weights, big_rows,
    )
    candidates = [v for v in (odd, even, trivial) if v is not None]
    return min(candidates)
