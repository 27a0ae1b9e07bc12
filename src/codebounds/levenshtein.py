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
m = n - 1 and n - 2 at x - 1, are derived from it by two exact identities
(see _KrawtchoukRows.adjacent), so no other recurrence is run.  The kernel is
accumulated degree by degree as integer numerators num = den * T over one
running common denominator, with P_c = K_c(d - 1) read from the same row:
each degree widens the old numerators by widen = den' / den and adds
step = den' P_c / norm_c times the row, norm_c = C(m, c)(q-1)**c.

Which degrees are candidates is read from four running sums, not from the
n + 1 values of f.  Put N = m + 1, s = q - 1, rho_i = C(N, i) s**i, and let
B_i be the coefficient of num on K_i(x) on N, so that a degree adds step to
B_0..B_c.  Then

    S0 = sum rho_i = K_c(-1) on m = row[0],
    S1 = sum B_i rho_i = num[0],
    S2 = sum B_i**2 rho_i,
    TD = den * sum_j P_j**2 / norm_j,

updated by S2 -> S2 widen**2 + step (2 S1 widen + step S0) and
TD -> TD widen + step P_c.  With w_N(x) = C(N, x) s**x, orthogonality on N
gives sum_x w_N(x) num(x)**2 = q**N S2, and as x w_N(x) = N s w_m(x - 1),
the reproducing property of the kernel on m gives
sum_x w_N(x) x num(x)**2 = N s q**(N-1) den TD.  Both branches reduce to
the weight w_N times (d - x) (the even branch through (n - x) w(x) =
n w_{n-1}(x)), so with F = 1 on the odd branch and F = n on the even one

    f(0) = F d S1**2,   q**n f_0 = F q**(N-1) (d q S2 - N s den TD).

A degree is a candidate iff S1 != 0 and d q S2 > N s den TD, and its value
d S1**2 q**(n-N+1) // (d q S2 - N s den TD) is the same floored rational as
f(0) q**n // (q**n f_0), so a degree costs O(1) big-integer operations beyond
its kernel row, and f itself is built only for a candidate being checked.

Each branch scans degrees upward and stops at the first candidate whose
value is not below the best verified one.  Candidates whose values strictly
decrease form a run, all below the best; a scan that checked each in turn
would keep the last of the run that verifies, so the run is checked from its
end backwards and the first that passes ends it.  Each check computes the
coefficients f_i from the top degree (2c + 1 on the odd branch, 2c + 2 on
the even one, capped at n) down to 1, where failing candidates fail first;
every degree that sets a value has passed all of them.
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


def _kernel_values(rows: _KrawtchoukRows, m: int, d: int) -> Iterator[tuple[list[int], int | None]]:
    """Yield (num, value) for c = 0..m: num the kernel numerators at x = 0..n,
    value = floor(f(0) q**n / (q**n f_0)) for a candidate, else None."""
    n, q = rows.n, rows.q
    scale = d * q ** (n - m)
    # the kernel is T = num / den; f only enters through signs and the ratio
    # f(0) / f_0, so num, a positive multiple of T, stands in for it
    num = [0] * (n + 1)
    den = 1
    s2 = td = 0
    # column x of a kernel row holds K_c(x - 1), so column d holds K_c(d - 1)
    for c, row in enumerate(rows.adjacent(m)):
        norm = comb(m, c) * (q - 1) ** c
        common = lcm(den, norm)
        widen, step = common // den, common // norm * row[d]
        widened = num[0] * widen
        num = [v * widen + r * step for v, r in zip(num, row)]
        den = common
        # each B_i, i <= c, becomes B_i * widen + step, and S0 = row[0],
        # S1 = num[0]: S2 gains step * (2 * S1 * widen + step * S0)
        s2 = s2 * widen * widen + step * (widened + num[0])
        td = td * widen + step * row[d]
        excess = d * q * s2 - (m + 1) * (q - 1) * den * td
        yield num, scale * num[0] ** 2 // excess if num[0] and excess > 0 else None


def _branch_min(rows: _KrawtchoukRows, m: int, d: int, wf: list[int]) -> int | None:
    """Minimum verified bound for one branch: kernel system on m, and wf the
    weights times the branch factor f(x) / T(x)**2."""
    best: int | None = None
    run: list[tuple[int, int, list[int]]] = []  # (value, c, num), values decreasing
    for c, (num, value) in enumerate(_kernel_values(rows, m, d)):
        if value is None:
            continue
        if run and value < run[-1][0]:
            run.append((value, c, num))
            continue
        best = _run_min(rows, m, wf, run, best)
        if best is not None and value >= best:
            return best
        run = [(value, c, num)]
    return _run_min(rows, m, wf, run, best)


def _run_min(rows: _KrawtchoukRows, m: int, wf: list[int],
             run: list[tuple[int, int, list[int]]], best: int | None) -> int | None:
    """The value of the last candidate in run that verifies, else best."""
    for value, c, num in reversed(run):
        # deg f = 2c + 1 (odd branch, m = n - 1) or 2c + 2 (even, m = n - 2),
        # and expansions over the n + 1 points are complete at degree n, so
        # higher coefficients are identically zero
        if _coefficients_nonnegative(rows, [w * v * v for w, v in zip(wf, num)],
                                     min(2 * c + rows.n - m, rows.n)):
            return value
    return best


def _coefficients_nonnegative(rows: _KrawtchoukRows, g: list[int], top: int) -> bool:
    """Whether sum_x g[x] K_i(x) >= 0 for i = top down to 1."""
    return all(sum(map(mul, g, rows.row(i))) >= 0 for i in range(top, 0, -1))


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
