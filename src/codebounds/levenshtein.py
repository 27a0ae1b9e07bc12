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

The Krawtchouk table on n, the rows K_i(x) at x = -1..n + 1, is the only
state that depends on (n, q) alone.  It serves the coefficient checks, and a
checked candidate reads both of its kernel rows off it (see
_KrawtchoukRows.kernel_row), so no other table is built.  Inside
shared_krawtchouk_tables(), consecutive queries at one (n, q) in one thread
share the table; elsewhere each query builds its own.

Which degrees are candidates is read from four running sums, not from the
n + 1 values of f.  Put N = m + 1, s = q - 1, rho_i = C(N, i) s**i, and on m
P_c = K_c(d - 1) and norm_c = C(m, c) s**c.  The kernel is kept as integer
numerators num = den * T over one running common denominator: each degree
widens it by widen = den' / den and adds step = den' P_c / norm_c times
K_c(x - 1).  Let B_i be the coefficient of num on K_i(x) on N, so that a
degree adds step to B_0..B_c.  Then

    S0 = sum rho_i = K_c(-1) on m,
    S1 = sum B_i rho_i = num(0),
    S2 = sum B_i**2 rho_i,
    TD = den * sum_j P_j**2 / norm_j = num(d),

updated by S1 -> S1 widen + step S0, S2 -> S2 widen**2 + step (2 S1 widen +
step S0) and TD -> TD widen + step P_c.  The point values K_c(-1) and
K_c(d - 1) come from the three-term recurrence on m, one step per degree.
With w_N(x) = C(N, x) s**x, orthogonality on N gives
sum_x w_N(x) num(x)**2 = q**N S2, and as x w_N(x) = N s w_m(x - 1), the
reproducing property of the kernel on m gives
sum_x w_N(x) x num(x)**2 = N s q**(N-1) den TD.  Both branches reduce to
the weight w_N times (d - x) (the even branch through (n - x) w(x) =
n w_{n-1}(x)), so with F = 1 on the odd branch and F = n on the even one

    f(0) = F d S1**2,   q**n f_0 = F q**(N-1) (d q S2 - N s den TD).

A degree is a candidate iff S1 != 0 and d q S2 > N s den TD, and its value
d S1**2 q**(n-N+1) // (d q S2 - N s den TD) is the same floored rational as
f(0) q**n // (q**n f_0).  So a degree costs O(1) big-integer operations and
builds no list; num and f are built only for a candidate being checked, num
by Christoffel-Darboux:

    num(x) = den (c+1) (K_{c+1}(x-1) P_c - K_c(x-1) P_{c+1}) / (q norm_c (d - x))

for x != d, an exact division, and num(d) = TD.

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
from contextlib import contextmanager
from math import comb, lcm
from operator import mul
from threading import local

from .exactmath import check_query

__all__ = ["levenshtein_max_size", "shared_krawtchouk_tables"]


class _KrawtchoukRows:
    """Lazy table of K_i(x) for the scheme of length n, at x = -1..n + 1
    (column x + 1), with the weights w(x) = C(n, x)(q-1)**x at x = 0..n."""

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self.weights = [comb(n, x) * (q - 1) ** x for x in range(n + 1)]
        self._rows = [[1] * (n + 3), [n * (q - 1) - q * x for x in range(-1, n + 2)]]

    def row(self, i: int) -> list[int]:
        n, q = self.n, self.q
        while len(self._rows) <= i:
            r = len(self._rows)
            prev, cur = self._rows[r - 2], self._rows[r - 1]
            # r K_r(x) = (r - 1 + (q-1)(n - r + 1) - q x) K_{r-1}(x) - (q-1)(n - r + 2) K_{r-2}(x)
            a, b = r - 1 + (q - 1) * (n - r + 1), (q - 1) * (n - r + 2)
            self._rows.append([((a - q * x) * k - b * p) // r
                               for x, p, k in zip(range(-1, n + 2), prev, cur)])
        return self._rows[i]

    def kernel_row(self, m: int, c: int) -> list[int]:
        """K_c(x - 1) for the scheme of length m = n - 1 or n - 2, at x = 0..n.

        With sum_c K_c(x) z**c = (1 + (q-1)z)**(n-x) (1-z)**x, the difference
        K_c(x) - K_c(x + 1) on n has generating function q z (1 + (q-1)z)**(n-1-x)
        (1-z)**x, so K_c(x) - K_c(x + 1) = q K_{c-1}(x) on n - 1, at every
        integer x.  One row of the table gives the row on n - 1, and its
        second difference the row on n - 2.
        """
        q = self.q
        r = self.row(c + self.n - m)
        if m == self.n - 1:
            return [(a - b) // q for a, b in zip(r, r[1:self.n + 2])]
        return [(a - 2 * b + e) // (q * q) for a, b, e in zip(r, r[1:], r[2:])]


# per thread: the slot of the innermost open scope, holding its table
_scope = local()


@contextmanager
def shared_krawtchouk_tables() -> Iterator[None]:
    """A scope in which consecutive queries at one (n, q), in this thread,
    share one Krawtchouk table.  The table is dropped when (n, q) changes
    and when the scope ends; another thread never sees it."""
    outer = getattr(_scope, "slot", None)
    _scope.slot = [None]
    try:
        yield
    finally:
        _scope.slot = outer


def _table(n: int, q: int) -> _KrawtchoukRows:
    slot = getattr(_scope, "slot", None)
    if slot is None:
        return _KrawtchoukRows(n, q)
    rows = slot[0]
    if rows is None or (rows.n, rows.q) != (n, q):
        rows = slot[0] = _KrawtchoukRows(n, q)
    return rows


def _candidates(n: int, m: int, d: int, q: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield (value, c, den, td) for each candidate degree c = 0..m of the
    kernel system on m, value = floor(f(0) q**n / (q**n f_0)), with the
    common denominator den and TD = num(d) at that degree."""
    s = q - 1
    scale = d * q ** (n - m)
    # K_c(-1) and K_c(d - 1) on m, after K_{c-1} (zero at c = 0)
    low, low_prev = 1, 0
    at, at_prev = 1, 0
    norm = 1
    den, s1, s2, td = 1, 0, 0, 0
    for c in range(m + 1):
        common = lcm(den, norm)
        widen, step = common // den, common // norm * at
        s2 = s2 * widen * widen + step * (2 * s1 * widen + step * low)
        s1 = s1 * widen + step * low
        td = td * widen + step * at
        den = common
        excess = d * q * s2 - (m + 1) * s * den * td
        if s1 and excess > 0:
            yield scale * s1 * s1 // excess, c, den, td
        # (c+1) K_{c+1}(y) = (c + (q-1)(m - c) - q y) K_c(y) - (q-1)(m - c + 1) K_{c-1}(y)
        a, b = c + s * (m - c), s * (m - c + 1)
        low, low_prev = ((a + q) * low - b * low_prev) // (c + 1), low
        at, at_prev = ((a - q * (d - 1)) * at - b * at_prev) // (c + 1), at
        norm = norm * (m - c) * s // (c + 1)


def _numerators(rows: _KrawtchoukRows, m: int, d: int, c: int, den: int, td: int) -> list[int]:
    """num = den * T at x = 0..n for the kernel of degree c on m, by
    Christoffel-Darboux, with num(d) = TD."""
    q = rows.q
    low, high = rows.kernel_row(m, c), rows.kernel_row(m, c + 1)
    p, p_next = low[d], high[d]
    scale = den * (c + 1)
    div = q * comb(m, c) * (q - 1) ** c
    return [td if x == d else scale * (h * p - k * p_next) // (div * (d - x))
            for x, (k, h) in enumerate(zip(low, high))]


def _branch_min(rows: _KrawtchoukRows, m: int, d: int) -> int | None:
    """Minimum verified bound for one branch, with its kernel system on m."""
    best: int | None = None
    run: list[tuple[int, int, int, int]] = []  # candidates, values decreasing
    for candidate in _candidates(rows.n, m, d, rows.q):
        if run and candidate[0] < run[-1][0]:
            run.append(candidate)
            continue
        best = _run_min(rows, m, d, run, best)
        if best is not None and candidate[0] >= best:
            return best
        run = [candidate]
    return _run_min(rows, m, d, run, best)


def _run_min(rows: _KrawtchoukRows, m: int, d: int,
             run: list[tuple[int, int, int, int]], best: int | None) -> int | None:
    """The value of the last candidate in run that verifies, else best."""
    n = rows.n
    for value, c, den, td in reversed(run):
        num = _numerators(rows, m, d, c, den, td)
        # f = w(x) * (d - x)(n - x)**(n - 1 - m) * num**2; the leading 0 is
        # the table's column x = -1
        g = [0] + [w * (d - x) * (n - x) ** (n - 1 - m) * v * v
                   for x, (w, v) in enumerate(zip(rows.weights, num))]
        # deg f = 2c + 1 (odd branch, m = n - 1) or 2c + 2 (even, m = n - 2),
        # and expansions over the n + 1 points are complete at degree n, so
        # higher coefficients are identically zero
        if _coefficients_nonnegative(rows, g, min(2 * c + n - m, n)):
            return value
    return best


def _coefficients_nonnegative(rows: _KrawtchoukRows, g: list[int], top: int) -> bool:
    """Whether sum_x g[x] K_i(x) >= 0 for i = top down to 1, g given at
    x = -1..n like the table's rows."""
    return all(sum(map(mul, g, rows.row(i))) >= 0 for i in range(top, 0, -1))


def levenshtein_max_size(n: int, d: int, q: int) -> int:
    """Exact upper bound on the number of codewords of a q-ary (n, d) code."""
    check_query(n, d, q)
    trivial = q ** n
    if n < 3 or d == 1:
        return trivial
    rows = _table(n, q)
    odd = _branch_min(rows, n - 1, d)
    even = _branch_min(rows, n - 2, d)
    return min(v for v in (odd, even, trivial) if v is not None)
