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
a candidate degree is used only after it passes, or where a proof (last
paragraph) shows that it would pass.  The reported bound is the
floored minimum over the verified candidates scanned, never exceeding the
trivial q**n.  Every returned value is therefore a sound upper bound
regardless of which degrees happen to verify.

Nothing is kept between calls.  Which degrees are candidates is read from
four running sums, not from the n + 1 values of f.  Put N = m + 1,
s = q - 1, rho_i = C(N, i) s**i, and on m P_c = K_c(d - 1) and
norm_c = C(m, c) s**c.  The kernel is kept as integer numerators
num = den * T over one running common denominator: each degree widens it by
widen = den' / den and adds step = den' P_c / norm_c times K_c(x - 1).  Let
B_i be the coefficient of num on K_i(x) on N, so that a degree adds step to
B_0..B_c.  Then

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
builds no list.

The check of a candidate needs no Krawtchouk row on n.  With
sum_i K_i(x) z**i = (1 + s z)**(n-x) (1-z)**x and C(n, x) C(x, j) =
C(n, j) C(n-j, x-j), the binomial theorem gives

    sum_i z**i sum_x C(n, x) s**x C(x, j) K_i(x) = C(n, j) s**j q**(n-j) (1-z)**j.

Let D = min(deg f, n), deg f = 2c + 1 on the odd branch and 2c + 2 on the
even one.  On x = 0..n, f equals its Newton series
sum_{j <= D} Delta**j f(0) C(x, j), so the sums F_i =
sum_x w(x) f(x) K_i(x), which are q**n w(i) f_i, satisfy

    sum_i F_i z**i = q**(n-D) sum_j e_j (1 - z)**j,
    e_j = Delta**j f(0) C(n, j) s**j q**(D-j).

So f is needed only at x = 0..D.  Its forward differences take
subtractions only, the e_j take D + 1 products, and the polynomial
sum_j e_j t**j shifted to t = 1 + u takes additions only; its coefficient of
u**i is (-1)**i q**(D-n) F_i.  F_i = 0 for i > D.  The values of f come from
num: num(0) = S1 and num(d) = TD from the scan, and elsewhere by
Christoffel-Darboux,

    num(x) = den (c+1) (K_{c+1}(x-1) P_c - K_c(x-1) P_{c+1}) / (q norm_c (d - x)),

an exact division.  The two kernel rows on m, at x = 1..D only, come from
K_c(0) = norm_c by the three-term recurrence in the argument (see
_kernel_row); P_c, P_{c-1} and P_{c+1} come with the candidate, the last
from the scan's next recurrence step.  Before f is
formed, num is divided by the gcd of its values: a positive factor, which
leaves every sign as it is and takes about the size of den off each value.

Each branch scans degrees upward and stops at the first candidate whose
value is not below the best verified one.  Candidates whose values strictly
decrease form a run, all below the best; a scan that checked each in turn
would keep the last of the run that verifies, so the run is checked from its
end backwards and the first that passes ends it.  A check finishes the
shifted coefficients from the top, i = D down to 1, and stops at the first
negative one; every degree that sets a value has passed all of them, unless
it is certified (last paragraph) and not checked at all.  The
candidates that fail have their negative coefficients near the top, so a
shift from i = 0 upwards would finish nearly all of them before it found
one.  Column j of the shift, for j = D down to 1, is the running sum of
column j + 1 started at e_j: it takes j + 1 additions, only one column is
kept, and its last entry is the coefficient of u**j.  The weights
w_j = C(n, j) s**j q**(D-j) of the e_j are updated as j falls, by the exact
division w_{j-1} = w_j j q / ((n - j + 1) s).  The coefficient at i = 0 is
never formed: its sign is the scan's candidate test, f_0 > 0.

Most candidates that fail do so at the second coefficient from the top, and
where deg f = D <= n that one is decided before num is formed, from P_c and
P_{c-1}, which the scan carries.  Put e = n - 1 - m, so D = 2c + 1 + e.  By
the three-term recurrence K_c(y) on m is L_c (y**c - r_c y**(c-1) + ...)
with L_c = (-q)**c / c! and q r_c = s m c + (1 - s) c (c - 1) / 2.  As
L_{c-1} / L_c = -c / q and norm_c / norm_{c-1} = s (m - c + 1) / c,

    T(x) = sum_j P_j K_j(x - 1) / norm_j = t (x**c - b x**(c-1) + ...),
    t = P_c L_c / norm_c,   q b = q (r_c + c) + s (m - c + 1) P_{c-1} / P_c,

so f = (-1)**(1+e) t**2 (x**D - (2b + d + e n) x**(D-1) + ...).  With
Delta**D f(0) = D! a_D and Delta**(D-1) f(0) = (D-1)! (a_{D-1} + C(D, 2) a_D)
for the monomial coefficients a_j of f, and C(n, D) D = C(n, D-1)(n - D + 1),
the shift's coefficient of u**D is e_D and that of u**(D-1) is

    e_{D-1} + D e_D = (-1)**(1+e) t**2 (D-1)! C(n, D-1) s**(D-1) B,
    B = q C(D, 2) + s D (n - D + 1) - q (d + e n) - 2 q b.

D has the parity of 1 + e, so when P_c != 0 the first coefficient yielded is
D! C(n, D) s**D t**2 > 0 and the second is negative iff B > 0.  Multiplied
by P_c**2 this reads, in integers,

    P_c (A P_c - 2 s (m - c + 1) P_{c-1}) > 0,
    A = q C(D, 2) + s D (n - D + 1) - q (d + e n) - 2 q c - 2 s m c - (1 - s) c (c - 1),

and a candidate for which it holds is refused without a check; the check
would have stopped at that coefficient.  Where D > n or P_c = 0 the top
coefficients depend on more than the leading terms, and the check runs.

A candidate is certified, and taken with no test and no check, when
P_0, .., P_c >= 0 and P_{c+1} <= 0.  The scan carries "no P_j < 0 so far"
as one flag and reads P_{c+1} off its next recurrence step; at c = m that
is the value of K_{m+1}, the recurrence's polynomial, which vanishes at
y = 0..m.  Under these signs every F_i is >= 0, for any q >= 2, so the check
would pass:

(i) With zeta = exp(2 pi i / q) and <y, z> the dot product on Z_q**n,
K_k(wt y) = sum_{wt z = k} zeta**<y, z>.  Summing over all y,

    sum_x w(x) K_a(x) K_b(x) K_i(x) = q**n N_{a,b,i} >= 0,

where N_{a,b,i} counts the (u, v, z) of weights a, b, i with u + v + z = 0.

(ii) The generating function of K_j(x - 1) on n - 1, (1 + s z)**(n-x)
(1 - z)**(x-1), is that of K_j(x) on n divided by 1 - z, so
K_j(x - 1) on n - 1 = sum_{t <= j} K_t(x) on n, and likewise
K_j(x - 1) on n - 2 = sum_{t <= j} K_t(x) on n - 1.

(iii) Odd branch, m = n - 1: f = G T with T = num / den =
sum_{j <= c} (P_j / norm_j) K_j(x - 1) and, by Christoffel-Darboux as above,

    G = (d - x) T = (c + 1) / (q norm_c) (P_c K_{c+1} - P_{c+1} K_c)(x - 1),

all on m.  Under the signs both are nonnegative combinations of the
K_j(x - 1) on m, so by (ii) G = sum_a g_a K_a and T = sum_b t_b K_b on n
with every g_a, t_b >= 0, and F_i = sum_{a,b} g_a t_b q**n N_{a,b,i} >= 0
by (i).

(iv) Even branch, m = n - 2: f = (n - x) G T, and by (ii) G and T are
nonnegative combinations of the K_t(x) on n - 1.  With w(x)(n - x) =
n w_{n-1}(x) and K_i(x) on n = K_i(x) + s K_{i-1}(x) on n - 1 (the
generating function on n is that on n - 1 times 1 + s z), (i) on n - 1
gives F_i = n q**(n-1) sum_{a,b} g_a t_b (N_{a,b,i} + s N_{a,b,i-1}) >= 0,
with N now counted on n - 1.

Where the signs of P_0, .., P_{c+1} are mixed, the test on the two leading
coefficients and the check run as before.
"""

from collections.abc import Iterator
from itertools import accumulate, islice
from math import comb, gcd, lcm
from operator import sub

from .exactmath import check_query

__all__ = ["levenshtein_max_size"]

# (value, c, den, s1, td, p, p_prev, p_next, certified), see _candidates
_Candidate = tuple[int, int, int, int, int, int, int, int, bool]


def _kernel_row(m: int, q: int, c: int, last: int) -> list[int]:
    """K_c(y) for the scheme of length m at y = 0..last, last <= m + 1.

    From K_c(0) = C(m, c)(q-1)**c the values follow by the recurrence in y,
    each division exact:

        (q-1)(m - y) K_c(y + 1) = ((q-1)(m - y) + y - q c) K_c(y) - y K_c(y - 1).

    It gives nothing at y = m, so K_c(m + 1) is read off
    sum_c K_c(m + 1) z**c = (1 - z)**(m+1) / (1 + (q-1)z).
    """
    s = q - 1
    row = [comb(m, c) * s ** c]
    for y in range(min(last, m)):
        t = s * (m - y)
        # at y = 0 the last term vanishes
        row.append(((t + y - q * c) * row[y] - y * row[y - 1]) // t)
    if last > m:
        row.append((-1) ** c * sum(comb(m + 1, i) * s ** (c - i) for i in range(c + 1)))
    return row


def _candidates(n: int, m: int, d: int, q: int) -> Iterator[_Candidate]:
    """Yield (value, c, den, s1, td, p, p_prev, p_next, certified) for each
    candidate degree c = 0..m of the kernel system on m, value =
    floor(f(0) q**n / (q**n f_0)), with the common denominator den,
    S1 = num(0), TD = num(d), P_c = K_c(d - 1), P_{c-1} and P_{c+1} at that
    degree; certified says P_0, .., P_c >= 0 and P_{c+1} <= 0, under which
    every coefficient is nonnegative (module docstring)."""
    s = q - 1
    scale = d * q ** (n - m)
    # K_c(-1) and K_c(d - 1) on m, after K_{c-1} (zero at c = 0)
    low, low_prev = 1, 0
    at, at_prev = 1, 0
    norm = 1
    den, s1, s2, td = 1, 0, 0, 0
    nonnegative = True  # no P_j < 0 for j <= c
    for c in range(m + 1):
        common = lcm(den, norm)
        widen, step = common // den, common // norm * at
        s2 = s2 * widen * widen + step * (2 * s1 * widen + step * low)
        s1 = s1 * widen + step * low
        td = td * widen + step * at
        den = common
        excess = d * q * s2 - (m + 1) * s * den * td
        # (c+1) K_{c+1}(y) = (c + (q-1)(m - c) - q y) K_c(y) - (q-1)(m - c + 1) K_{c-1}(y)
        a, b = c + s * (m - c), s * (m - c + 1)
        at_next = ((a - q * (d - 1)) * at - b * at_prev) // (c + 1)
        nonnegative = nonnegative and at >= 0
        if s1 and excess > 0:
            yield (scale * s1 * s1 // excess, c, den, s1, td, at, at_prev, at_next,
                   nonnegative and at_next <= 0)
        low, low_prev = ((a + q) * low - b * low_prev) // (c + 1), low
        at, at_prev = at_next, at
        norm = norm * (m - c) * s // (c + 1)


def _numerators(m: int, d: int, q: int, c: int, den: int, s1: int, td: int, p: int,
                p_next: int, top: int) -> list[int]:
    """num = den * T at x = 0..top for the kernel of degree c on m, by
    Christoffel-Darboux, with num(0) = S1, num(d) = TD, P_c = p and
    P_{c+1} = p_next."""
    # K_c(x - 1) and K_{c+1}(x - 1) at x = 1..top
    low, high = _kernel_row(m, q, c, top - 1), _kernel_row(m, q, c + 1, top - 1)
    scale = den * (c + 1)
    div = q * comb(m, c) * (q - 1) ** c
    return [s1] + [td if x == d else scale * (h * p - k * p_next) // (div * (d - x))
                   for x, k, h in zip(range(1, top + 1), low, high)]


def _coefficients(n: int, m: int, d: int, q: int, c: int, den: int, s1: int, td: int,
                  p: int, p_next: int) -> Iterator[int]:
    """Yield q**(D - n) g**-2 sum_x w(x) f(x) K_i(x) for i = D down to 1,
    where D = min(deg f, n), f is the candidate of degree c on m and g is the
    gcd of num(0..D); the sums above D are zero."""
    s = q - 1
    # deg f = 2c + 1 (odd branch, m = n - 1) or 2c + 2 (even, m = n - 2)
    top = min(2 * c + n - m, n)
    num = _numerators(m, d, q, c, den, s1, td, p, p_next, top)
    g = gcd(*num)
    f = [(d - x) * (n - x) ** (n - 1 - m) * (v // g) ** 2 for x, v in enumerate(num)]
    diffs = []  # Delta**j f(0)
    for _ in range(top + 1):
        diffs.append(f[0])
        f = list(map(sub, f[1:], f))
    # the shift by 1 of sum_j e_j t**j, one column per j from the top; the
    # column above j = D is all zeros
    weight = comb(n, top) * s ** top
    column = [0] * (top + 2)
    for j in range(top, 0, -1):
        column = list(accumulate(islice(column, 1, j + 2), initial=diffs[j] * weight))
        a = column[-1]
        yield -a if j % 2 else a
        weight = weight * j * q // ((n - j + 1) * s)


def _branch_min(n: int, m: int, d: int, q: int) -> int | None:
    """Minimum verified bound for one branch, with its kernel system on m."""
    best: int | None = None
    run: list[_Candidate] = []  # candidates, values decreasing
    for candidate in _candidates(n, m, d, q):
        if run and candidate[0] < run[-1][0]:
            run.append(candidate)
            continue
        best = _run_min(n, m, d, q, run, best)
        if best is not None and candidate[0] >= best:
            return best
        run = [candidate]
    return _run_min(n, m, d, q, run, best)


def _second_negative(n: int, m: int, d: int, q: int, c: int, p: int, p_prev: int) -> bool | None:
    """Whether the check of the candidate of degree c on m would yield a
    negative second coefficient, that of u**(D-1), read off P_c = p and
    P_{c-1} = p_prev alone; None where deg f > n or P_c = 0."""
    s, e = q - 1, n - 1 - m
    top = 2 * c + 1 + e
    if top > n or not p:
        return None
    a = (q * (top * (top - 1) // 2) + s * top * (n - top + 1) - q * (d + e * n)
         - 2 * q * c - 2 * s * m * c + (s - 1) * c * (c - 1))
    return p * (a * p - 2 * s * (m - c + 1) * p_prev) > 0


def _run_min(n: int, m: int, d: int, q: int,
             run: list[_Candidate], best: int | None) -> int | None:
    """The value of the last candidate in run that verifies, else best."""
    for value, c, den, s1, td, p, p_prev, p_next, certified in reversed(run):
        if certified or not _second_negative(n, m, d, q, c, p, p_prev) and all(
                a >= 0 for a in _coefficients(n, m, d, q, c, den, s1, td, p, p_next)):
            return value
    return best


def levenshtein_max_size(n: int, d: int, q: int) -> int:
    """Exact upper bound on the number of codewords of a q-ary (n, d) code."""
    check_query(n, d, q)
    trivial = q ** n
    if n < 3 or d == 1:
        return trivial
    odd = _branch_min(n, n - 1, d, q)
    even = _branch_min(n, n - 2, d, q)
    return min(v for v in (odd, even, trivial) if v is not None)
