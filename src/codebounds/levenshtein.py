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
a candidate degree is used only after it passes, or where a proof (the
certificate below) shows that it would pass.  The reported bound is the
floored minimum over the verified candidates scanned, never exceeding the
trivial q**n.  Every returned value is therefore a sound upper bound
regardless of which degrees happen to verify.

Nothing is kept between calls.  Which degrees are candidates is read from
running sums, not from the n + 1 values of f.  Put N = m + 1,
s = q - 1, rho_i = C(N, i) s**i, and on m P_c = K_c(d - 1) and
norm_c = C(m, c) s**c.  The kernel is kept as integer numerators
num = den * T over the common denominator

    den = lcm(m - c + 1, .., m) s**c.

It is a multiple of every norm_j with j <= c.  By Kummer's theorem the power
of a prime p in C(m, j) is the number of carries in adding j and m - j in
base p.  A carry into place e means j mod p**e > m mod p**e, so the multiple
m - (m mod p**e) of p**e lies in m - j + 1..m, and there are at most e
carries up to place e, so C(m, j) divides lcm(m - j + 1, .., m).

Each degree grows den by the small factor widen = (k / g) s, with
k = m - c + 1 and g = gcd(lcm(k + 1, .., m), k), and carries
ratio = den / norm_c as ratio c / g, since norm_c = norm_{c-1} s k / c: no
big gcd and no big division.  The degree scales num by widen and adds
step = ratio P_c times K_c(x - 1).  Let B_i be the coefficient of num on
K_i(x) on N, so that a degree adds step to B_0..B_c.  Then

    S0 = sum_{i <= c} rho_i = K_c(-1) on m,
    S1 = sum B_i rho_i = num(0),
    E = d q sum B_i**2 rho_i - N s den**2 sum_{j <= c} P_j**2 / norm_j,

where S0 is a running sum, rho_c = rho_{c-1} (N - c + 1) s / c, and with
S1 and E on the right from the degree before, S0 and den from this one,

    S1 -> S1 widen + step S0,
    E -> E widen**2 + step (d q (2 S1 widen + step S0) - N s den P_c).

The point value K_c(d - 1) comes from the three-term recurrence on m, one
step per degree.  With w_N(x) = C(N, x) s**x, orthogonality on N gives
sum_x w_N(x) num(x)**2 = q**N sum B_i**2 rho_i, and as
x w_N(x) = N s w_m(x - 1), the reproducing property of the kernel on m
gives sum_x w_N(x) x num(x)**2 = N s q**(N-1) den**2 sum_j P_j**2 / norm_j.
Both branches reduce to the weight w_N times (d - x) (the even branch
through (n - x) w(x) = n w_{n-1}(x)), so with F = 1 on the odd branch and
F = n on the even one

    f(0) = F d S1**2,   q**n f_0 = F q**(N-1) E.

A degree is a candidate iff S1 != 0 and E > 0, and its value
d S1**2 q**(n-N+1) // E is the same floored rational as
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
num: num(0) = S1 from the scan, and elsewhere by Christoffel-Darboux,

    num(x) = ratio (c+1) (K_{c+1}(x-1) P_c - K_c(x-1) P_{c+1}) / (q (d - x)),

an exact division, except where f vanishes whatever num is: at x = d, and
on the even branch at x = n.  There num is set to 0.  The two kernel rows
on m, at x - 1 = 0..min(D - 1, m) only, come from K_c(0) = norm_c by the
three-term recurrence in the argument (see _kernel_row); P_c and P_{c+1}
come with the candidate, the second from the scan's next recurrence step.
Before f is formed, num is divided by the gcd of its values, which the
zeros leave as it is: a positive factor, which leaves every sign as it is
and takes about the size of den off each value.

Each branch scans degrees upward and stops at the first candidate whose
value is not below the best verified one.  Candidates whose values strictly
decrease form a run, all below the best; a scan that checked each in turn
would keep the last of the run that verifies, so the run is checked from its
end backwards and the first that passes ends it.  A scan that runs out of
candidates returns its best and leaves its last run unchecked (last two
paragraphs).  A check finishes the shifted coefficients from the top,
i = D down to 1, and stops at the first negative one; every degree that
sets a value has passed all of them, unless it is certified (below) and not
checked at all.  The candidates that fail have their negative coefficients near the top, so a
shift from i = 0 upwards would finish nearly all of them before it found
one.  Column j of the shift, for j = D down to 1, is the running sum of
column j + 1 started at e_j: it takes j + 1 additions, only one column is
kept, and its last entry is the coefficient of u**j.  The weights
w_j = C(n, j) s**j q**(D-j) of the e_j are updated as j falls, by the exact
division w_{j-1} = w_j j q / ((n - j + 1) s).  The coefficient at i = 0 is
never formed: its sign is the scan's candidate test, f_0 > 0.

Most candidates that fail do so at the second coefficient from the top, and
where deg f = D <= n that one is decided before num is formed, from P_c and
P_{c+1} alone.  Put e = n - 1 - m, so D = 2c + 1 + e.  By the three-term
recurrence K_j(y) on m is L_j (y**j - r_j y**(j-1) + ...) with
L_j = (-q)**j / j! and q r_j = s m j + (1 - s) j (j - 1) / 2.  Dividing num
by den and multiplying by d - x, the Christoffel-Darboux form of num gives

    G = (d - x) T = (c + 1) / (q norm_c) (P_c K_{c+1} - P_{c+1} K_c)(x - 1),

all on m, and as L_c / L_{c+1} = -(c + 1) / q,

    G = -t (x**(c+1) - (b + d) x**c + ...),
    t = P_c L_c / norm_c,   q b = q (r_{c+1} + c + 1 - d) - (c + 1) P_{c+1} / P_c.

So T = t (x**c - b x**(c-1) + ...) and
f = (-1)**(1+e) t**2 (x**D - (2b + d + e n) x**(D-1) + ...).  With
Delta**D f(0) = D! a_D and Delta**(D-1) f(0) = (D-1)! (a_{D-1} + C(D, 2) a_D)
for the monomial coefficients a_j of f, and C(n, D) D = C(n, D-1)(n - D + 1),
the shift's coefficient of u**D is e_D and that of u**(D-1) is

    e_{D-1} + D e_D = (-1)**(1+e) t**2 (D-1)! C(n, D-1) s**(D-1) B,
    B = q C(D, 2) + s D (n - D + 1) - q (d + e n) - 2 q b.

D has the parity of 1 + e, so when P_c != 0 the first coefficient yielded is
D! C(n, D) s**D t**2 > 0 and the second is negative iff B > 0.  Multiplied
by P_c**2 this reads, in integers,

    P_c (A P_c + 2 (c + 1) P_{c+1}) > 0,
    A = q C(D, 2) + s D (n - D + 1) + q (d - e n) - (c + 1)(2 q + 2 s m + (1 - s) c),

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
sum_{j <= c} (P_j / norm_j) K_j(x - 1) and G = (d - x) T in the
Christoffel-Darboux form above, all on m.  Under the signs both are
nonnegative combinations of the K_j(x - 1) on m, so by (ii)
G = sum_a g_a K_a and T = sum_b t_b K_b on n with every g_a, t_b >= 0, and
F_i = sum_{a,b} g_a t_b q**n N_{a,b,i} >= 0 by (i).

(iv) Even branch, m = n - 2: f = (n - x) G T, and by (ii) G and T are
nonnegative combinations of the K_t(x) on n - 1.  With w(x)(n - x) =
n w_{n-1}(x) and K_i(x) on n = K_i(x) + s K_{i-1}(x) on n - 1 (the
generating function on n is that on n - 1 times 1 + s z), (i) on n - 1
gives F_i = n q**(n-1) sum_{a,b} g_a t_b (N_{a,b,i} + s N_{a,b,i-1}) >= 0,
with N now counted on n - 1.

Where the signs of P_0, .., P_{c+1} are mixed, the test on the two leading
coefficients and the check run as before.

A scan that runs out of candidates can return its best, because its last
candidate is a point mass worth q**n.  Where d - 1 <= m (the odd branch
always, the even one for d <= n - 1), the kernel of degree m is the whole
reproducing kernel of the scheme on m at y = d - 1, so T(x) is 0 at
x - 1 = 0..m except at x = d, where f has the factor d - x; on the even
branch x = n lies past that scheme and is a zero of n - x.  So f is f(0) at
x = 0 and 0 at x = 1..n, F_i = f(0) C(n, i) s**i >= 0, and the value is
exactly q**n.  It is a candidate: P_{m+1} = 0, so Christoffel-Darboux gives

    T(0) = (m + 1) K_{m+1}(-1) P_m / (q norm_m d),

which is not 0, as K_{m+1} vanishes only at 0..m and
P_m = (-1)**(d-1) s**(m-d+1).  This candidate either ends the run before
it, and the scan returns if best <= q**n, or it starts or extends a run
whose values lie above q**n and below best.  So a scan that runs out holds
best = None or best > q**n; checking its last run would give q**n, and the
minimum with q**n in levenshtein_max_size is the same.

At d = n the even branch has no point mass: d - 1 = m + 1 lies outside its
scheme, and its last value is below q**n (2**n - 2 at q = 2).  There the
odd branch's degree 0, f = n - x, is certified (P_0 = 1, P_1 = -(n - 1))
with value q = A_q(n, n), and no verified value lies below A_q(n, d), so
the bound is q for n >= 3 whatever the even branch returns.
"""

from collections.abc import Iterator
from itertools import accumulate, islice
from math import comb, gcd
from operator import sub

from .exactmath import check_query

__all__ = ["levenshtein_max_size"]

# (value, c, ratio, s1, p, p_next, certified), see _candidates
_Candidate = tuple[int, int, int, int, int, int, bool]


def _kernel_row(m: int, q: int, c: int, last: int) -> list[int]:
    """K_c(y) for the scheme of length m at y = 0..last, last <= m.

    From K_c(0) = C(m, c)(q-1)**c the values follow by the recurrence in y,
    each division exact:

        (q-1)(m - y) K_c(y + 1) = ((q-1)(m - y) + y - q c) K_c(y) - y K_c(y - 1).
    """
    s = q - 1
    row = [comb(m, c) * s ** c]
    for y in range(last):
        t = s * (m - y)
        # at y = 0 the last term vanishes
        row.append(((t + y - q * c) * row[y] - y * row[y - 1]) // t)
    return row


def _candidates(n: int, m: int, d: int, q: int) -> Iterator[_Candidate]:
    """Yield (value, c, ratio, s1, p, p_next, certified) for each candidate
    degree c = 0..m of the kernel system on m, value =
    floor(f(0) q**n / (q**n f_0)), with ratio = den / norm_c for the common
    denominator den, S1 = num(0), and the pair P_c = K_c(d - 1) and P_{c+1}
    at that degree; certified says P_0, .., P_c >= 0 and P_{c+1} <= 0, under
    which every coefficient is nonnegative (module docstring)."""
    s = q - 1
    dq = d * q
    scale = d * q ** (n - m)
    # K_c(d - 1) on m, after K_{c-1} (zero at c = 0)
    at, at_prev = 1, 0
    # the recurrence's coefficients c + s(m - c) - q(d - 1) and s(m - c + 1)
    grow, fall = s * m - q * (d - 1), (m + 1) * s
    # window = lcm(m - c + 1, .., m) and ratio = den / norm_c for the common
    # denominator den = window s**c, which enters only in N s den (N = m + 1),
    # so n1s_den carries that product
    window = ratio = widen = 1
    n1s_den = (m + 1) * s
    term = s0 = 1  # C(N, c) s**c and its running sum K_c(-1) on m
    s1 = excess = 0
    nonnegative = True  # no P_j < 0 for j <= c
    for c in range(m + 1):
        if c:
            k = m - c + 1
            g = gcd(window, k)
            window *= k // g
            widen = k // g * s
            n1s_den *= widen
            ratio = ratio * c // g
            term = term * ((m + 2 - c) * s) // c
            s0 += term
        step = ratio * at
        prev = s1 * widen
        s1 = prev + step * s0
        excess = excess * (widen * widen) + step * (dq * (prev + s1) - n1s_den * at)
        # (c+1) K_{c+1}(y) = (c + (q-1)(m - c) - q y) K_c(y) - (q-1)(m - c + 1) K_{c-1}(y)
        at_next = (grow * at - fall * at_prev) // (c + 1)
        grow, fall = grow + 1 - s, fall - s
        nonnegative = nonnegative and at >= 0
        if s1 and excess > 0:
            yield (scale * s1 * s1 // excess, c, ratio, s1, at, at_next,
                   nonnegative and at_next <= 0)
        at, at_prev = at_next, at


def _numerators(m: int, d: int, q: int, candidate: _Candidate, top: int) -> list[int]:
    """num = den * T at x = 0..top for the candidate's kernel on m, by
    Christoffel-Darboux, with num(0) = S1; 0 at x = d and at x = m + 2, the
    even branch's x = n, where f vanishes whatever num is."""
    _, c, ratio, s1, p, p_next, _ = candidate
    # K_c(x - 1) and K_{c+1}(x - 1) at x = 1..last + 1; the one point past
    # them, x = m + 2 at top = n on the even branch, is padded with 0
    last = min(top - 1, m)
    low, high = _kernel_row(m, q, c, last), _kernel_row(m, q, c + 1, last)
    scale = ratio * (c + 1)
    return [s1] + [0 if x == d else scale * (h * p - k * p_next) // (q * (d - x))
                   for x, k, h in zip(range(1, top + 1), low, high)] + [0] * (top - 1 - last)


def _coefficients(n: int, m: int, d: int, q: int, candidate: _Candidate) -> Iterator[int]:
    """Yield q**(D - n) g**-2 sum_x w(x) f(x) K_i(x) for i = D down to 1,
    where D = min(deg f, n), f is the candidate's polynomial on m and g is
    the gcd of num(0..D); the sums above D are zero."""
    s = q - 1
    # deg f = 2c + 1 (odd branch, m = n - 1) or 2c + 2 (even, m = n - 2)
    top = min(2 * candidate[1] + n - m, n)
    num = _numerators(m, d, q, candidate, top)
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
    """Minimum verified bound for one branch, with its kernel system on m,
    where it lies below q**n.

    A run is resolved only where it ends: at the first candidate not below
    its last value, where the scan stops if that candidate is not below the
    best either and else starts the next run with it.  A scan that runs out
    of candidates returns its best, as its last candidate is worth q**n
    (module docstring)."""
    best: int | None = None
    run: list[_Candidate] = []  # candidates, values decreasing
    for candidate in _candidates(n, m, d, q):
        if run and candidate[0] >= run[-1][0]:
            best, run = _run_min(n, m, d, q, run, best), []
            if best is not None and candidate[0] >= best:
                return best
        run.append(candidate)
    return best


def _second_negative(n: int, m: int, d: int, q: int, candidate: _Candidate) -> bool:
    """Whether the check of the candidate on m would yield a negative second
    coefficient, that of u**(D-1), read off the pair P_c = p and
    P_{c+1} = p_next alone; False where deg f > n or P_c = 0, where the pair
    does not decide."""
    _, c, _, _, p, p_next, _ = candidate
    s, e = q - 1, n - 1 - m
    top = 2 * c + 1 + e
    a = (q * (top * (top - 1) // 2) + s * top * (n - top + 1) + q * (d - e * n)
         - (c + 1) * (2 * q + 2 * s * m + (1 - s) * c))
    return top <= n and p * (a * p + 2 * (c + 1) * p_next) > 0


def _run_min(n: int, m: int, d: int, q: int,
             run: list[_Candidate], best: int | None) -> int | None:
    """The value of the last candidate in run that verifies, else best."""
    for candidate in reversed(run):
        if candidate[-1] or not _second_negative(n, m, d, q, candidate) and all(
                a >= 0 for a in _coefficients(n, m, d, q, candidate)):
            return candidate[0]
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
