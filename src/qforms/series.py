"""Rigorous enclosures of the series values f^(sigma)(alpha_j q^k).

Every interval here is a Grid(lo, hi, den) of integers, with one predicate
per question (excludes_zero, vs_half) and enclosure() for a report.

The series sum_{n >= sigma} sigma! C(n,sigma) z^(n-sigma) / prod_{i<=n} P(q^i)
is summed in fixed point: term n is an integer interval on the grid
2^-(p+2+g), stepped by the exact ratio z n D q2^(dn) / ((n - sigma) c_n),
c_n = D q2^(dn) P(q^n), with the low end floored and the high end ceiled.
From the regime start, found before summing, |P(q^i)| >= |p_d| |q|^(d i) / 2
(past the dominance index k*) and the binomial ratio is <= 2 (past 2 sigma),
so each term at most halves and the tail is at most twice the first omitted
term. The sum stops at the first term with 4 |term| <= 2^-(p+1); its ends,
less and plus twice that term, are floored and ceiled onto 2^-(p+2). Both
decisions are taken on the integer intervals; where one cannot be, g grows
to fit the largest term and the count. So the ends are those of the exact
sum rounded outward, bar an exact end on the grid itself, which no guard
decides and which is taken one step outward.

value_table keeps the dS values as Grids over 2^(p+2) in var_indices order,
memoized per precision in spec.value_tables. lambda_grid forms
A_0 + sum A_i f_i as one integer dot product over them, A scaled by the lcm
den of its denominators (forms.over_lcm): a positive coefficient adds c lo_i
to the lower sum and c hi_i to the upper one, a negative one swaps the two.
omega_from_vector negates lambda_grid of (0, rest), omega_0 = -sum rest_i f_i,
and evaluate_form adds c_0 times the end of omega_0 that the sign of c_0 picks
to the exact part sum c_i rest_i, over den times the form's own denominator;
den must be a multiple of rest's common denominator, as omega_from_vector's is.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .enclosure import Enclosure, log_grid
from .errors import PrecisionCapExceeded
from .forms import LinearForm, falling_factorial, over_lcm, v_form
from .problem import ProblemSpec

_MAX_SERIES_TERMS = 1_000_000


class Grid(NamedTuple):
    """The interval [lo/den, hi/den] on integers, lo <= hi and den > 0."""

    lo: int
    hi: int
    den: int

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def vs_half(self) -> int:
        """-1 if |x| <= 1/2 on all of the interval, 1 if |x| > 1/2 on all of it, else 0."""
        lo, hi, den = self
        if 2 * hi <= den and -2 * lo <= den:
            return -1
        if 2 * lo > den or 2 * hi < -den:
            return 1
        return 0

    def __neg__(self) -> "Grid":
        return Grid(-self.hi, -self.lo, self.den)

    def enclosure(self) -> Enclosure:
        """The Enclosure with the same rational ends."""
        return Enclosure(Fraction(self.lo, self.den), Fraction(self.hi, self.den))


def _regime_start(spec: ProblemSpec, z: Fraction, sigma: int) -> int:
    """Least n >= 2 sigma with n + 1 >= k* and 8 |z| <= |p_d| |q|^(d (n+1)),
    or a bound past the term budget when it lies beyond that. The least such
    m = n + 1 is ceil(ln r / ln |q|^d), r = 8 |z| / |p_d|: the integer log
    kernel brackets it, and exact powers settle the bracket."""
    r = 8 * abs(z) / abs(spec.P.leading)
    qd = abs(spec.q) ** spec.d
    lo = hi = 0  # |q|^(d m) >= r fails below lo and holds at hi
    if r > 1:
        r_lo, r_hi, wr = log_grid(r, 64)
        q_lo, q_hi, wq = log_grid(qd, 64 + qd.denominator.bit_length())  # q_lo > 0
        lo, hi = -(-(r_lo << wq) // (q_hi << wr)), -(-(r_hi << wq) // (q_lo << wr))
        if lo - 1 - sigma > _MAX_SERIES_TERMS:
            return lo
        while hi > lo:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if qd ** mid >= r else (mid + 1, hi)
    return max(2 * sigma, spec.dominance_index - 1, hi - 1)


def _series_grid(spec: ProblemSpec, j: int, k: int, sigma: int, precision_bits: int,
                 guard: int = 32) -> Grid:
    """f^(sigma)(alpha_j q^k) as a Grid over 2^(precision_bits + 2), width
    <= 2^-precision_bits, summed on integers with guard bits to start."""
    z = spec.point_arg(j, k)
    start = _regime_start(spec, z, sigma)
    if start - sigma > _MAX_SERIES_TERMS:
        raise PrecisionCapExceeded(f"series for f^({sigma}) at alpha_{j} q^{k} did not localize")
    D, zn, zd, q2d = spec.clearing_D, z.numerator, z.denominator, spec.q_den ** spec.d
    first = math.factorial(sigma) * math.prod(  # term sigma: sigma! / prod_{i<=sigma} P(q^i)
        Fraction(D * q2d ** i, sum(t)) for i, t in zip(range(1, sigma + 1), spec.p_terms()))
    final = False
    while True:
        w = precision_bits + 2 + guard
        limit = 1 << (guard - 1)  # 4 |term| <= 2^-(p+1) is |term| 2^w <= limit
        tl = (first.numerator << w) // first.denominator
        th = -(-(first.numerator << w) // first.denominator)
        lo = hi = top = 0
        n, q2dn, walk = sigma, q2d ** sigma, spec.p_terms(sigma + 1)
        while True:
            big, small = max(-tl, th), max(tl, -th, 0)  # |term| 2^w lies in [small, big]
            if n >= start and small <= limit:  # the stop test holds or is undecided
                break
            top = max(top, big)
            lo, hi = lo + tl, hi + th
            n, q2dn = n + 1, q2dn * q2d
            a, b = zn * n * D * q2dn, zd * (n - sigma) * sum(next(walk))
            if (a > 0) == (b > 0):  # a / b > 0 (a != 0); // floors for either sign of b
                tl, th = tl * a // b, -(-th * a // b)
            else:
                tl, th = th * a // b, -(-tl * a // b)
        # the sum minus and plus twice the term, floored and ceiled: an end is decided
        # when both ends of its own interval round alike, and a final pass takes it
        # outward once the intervals are under one step together (width <= 2^-p)
        ends = ((lo - 2 * big) >> guard, -(-(hi + 2 * big) >> guard))
        decided = big <= limit and ends == ((hi - 2 * small) >> guard,
                                            -(-(lo + 2 * small) >> guard))
        if decided or final and hi - lo + 4 * (big - small) < 1 << guard:
            return Grid(*ends, 1 << (precision_bits + 2))
        guard, final = max(2 * guard, top.bit_length() - w + 2 * n.bit_length() + 32), True


def f_derivative_enclosure(spec: ProblemSpec, j: int, k: int, sigma: int,
                           precision_bits: int) -> Enclosure:
    """Enclosure of f^(sigma)(alpha_j q^k), width <= 2^-precision_bits."""
    if (j, k, sigma) not in spec.var_indices:
        raise ValueError(f"(j, k, sigma) = ({j}, {k}, {sigma}) outside the value slots")
    return _series_grid(spec, j, k, sigma, precision_bits).enclosure()


def value_table(spec: ProblemSpec, precision_bits: int) -> tuple[Grid, ...]:
    """The dS values f^(sigma)(alpha_j q^k) as Grids over 2^(precision_bits + 2)
    in var_indices order, memoized per precision in spec.value_tables."""
    table = spec.value_tables.get(precision_bits)
    if table is None:
        table = spec.value_tables.setdefault(precision_bits, tuple(
            _series_grid(spec, *jks, precision_bits) for jks in spec.var_indices))
    return table


def lambda_grid(spec: ProblemSpec, A: Sequence, precision_bits: int) -> Grid:
    """A_0 + sum A_{j,k,sigma} f^(sigma)(alpha_j q^k) as a Grid whose den is
    the lcm of A's denominators times 2^(precision_bits + 2)."""
    if len(A) != spec.n_vars:
        raise ValueError(f"A must have length {spec.n_vars}")
    table = value_table(spec, precision_bits)
    w = precision_bits + 2
    nums, den = over_lcm(A)
    lo = hi = nums[0] << w
    for c, (e_lo, e_hi, _) in zip(nums[1:], table):
        if c > 0:
            lo, hi = lo + c * e_lo, hi + c * e_hi
        elif c < 0:
            lo, hi = lo + c * e_hi, hi + c * e_lo
    return Grid(lo, hi, den << w)


def lambda_enclosure(spec: ProblemSpec, A: Sequence, precision_bits: int) -> Enclosure:
    """Enclosure of A_0 + sum A_{j,k,sigma} f^(sigma)(alpha_j q^k)."""
    return lambda_grid(spec, A, precision_bits).enclosure()


def omega_from_vector(spec: ProblemSpec, rest: Sequence, precision_bits: int) -> Grid:
    """omega_0 = -sum rest_i f^(sigma)(alpha_j q^k) as a Grid whose den is a
    multiple of every denominator in rest."""
    if len(rest) != spec.n_vars - 1:
        raise ValueError(f"rest must have length {spec.n_vars - 1}")
    return -lambda_grid(spec, (0, *rest), precision_bits)


def evaluate_form(form: LinearForm, rest: Sequence, omega0: Grid) -> Grid:
    """The form at (omega_0, rest) as a Grid over omega0.den * form.den, for omega_0
    in the Grid omega0 from omega_from_vector; lo == hi when the x_0 slot is 0.
    omega0.den must be a multiple of rest's common denominator (ValueError)."""
    c0, *cs = form.nums
    if len(cs) != len(rest):
        raise ValueError(f"form has {len(cs)} rest slots, rest has length {len(rest)}")
    lo, hi, den = omega0
    if c0 < 0:
        lo, hi = hi, lo
    nums, L = over_lcm(rest)
    scale, off = divmod(den, L)
    if off:
        raise ValueError(f"omega0's denominator {den} is not a multiple of rest's, {L}")
    e = sum(c * r for c, r in zip(cs, nums)) * scale
    return Grid(e + c0 * lo, e + c0 * hi, den * form.den)


def functional_equation_residual(
    spec: ProblemSpec,
    omega_rest: Sequence,
    omega0: Union[Fraction, int, str],
    N: int,
) -> list[Fraction]:
    """First N+1 power-series coefficients of
    (1 - p_0 z) F(z) - sum_{nu=1..d} p_nu q^nu z F(q^nu z) - R(z),
    where F generates v_n(omega) and R(z) = omega_0 + sum u_n(omega) z^n.

    Holds for any rational omega. v_n(omega) comes from the cached v-forms
    and P(q^n) from spec.P and q, not from the spec.p_terms integers that
    v_form uses, so this cross-checks the form recurrence.

    With omega = w / b over the lcm b of its denominators, degree n is one
    integer over den_n b, where den_n = D^n q2^(d n (n+1)/2) is v_n's own
    denominator: v_n's numerators dotted with w, minus the same for v_(n-1)
    times the integer D q2^(dn) P(q^n), minus q2^(d n (n+1)/2) times
    sum_i w_i ff(n, sigma_i) D^n z_i^(n - sigma_i), whose powers step by the
    integers D z_i. A memo entry over another denominator (a planted one) is
    taken over the lcm, so its residual stays exact. Only a nonzero residual
    becomes a Fraction.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    w, b = over_lcm((omega0, *omega_rest))
    if len(w) != spec.n_vars:
        raise ValueError("vector length does not match the variable set")
    D, d, q2 = spec.clearing_D, spec.d, spec.q_den
    steps = [spec.q_num ** nu * q2 ** (d - nu) for nu in range(d + 1)]
    terms = [(D * p).numerator for p in spec.P.coefficients]
    slots = [(sigma, (D * spec.point_arg(j, k)).numerator) for j, k, sigma in spec.var_indices]
    powers = [D ** sigma for sigma, _ in slots]
    # v_n(omega) = x / (e den_n b); at degree 0, c x_prev / e_prev = omega_0 b
    c, x_prev, e_prev = 1, w[0], 1
    q2_dn = q2_tri = den = 1
    residuals = []
    for n in range(N + 1):
        if n:
            terms = [t * s for t, s in zip(terms, steps)]
            c = sum(terms)
            q2_dn *= q2 ** d
            q2_tri *= q2_dn
            den *= D * q2_dn
            powers = [h * z if n > sigma else h for h, (sigma, z) in zip(powers, slots)]
        form = v_form(spec, n)
        k = e = 1
        if form.den != den:
            g = math.gcd(den, form.den)
            k, e = den // g, form.den // g
        x = k * sum(a * wi for a, wi in zip(form.nums, w))
        u = sum(wi * falling_factorial(n, s) * h for wi, (s, _), h in zip(w[1:], slots, powers))
        r = x * e_prev - (c * x_prev + q2_tri * u * e_prev) * e
        residuals.append(Fraction(r, den * b * e * e_prev) if r else Fraction(0))
        x_prev, e_prev = x, e
    return residuals
