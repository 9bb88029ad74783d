"""Rigorous enclosures of the series values f^(sigma)(alpha_j q^k).

The series sum_{n >= sigma} sigma! C(n,sigma) z^(n-sigma) / prod_{i<=n} P(q^i)
is summed exactly over the rationals and truncated once the remaining tail
is provably geometric with ratio <= 1/2:

  * beyond the dominance index k*, |P(q^i)| >= |p_d| |q|^(d i) / 2, and
  * past n >= 2 sigma the binomial ratio (n+1)/(n+1-sigma) is <= 2,

so the tail is at most twice the first omitted term. Everything downstream
(linear combinations, form evaluations, residuals) reads the resulting
enclosures on their integer grid or stays exactly rational.

Each value is rounded outward onto the grid 2^-w, w = precision_bits + 2,
so a combination A_0 + sum A_i f_i is one integer dot product: with A
scaled by the lcm den of its denominators, a positive coefficient adds
c lo_i 2^w to the lower sum and c hi_i 2^w to the upper one, a negative
coefficient swaps the two, and both sums lie over den 2^w. The memo entry
in spec.value_tables keeps, next to the Enclosure table, these grid
integers (lo_i 2^w, hi_i 2^w) in var_indices order; lambda_grid reads only
them, so the endpoints are the same rationals as interval sums of the table
entries and no call divides a big integer.

A linear form at omega = (omega_0, rest), omega_0 = -sum rest_i f_i, stays
on the same integers: omega_from_vector is lambda_grid of (0, rest) with
its ends negated and swapped, and evaluate_form adds c_0 times the end of
omega_0 that the sign of c_0 picks to the exact part sum c_i rest_i, all
over den times the form's own denominator. grid_enclosure turns a triple
into an Enclosure where a report prints it or takes its log.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .enclosure import Enclosure
from .errors import PrecisionCapExceeded
from .forms import LinearForm, falling_factorial, v_form
from .problem import ProblemSpec

_MAX_SERIES_TERMS = 1_000_000


def f_derivative_enclosure(
    spec: ProblemSpec, j: int, k: int, sigma: int, precision_bits: int
) -> Enclosure:
    """Enclosure of f^(sigma)(alpha_j q^k), width <= 2^-precision_bits."""
    if not (1 <= j <= spec.m and 0 <= k < spec.d and 0 <= sigma < spec.points[j - 1][1]):
        raise ValueError(f"(j, k, sigma) = ({j}, {k}, {sigma}) outside the value slots")
    z = spec.point_arg(j, k)
    absz = abs(z)
    absq = abs(spec.q)
    lead = abs(spec.P.leading)
    kstar = spec.dominance_index
    threshold = Fraction(1, 1 << (precision_bits + 1))

    # 1 / P(q^n) for n = 1, 2, ..., from the integers D q2^(dn) P(q^n)
    inv_p = (
        Fraction(spec.clearing_D * spec.q_den ** (spec.d * n), sum(terms))
        for n, terms in enumerate(spec.p_terms(), start=1)
    )
    # term n is sigma! C(n, sigma) z^(n-sigma) / prod_{i<=n} P(q^i)
    total = Fraction(0)
    term = Fraction(math.factorial(sigma)) * math.prod(next(inv_p) for _ in range(sigma))
    n = sigma
    while True:
        in_regime = (
            n >= 2 * sigma
            and n + 1 >= kstar
            and 8 * absz <= lead * absq ** (spec.d * (n + 1))
        )
        if in_regime and 4 * abs(term) <= threshold:
            tail = 2 * abs(term)
            break
        total += term
        n += 1
        term *= z * Fraction(n, n - sigma) * next(inv_p)
        if n - sigma > _MAX_SERIES_TERMS:
            raise PrecisionCapExceeded(
                f"series for f^({sigma}) at alpha_{j} q^{k} did not localize"
            )
    return Enclosure(total - tail, total + tail).outward_round(precision_bits + 2)


def value_table(spec: ProblemSpec, precision_bits: int) -> dict[tuple[int, int, int], Enclosure]:
    """All dS enclosures f^(sigma)(alpha_j q^k) at one precision, keyed by
    (j, k, sigma); memoized per (spec, precision) in spec.value_tables next to
    their ends times 2^(precision_bits + 2), which lambda_grid reads."""
    entry = spec.value_tables.get(precision_bits)
    if entry is None:
        w = precision_bits + 2
        table = {jks: f_derivative_enclosure(spec, *jks, precision_bits)
                 for jks in spec.var_indices}
        grid = tuple(((e.lo.numerator << w) // e.lo.denominator,
                      -((-e.hi.numerator << w) // e.hi.denominator)) for e in table.values())
        entry = spec.value_tables.setdefault(precision_bits, (table, grid))
    return entry[0]


def lambda_grid(spec: ProblemSpec, A: Sequence, precision_bits: int) -> tuple[int, int, int]:
    """Integers lo <= hi and den with A_0 + sum A_{j,k,sigma} f^(sigma)(alpha_j q^k)
    in [lo/den, hi/den]; den is the lcm of A's denominators times 2^(precision_bits + 2)."""
    if len(A) != spec.n_vars:
        raise ValueError(f"A must have length {spec.n_vars}")
    value_table(spec, precision_bits)  # fills the memo entry whose grid integers are read
    grid = spec.value_tables[precision_bits][1]
    w = precision_bits + 2
    A = [a if isinstance(a, int) else Fraction(a) for a in A]
    den = math.lcm(*(a.denominator for a in A))
    lo = hi = A[0].numerator * (den // A[0].denominator) << w
    for a, (e_lo, e_hi) in zip(A[1:], grid):
        c = a.numerator * (den // a.denominator)
        if c > 0:
            lo, hi = lo + c * e_lo, hi + c * e_hi
        elif c < 0:
            lo, hi = lo + c * e_hi, hi + c * e_lo
    return lo, hi, den << w


def grid_enclosure(grid: tuple[int, int, int]) -> Enclosure:
    """The Enclosure [lo/den, hi/den] of an integer triple (lo, hi, den)."""
    lo, hi, den = grid
    return Enclosure(Fraction(lo, den), Fraction(hi, den))


def lambda_enclosure(spec: ProblemSpec, A: Sequence, precision_bits: int) -> Enclosure:
    """Enclosure of A_0 + sum A_{j,k,sigma} f^(sigma)(alpha_j q^k)."""
    return grid_enclosure(lambda_grid(spec, A, precision_bits))


def omega_from_vector(
    spec: ProblemSpec, rest: Sequence, precision_bits: int
) -> tuple[int, int, int]:
    """Integers lo <= hi and den with omega_0 = -sum rest_i f^(sigma)(alpha_j q^k)
    in [lo/den, hi/den]; den is a multiple of every denominator in rest."""
    if len(rest) != spec.n_vars - 1:
        raise ValueError(f"rest must have length {spec.n_vars - 1}")
    lo, hi, den = lambda_grid(spec, (0, *rest), precision_bits)
    return -hi, -lo, den


def evaluate_form(
    form: LinearForm, rest: Sequence, omega0: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Integers lo <= hi and den with the form at (omega_0, rest) in
    [lo/den, hi/den], for omega_0 in omega0 = (lo, hi, den) / den from
    omega_from_vector; den * form.den is the result's denominator, and
    lo == hi when the x_0 slot is 0."""
    c0, *cs = form.nums
    if len(cs) != len(rest):
        raise ValueError(f"form has {len(cs)} rest slots, rest has length {len(rest)}")
    lo, hi, den = omega0
    if c0 < 0:
        lo, hi = hi, lo
    L = math.lcm(*(r.denominator for r in rest))
    e = sum(c * r.numerator * (L // r.denominator) for c, r in zip(cs, rest)) * (den // L)
    return e + c0 * lo, e + c0 * hi, den * form.den


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
    omega = LinearForm.of((omega0, *omega_rest))
    if len(omega.nums) != spec.n_vars:
        raise ValueError("vector length does not match the variable set")
    w, b = omega.nums, omega.den
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
