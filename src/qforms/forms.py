"""Construction of the auxiliary linear forms.

The variable vector is (x_0, x_{j,k,sigma}) in the canonical order given by
ProblemSpec.var_indices; slot 0 holds the x_0 coefficient.

A form is stored as integer numerators over one positive denominator that
is not reduced against them: sum_i nums[i] x_i / den. Sums take one gcd of
the two denominators, scaling multiplies numerators and denominator, and an
evaluation is one integer dot product with the numerators that `over_lcm`
gives a rational vector over its least common denominator, the package's
one such reduction. Only `coeffs` and `evaluate_exact` reduce, to the
same Fractions a rational form would hold.

v_n is kept over the known denominator D^n q2^(d n (n+1)/2), where the
recurrence v_n = P(q^n) v_{n-1} + u_n runs on integers, taking the integer
D q2^(dn) P(q^n) from ProblemSpec.p_terms; w_(l,n) is v_(l,n) rescaled to
denominator 1. The operator products are expanded once per (l, delta) into
a shift polynomial and applied over the cached window. v_n, w_(l,n) and
the operator expansions are memoized on the ProblemSpec instance itself (its
v_forms, w_forms and operator_polys), so the memo lives as long as the
caller keeps the spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainViolation
from .problem import ProblemSpec


def over_lcm(values: Sequence) -> tuple[list[int], int]:
    """(nums, den): the rationals values[i] = nums[i] / den over their least
    common denominator den; an int passes through unconverted."""
    vals = [v if isinstance(v, int) else Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


@dataclass(frozen=True, eq=False)
class LinearForm:
    """sum_i nums[i] x_i / den: integer nums, positive den, slot 0 = x_0."""

    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        if not (isinstance(self.den, int) and self.den > 0):
            raise ValueError(f"form denominator must be a positive integer, got {self.den!r}")

    @classmethod
    def of(cls, coeffs: Sequence) -> "LinearForm":
        """The form with these rational coefficients, over their least common denominator."""
        nums, den = over_lcm(coeffs)
        return cls(tuple(nums), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.nums)

    def __eq__(self, other) -> bool:
        """Cross-multiplied: equal forms over different denominators compare equal."""
        if not isinstance(other, LinearForm):
            return NotImplemented
        return len(self.nums) == len(other.nums) and not any((self - other).nums)

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        """Over lcm(den, other.den), from one gcd of the two denominators."""
        if len(self.nums) != len(other.nums):
            raise ValueError("forms over different variable sets")
        g = math.gcd(self.den, other.den)
        a, b = other.den // g, self.den // g
        nums = tuple(x * a + y * b for x, y in zip(self.nums, other.nums))
        return LinearForm(nums, self.den * a)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + other.scale(-1)

    def scale(self, c) -> "LinearForm":
        c = Fraction(c)
        return LinearForm(tuple(a * c.numerator for a in self.nums), self.den * c.denominator)


def falling_factorial(n: int, sigma: int) -> int:
    """n (n-1) ... (n-sigma+1), i.e. sigma! * C(n, sigma); defined for all n in Z."""
    out = 1
    for i in range(sigma):
        out *= n - i
    return out


def u_form(spec: ProblemSpec, n: int) -> LinearForm:
    """Coefficient of x_{j,k,sigma} is sigma! C(n,sigma) (alpha_j q^k)^(n-sigma).

    Valid for every n in Z; negative exponents are exact rational powers.
    The x_0 coefficient is zero.
    """
    coeffs = [0]
    for j, k, sigma in spec.var_indices:
        ff = falling_factorial(n, sigma)
        coeffs.append(ff * spec.point_arg(j, k) ** (n - sigma) if ff else 0)
    return LinearForm.of(coeffs)


def _over(form: LinearForm, den: int, what: str) -> tuple[int, ...]:
    """Numerators of form over den; raises unless form.den divides den,
    i.e. unless den * form has integer coefficients."""
    factor, rest = divmod(den, form.den)
    if rest:
        raise AssertionError(f"{what} is not integral")
    return tuple(a * factor for a in form.nums)


def v_form(spec: ProblemSpec, n: int) -> LinearForm:
    """v_n by the recurrence v_n = P(q^n) v_{n-1} + u_n, v_0 = x_0 + u_0,
    over the denominator D^n q2^(d n (n+1)/2)."""
    if n < 0:
        raise DomainViolation("v_n requires n >= 0")
    memo = spec.v_forms
    if not memo:
        memo.setdefault(0, LinearForm((1,) + _over(u_form(spec, 0), 1, "u_0")[1:]))
    # entry i is published only after i - 1, so len(memo) - 1 is the last key
    start = len(memo)
    for i, terms in zip(range(start, n + 1), spec.p_terms(start)):
        prev = memo[i - 1]
        p = sum(terms)
        den = prev.den * spec.clearing_D * spec.q_den ** (spec.d * i)
        u = _over(u_form(spec, i), den, f"D^n q2^(d n (n+1)/2) u_n at n = {i}")
        memo.setdefault(i, LinearForm(tuple(a * p + b for a, b in zip(prev.nums, u)), den))
    return memo[n]


def expand_shift_factors(factors: list[Fraction]) -> tuple[Fraction, ...]:
    """Coefficients of prod_a (1 - a X) for the given multiset of a's."""
    coeffs = [Fraction(1)]
    for a in factors:
        nxt = coeffs + [Fraction(0)]
        for i in range(len(coeffs), 0, -1):
            nxt[i] -= a * coeffs[i - 1]
        coeffs = nxt
    return tuple(coeffs)


def operator_poly(spec: ProblemSpec, l: int, delta: int = 0) -> tuple[Fraction, ...]:
    """Coefficients of prod_{k=1..l} prod_j (1 - alpha_j q^(delta-k) B)^{s_j}
    as a polynomial in the backward shift B, constant term first."""
    if l < 0:
        raise DomainViolation("operator order l must be >= 0")
    poly = spec.operator_polys.get((l, delta))
    if poly is None:
        factors = []
        for k in range(1, l + 1):
            shift = spec.q ** (delta - k)
            for alpha, s in spec.points:
                factors.extend([alpha * shift] * s)
        poly = spec.operator_polys.setdefault((l, delta), expand_shift_factors(factors))
    return poly


def vl_form(spec: ProblemSpec, l: int, n: int, delta: int = 0) -> LinearForm:
    """v_{l,n}: the order-l operator product with shift index delta (see
    operator_poly) applied to the v-sequence at n. The B^0 coefficient is
    always 1."""
    if n < spec.S * l:
        raise DomainViolation(f"v_(l,n) requires n >= S*l = {spec.S * l}, got n = {n}")
    op = operator_poly(spec, l, delta)
    acc = v_form(spec, n)
    for t in range(1, len(op)):
        c = op[t]
        if c != 0:
            acc = acc + v_form(spec, n - t).scale(c)
    return acc


def w_form(spec: ProblemSpec, l: int, n: int) -> LinearForm:
    """Integerized form D^n q1^(S l (l+1)/2) q2^(d n (n+1)/2) v_{l,n}: the
    numerators of v_{l,n} over that scale, over denominator 1; memoized per
    (spec, l, n) in spec.w_forms."""
    form = spec.w_forms.get((l, n))
    if form is None:
        scale = (
            spec.clearing_D ** n
            * spec.q_num ** (spec.S * l * (l + 1) // 2)
            * spec.q_den ** (spec.d * n * (n + 1) // 2)
        )
        form = LinearForm(_over(vl_form(spec, l, n), scale, f"w_(l={l},n={n})"))
        form = spec.w_forms.setdefault((l, n), form)
    return form


def form_height(form: LinearForm) -> Fraction:
    """Max absolute value over all coefficients (including x_0)."""
    return Fraction(max(abs(a) for a in form.nums), form.den)


def evaluate_exact(form: LinearForm, vector: Sequence) -> Fraction:
    """Exact value of the form at a rational vector (x_0 first): one integer
    dot product over form.den times the vector's common denominator."""
    if len(vector) != len(form.nums):
        raise ValueError("vector length does not match the variable set")
    nums, den = over_lcm(vector)
    return Fraction(sum(a * v for a, v in zip(form.nums, nums)), form.den * den)


def form_to_json(spec: ProblemSpec, form: LinearForm) -> dict:
    x0, *rest = form.coeffs
    terms = [
        {"j": j, "k": k, "sigma": sigma, "c": str(c)}
        for (j, k, sigma), c in zip(spec.var_indices, rest)
    ]
    return {"x0": str(x0), "terms": terms}
