"""Construction of the auxiliary linear forms.

The variable vector is (x_0, x_{j,k,sigma}) in the canonical order given by
ProblemSpec.var_indices; forms are dense coefficient tuples of length
1 + dS with slot 0 holding the x_0 coefficient.

The v-sequence is produced by the first-order recurrence
v_n = P(q^n) v_{n-1} + u_n and memoized per spec; the operator products are
expanded once per (l, delta) into a shift polynomial and applied as a dot
product over the cached window.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .errors import DomainViolation
from .problem import ProblemSpec, clearing_denominator


@dataclass(frozen=True)
class LinearForm:
    """Linear form with exact rational coefficients, slot 0 = x_0."""

    coeffs: tuple[Fraction, ...]

    def __add__(self, other: "LinearForm") -> "LinearForm":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("forms over different variable sets")
        return LinearForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("forms over different variable sets")
        return LinearForm(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, c: Fraction) -> "LinearForm":
        return LinearForm(tuple(c * a for a in self.coeffs))

    @property
    def x0(self) -> Fraction:
        return self.coeffs[0]


@dataclass(frozen=True)
class IntegerLinearForm:
    """Linear form with integer coefficients; produced only by w_form."""

    coeffs: tuple[int, ...]

    @property
    def x0(self) -> int:
        return self.coeffs[0]


FormLike = Union[LinearForm, IntegerLinearForm]
VProvider = Callable[[ProblemSpec, int], LinearForm]


@dataclass(frozen=True)
class OperatorPoly:
    """Expansion of prod_{k=1..l} prod_j (1 - alpha_j q^(delta-k) B)^{s_j}
    as a polynomial in the backward shift B."""

    offset_delta: int
    l: int
    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class _SpecState:
    """Per-spec mutable cache: v-forms, P(q^n) values, operator expansions.

    Single writer at a time via the lock; readers always see a fully
    constructed prefix because lists only grow.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.lock = threading.RLock()
        self.v_forms: list[LinearForm] = []
        self.p_values: list[Fraction] = [Fraction(1)]  # slot n holds P(q^n); slot 0 unused
        self.operator_polys: dict[tuple[int, int], OperatorPoly] = {}
        self.clearing_D = clearing_denominator(spec)
        self.value_tables: dict = {}


_STATES: dict[ProblemSpec, _SpecState] = {}
_STATES_LOCK = threading.Lock()


def _state(spec: ProblemSpec) -> _SpecState:
    with _STATES_LOCK:
        st = _STATES.get(spec)
        if st is None:
            st = _SpecState(spec)
            _STATES[spec] = st
        return st


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
    coeffs = [Fraction(0)]
    for j, k, sigma in spec.var_indices:
        ff = falling_factorial(n, sigma)
        if ff == 0:
            coeffs.append(Fraction(0))
        else:
            coeffs.append(ff * spec.point_arg(j, k) ** (n - sigma))
    return LinearForm(tuple(coeffs))


def p_at(spec: ProblemSpec, n: int) -> Fraction:
    """Memoized P(q^n) for n >= 1."""
    st = _state(spec)
    with st.lock:
        while len(st.p_values) <= n:
            st.p_values.append(spec.P(spec.q ** len(st.p_values)))
        return st.p_values[n]


def v_form(spec: ProblemSpec, n: int) -> LinearForm:
    """v_n by the recurrence v_n = P(q^n) v_{n-1} + u_n, v_0 = x_0 + u_0."""
    if n < 0:
        raise DomainViolation("v_n requires n >= 0")
    st = _state(spec)
    with st.lock:
        if not st.v_forms:
            base = u_form(spec, 0)
            st.v_forms.append(LinearForm((Fraction(1),) + base.coeffs[1:]))
        while len(st.v_forms) <= n:
            i = len(st.v_forms)
            st.v_forms.append(st.v_forms[i - 1].scale(p_at(spec, i)) + u_form(spec, i))
        return st.v_forms[n]


def expand_shift_factors(factors: list[Fraction]) -> tuple[Fraction, ...]:
    """Coefficients of prod_a (1 - a X) for the given multiset of a's."""
    coeffs = [Fraction(1)]
    for a in factors:
        nxt = coeffs + [Fraction(0)]
        for i in range(len(coeffs), 0, -1):
            nxt[i] -= a * coeffs[i - 1]
        coeffs = nxt
    return tuple(coeffs)


def operator_poly(spec: ProblemSpec, l: int, delta: int = 0) -> OperatorPoly:
    """Expanded product prod_{k=1..l} prod_j (1 - alpha_j q^(delta-k) B)^{s_j}."""
    if l < 0:
        raise DomainViolation("operator order l must be >= 0")
    st = _state(spec)
    with st.lock:
        cached = st.operator_polys.get((l, delta))
        if cached is not None:
            return cached
        factors = []
        for k in range(1, l + 1):
            shift = spec.q ** (delta - k)
            for alpha, s in spec.points:
                factors.extend([alpha * shift] * s)
        poly = OperatorPoly(delta, l, expand_shift_factors(factors))
        st.operator_polys[(l, delta)] = poly
        return poly


def _apply_operator(
    spec: ProblemSpec, l: int, delta: int, index: int, v_at: VProvider
) -> LinearForm:
    """The (l, delta) operator product applied to the v-sequence at index,
    with v_i read from v_at(spec, i). The B^0 coefficient is always 1."""
    op = operator_poly(spec, l, delta)
    acc = v_at(spec, index)
    for t in range(1, len(op.coeffs)):
        c = op.coeffs[t]
        if c != 0:
            acc = acc + v_at(spec, index - t).scale(c)
    return acc


def vl_form(spec: ProblemSpec, l: int, n: int) -> LinearForm:
    """v_{l,n}: the order-l operator product applied to the v-sequence at n."""
    if n < spec.S * l:
        raise DomainViolation(f"v_(l,n) requires n >= S*l = {spec.S * l}, got n = {n}")
    return _apply_operator(spec, l, 0, n, v_form)


def w_form(spec: ProblemSpec, l: int, n: int) -> IntegerLinearForm:
    """Integerized form D^n q1^(S l (l+1)/2) q2^(d n (n+1)/2) v_{l,n}."""
    base = vl_form(spec, l, n)
    st = _state(spec)
    scale = (
        Fraction(st.clearing_D) ** n
        * Fraction(spec.q_num) ** (spec.S * l * (l + 1) // 2)
        * Fraction(spec.q_den) ** (spec.d * n * (n + 1) // 2)
    )
    ints = []
    for c in base.coeffs:
        scaled = c * scale
        if scaled.denominator != 1:
            raise AssertionError(f"w_(l={l},n={n}) coefficient {scaled} is not integral")
        ints.append(scaled.numerator)
    return IntegerLinearForm(tuple(ints))


def form_height(form: FormLike):
    """Max absolute value over all coefficients (including x_0)."""
    return max(abs(c) for c in form.coeffs)


def evaluate_exact(form: FormLike, vector) -> Fraction:
    """Exact value of the form at a rational vector (x_0 first)."""
    if len(vector) != len(form.coeffs):
        raise ValueError("vector length does not match the variable set")
    return sum(
        (Fraction(c) * Fraction(v) for c, v in zip(form.coeffs, vector)),
        start=Fraction(0),
    )


def form_to_json(spec: ProblemSpec, form: FormLike) -> dict:
    terms = []
    for (j, k, sigma), c in zip(spec.var_indices, form.coeffs[1:]):
        terms.append({"j": j, "k": k, "sigma": sigma, "c": str(c)})
    return {"x0": str(form.coeffs[0]), "terms": terms}
