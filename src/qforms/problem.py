"""Problem specification, validation, and the scalar measure parameters.

A problem is q = q1/q2, a polynomial P over Q with deg P >= 1, and points
(alpha_j, s_j). Validation performs every side condition exactly over the
rationals; no floating point is involved anywhere in this module except
through the interval log kernel used for gamma.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .enclosure import Enclosure, ceil_to_grid, log_enclosure, sqrt_enclosure
from .errors import (
    Condition1Violated,
    Condition2Violated,
    InvalidSpec,
    PRootAtQPower,
    QNotAdmissible,
    UndecidableAtCap,
)
from .util import DEFAULT_PRECISION_CAP, PrecisionPolicy


@dataclass(frozen=True)
class PolynomialQ:
    """Polynomial over Q stored as coefficients p_0 .. p_d."""

    coefficients: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coefficients) < 2:
            raise InvalidSpec("polynomial must have degree >= 1")
        if self.coefficients[-1] == 0:
            raise InvalidSpec("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading(self) -> Fraction:
        return self.coefficients[-1]

    @property
    def constant(self) -> Fraction:
        return self.coefficients[0]

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def is_monomial(self) -> bool:
        return all(c == 0 for c in self.coefficients[:-1])


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem instance. Construct via validate_spec only."""

    q_num: int
    q_den: int
    P: PolynomialQ
    points: tuple[tuple[Fraction, int], ...]

    @cached_property
    def q(self) -> Fraction:
        return Fraction(self.q_num, self.q_den)

    @property
    def d(self) -> int:
        return self.P.degree

    @property
    def m(self) -> int:
        return len(self.points)

    @cached_property
    def S(self) -> int:
        return sum(s for _, s in self.points)

    @cached_property
    def eps0(self) -> int:
        return 1 if self.P.is_monomial() else 0

    @cached_property
    def dominance_index(self) -> int:
        """Least k* >= 1 with sum_{nu<d} |p_nu| |q|^(nu k) <= |p_d| |q|^(d k) / 2
        for k = k*; monotonicity extends the bound to every k >= k*.

        At every such k the leading term strictly dominates, so P(q^k) != 0.
        """
        # the same test on the terms of D q2^(dk) P(q^k)
        for k, terms in enumerate(self.p_terms(), start=1):
            if 2 * sum(abs(t) for t in terms[:-1]) <= abs(terms[-1]):
                return k

    def p_terms(self, n: int = 1):
        """For n, n + 1, ...: the d + 1 integers D p_nu q1^(nu n) q2^((d-nu) n),
        D = clearing_D, whose sum is D q2^(dn) P(q^n); one multiplication
        per term steps n."""
        steps = [self.q_num ** nu * self.q_den ** (self.d - nu) for nu in range(self.d + 1)]
        terms = []
        for nu, c in enumerate(self.P.coefficients):
            dc = self.clearing_D * c
            if dc.denominator != 1:
                raise AssertionError(f"D p_{nu} is not integral")
            terms.append(dc.numerator * steps[nu] ** n)
        while True:
            yield terms
            terms = [t * f for t, f in zip(terms, steps)]

    @cached_property
    def var_indices(self) -> tuple[tuple[int, int, int], ...]:
        """Canonical (j, k, sigma) order for the non-x0 variables; j is 1-based."""
        out = []
        for j, (_, s) in enumerate(self.points, start=1):
            for k in range(self.d):
                for sigma in range(s):
                    out.append((j, k, sigma))
        return tuple(out)

    @cached_property
    def clearing_D(self) -> int:
        """Least positive D with D*P in Z[z] and D*alpha_j*q^k in Z (0 <= k < d)."""
        dens = [c.denominator for c in self.P.coefficients]
        for j in range(1, self.m + 1):
            for k in range(self.d):
                dens.append(self.point_arg(j, k).denominator)
        return math.lcm(*dens)

    # Memos of derived data. Each is filled and read by one module only and
    # lives exactly as long as this spec. An entry is a pure function of
    # (spec, key) published with one dict.setdefault, so concurrent callers
    # can at worst repeat work, never see a wrong or partial entry.

    @cached_property
    def v_forms(self) -> dict:
        """forms.v_form: n -> v_n; the keys are always a prefix 0..k-1."""
        return {}

    @cached_property
    def w_forms(self) -> dict:
        """forms.w_form: (l, n) -> w_(l,n); certify asks for one window of
        dS + 1 values of n per l."""
        return {}

    @cached_property
    def operator_polys(self) -> dict:
        """forms.operator_poly: (l, delta) -> the shift polynomial's coefficients."""
        return {}

    @cached_property
    def value_tables(self) -> dict:
        """series.value_table: precision_bits -> the values f^(sigma)(alpha_j q^k)
        as series.Grid over 2^(precision_bits + 2), one tuple in var_indices order."""
        return {}

    @property
    def n_vars(self) -> int:
        return 1 + self.d * self.S

    def point_arg(self, j: int, k: int) -> Fraction:
        """The evaluation point alpha_j * q^k."""
        return self.points[j - 1][0] * self.q ** k

    def to_json(self) -> dict:
        return {
            "q": {"num": str(self.q_num), "den": str(self.q_den)},
            "P": [str(c) for c in self.P.coefficients],
            "points": [{"alpha": str(a), "s": s} for a, s in self.points],
        }


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise InvalidSpec(f"cannot interpret {x!r} as a rational")


def q_power_exponent(x: Fraction, q: Fraction) -> Optional[int]:
    """Exact t with x = q^t, or None. Requires |q| > 1, x != 0.

    In lowest terms q^t = q1^t / q2^t with |q1| >= 2, so |t| is the number
    of times |q1| divides the numerator of max(|x|, 1/|x|); one exact power
    then settles the sign and the denominator.
    """
    if x == 0:
        return None
    q1, absx = abs(q.numerator), abs(x)
    num, t = max(absx, 1 / absx).numerator, 0
    while num % q1 == 0:
        num //= q1
        t += 1
    if absx < 1:
        t = -t
    return t if q ** t == x else None


def validate_spec(
    q_num: int,
    q_den: int,
    p_coefficients: Sequence,
    points: Sequence,
) -> ProblemSpec:
    """Validate a raw candidate and return the canonical ProblemSpec.

    q is reduced automatically; |q1| <= |q2| is rejected. The remaining
    checks are the exact versions of the admissibility conditions:
    P(q^n) != 0 for n in N (rational root theorem), alpha_j/alpha_k not a
    q-power for j != k, and alpha_j != P(0) q^n for n >= 1.
    """
    if q_den == 0:
        raise QNotAdmissible("q denominator is zero")
    if q_num == 0:
        raise QNotAdmissible("q is zero")
    g = math.gcd(q_num, q_den)
    q1, q2 = q_num // g, q_den // g
    if q2 < 0:
        q1, q2 = -q1, -q2
    if abs(q1) <= abs(q2):
        raise QNotAdmissible(f"|q1| > |q2| required, got q = {q1}/{q2}")
    q = Fraction(q1, q2)

    P = PolynomialQ(tuple(_as_fraction(c) for c in p_coefficients))

    if not points:
        raise InvalidSpec("at least one point (alpha_j, s_j) is required")
    pts = []
    for alpha_raw, s in points:
        alpha = _as_fraction(alpha_raw)
        if alpha == 0:
            raise InvalidSpec("alpha_j must be nonzero")
        if not isinstance(s, int) or s < 1:
            raise InvalidSpec("multiplicities s_j must be positive integers")
        pts.append((alpha, int(s)))
    spec = ProblemSpec(q1, q2, P, tuple(pts))

    # P(q^n) != 0 for all n >= 1. D P is z^k R(z) with R(0) = c != 0; by the
    # rational root theorem a root q1^n/q2^n (lowest terms) of R needs q1^n | c,
    # which as |q1| >= 2 holds for at most c.bit_length() values of n.
    walk = spec.p_terms(0)
    c = next(t for t in next(walk) if t)
    for n, terms in enumerate(walk, start=1):
        if c % q1 ** n:
            break
        if not sum(terms):
            raise PRootAtQPower(n)

    # condition 1: alpha_j / alpha_k not in q^Z
    for j in range(len(pts)):
        for k in range(j + 1, len(pts)):
            t = q_power_exponent(pts[j][0] / pts[k][0], q)
            if t is not None:
                raise Condition1Violated(j + 1, k + 1, t)

    # condition 2: alpha_j not in P(0) q^N (N = {1, 2, ...}); vacuous if P(0) = 0
    p0 = P.constant
    if p0 != 0:
        for j, (alpha, _) in enumerate(pts, start=1):
            t = q_power_exponent(alpha / p0, q)
            if t is not None and t >= 1:
                raise Condition2Violated(j, t)

    return spec


def gamma_enclosure(spec: ProblemSpec, precision_bits: int) -> Enclosure:
    """Enclosure of log|q2| / log|q1| with width exactly 2^-precision_bits.

    Exactly [0, 0] when |q2| = 1. Otherwise the returned interval is
    re-centred on a dyadic midpoint so that its width is a deterministic
    function of precision_bits (precision_bits + 1 at least halves it).
    """
    if abs(spec.q_den) == 1:
        return Enclosure.zero()
    pb = precision_bits
    # each log is 2^-(pb+8) wide and log|q1| >= log 2, so the quotient is at
    # most 2.9 * 2^-(pb+8) wide
    core = log_enclosure(abs(spec.q_den), pb + 8) / log_enclosure(abs(spec.q_num), pb + 8)
    if core.width > Fraction(1, 1 << (pb + 4)):
        raise AssertionError(f"log|q2| / log|q1| wider than 2^-{pb + 4} at {pb + 8} bits")
    mid = ceil_to_grid(core.midpoint, pb + 4)
    half = Fraction(1, 1 << (pb + 1))
    return Enclosure(mid - half, mid + half)


@dataclass(frozen=True)
class MeasureParams:
    """The scalar quantities steering the measure machinery.

    a_midpoint, n0_slope and log_q1 are the constants of choose_parameters,
    computed once by measure_params (the only constructor) and left out of
    to_json: the midpoint of a = (1 - M gamma)/d * sqrt((dS)^2 + (1 - eps0) dS
    + eps0^2/4), the root to 96 bits; (M - 1).hi / d, the slope of n0 in l;
    and log|q1| to 64 bits, the unit of L.
    """

    S: int
    eps0: int
    gamma: Enclosure
    M: Enclosure
    mu: Optional[Enclosure]
    applicable: bool
    precision_bits: int
    a_midpoint: Fraction
    n0_slope: Fraction
    log_q1: Enclosure

    def to_json(self) -> dict:
        return {
            "S": self.S,
            "eps0": self.eps0,
            "gamma": self.gamma.to_json(),
            "M": self.M.to_json(),
            "mu": self.mu.to_json() if self.mu is not None else "inapplicable",
            "applicable": self.applicable,
            "precision_bits": self.precision_bits,
        }


def m_enclosure(spec: ProblemSpec, precision_bits: int) -> Enclosure:
    """Enclosure of M: dS + 1/2 + sqrt(d^2 S^2 + 1/4) in the monomial case,
    dS + 1 + sqrt(dS (dS + 1)) otherwise."""
    ds = Fraction(spec.d * spec.S)
    if spec.eps0 == 1:
        return sqrt_enclosure(ds * ds + Fraction(1, 4), precision_bits + 1) + (
            ds + Fraction(1, 2)
        )
    return sqrt_enclosure(ds * (ds + 1), precision_bits + 1) + (ds + 1)


def measure_params(
    spec: ProblemSpec,
    precision_bits: int = 128,
    precision_cap: int = DEFAULT_PRECISION_CAP,
) -> MeasureParams:
    """Compute S, eps0, gamma, M, mu and decide gamma < 1/M rigorously.

    The strict inequality is decided through the product M*gamma: its
    enclosure either certifies hi < 1 (applicable) or lo >= 1
    (inapplicable); otherwise precision doubles up to the cap, and a tie
    at the cap raises UndecidableAtCap rather than guessing. The first
    separating rung fixes gamma, M and precision_bits; from that rung on,
    mu = (M - 1) / (1 - M*gamma) is refined to width 2^-precision_bits.
    """
    @functools.cache  # the mu climb starts at the separating rung
    def rung(bits: int) -> tuple[Enclosure, Enclosure, Enclosure]:
        gamma_b, M_b = gamma_enclosure(spec, bits), m_enclosure(spec, bits)
        return gamma_b, M_b, M_b * gamma_b

    def mu_at(bits: int) -> Enclosure:
        _, M_b, prod_b = rung(bits)
        return (M_b - 1) / (1 - prod_b)

    (gamma, M, prod), pb = PrecisionPolicy(precision_bits, precision_cap).refine(
        rung, lambda r: not r[2].lo < 1 <= r[2].hi)
    if pb is None:
        raise UndecidableAtCap(f"gamma vs 1/M not separated at {precision_cap} bits "
                               f"(M*gamma in [{prod.lo}, {prod.hi}])")
    mu = None
    if prod.hi < 1:
        # M*gamma < 1 at pb holds on every later rung: the enclosures nest across
        # rungs (gamma's re-centred interval at a higher rung lies inside the
        # lower rung's, and M's isqrt brackets nest), so their product does too
        target = Fraction(1, 1 << precision_bits)
        mu, _ = PrecisionPolicy(pb, precision_cap).refine(mu_at, lambda m: m.width <= target)
    ds = spec.d * spec.S
    root = sqrt_enclosure(ds * ds + (1 - spec.eps0) * ds + Fraction(spec.eps0 ** 2, 4), 96)
    a = (1 - M * gamma) * Fraction(1, spec.d) * root
    return MeasureParams(
        S=spec.S,
        eps0=spec.eps0,
        gamma=gamma,
        M=M,
        mu=mu,
        applicable=mu is not None,
        precision_bits=pb,
        a_midpoint=a.midpoint,
        n0_slope=(M - 1).hi / spec.d,
        log_q1=log_enclosure(abs(spec.q_num), 64),
    )
