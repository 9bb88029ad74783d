"""Batch verification: exact identity suite, growth/smallness reports, and
the non-vanishing window scan.

Every identity check is an exact rational equality over an explicit grid;
failures carry a reproducible witness. The bounds report compares exact
heights and enclosure logs against the predicted growth shapes and reports
fitted per-(n+1) constants instead of asserting asymptotics directly.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .enclosure import Enclosure, log_enclosure, log_of_enclosure
from .errors import DomainViolation, ZeroOmega
from .forms import (
    LinearForm,
    evaluate_exact,
    form_height,
    u_form,
    v_form,
    vl_form,
    w_form,
)
from .problem import ProblemSpec
from .series import Grid, evaluate_form, functional_equation_residual, omega_from_vector
from .util import DEFAULT_PRECISION_CAP, PrecisionPolicy, random_rational, random_rational_vector


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    domain: str
    passed: bool
    counterexample: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"name": self.name, "domain": self.domain, "passed": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _form_str(form: LinearForm) -> str:
    return "[" + ", ".join(str(c) for c in form.coeffs) + "]"


def _check_recurrence(spec: ProblemSpec, n_max: int) -> IdentityCheck:
    # the rational P(q^n), not v_form's integer walk: the check must not restate it
    domain = f"1 <= n <= {n_max}, coefficient-wise"
    for n in range(1, n_max + 1):
        lhs = v_form(spec, n)
        rhs = v_form(spec, n - 1).scale(spec.P(spec.q ** n)) + u_form(spec, n)
        if lhs != rhs:
            return IdentityCheck(
                "recurrence",
                domain,
                False,
                {"n": n, "lhs": _form_str(lhs), "rhs": _form_str(rhs)},
            )
    return IdentityCheck("recurrence", domain, True)


def _check_main_relation(spec: ProblemSpec, l_max: int) -> IdentityCheck:
    d = spec.d
    domain = f"{d} <= l <= {l_max}, S*l <= n <= S*l + 10, coefficient-wise"
    p = spec.P.coefficients
    q = spec.q
    for l in range(d, l_max + 1):
        for n in range(spec.S * l, spec.S * l + 11):
            lhs = vl_form(spec, l, n).scale(p[d])
            rhs = vl_form(spec, l, n + 1, d).scale(q ** (-d * (n + 1)))
            for nu in range(1, d + 1):
                term = vl_form(spec, l, n, nu).scale(p[d - nu] * q ** (-nu * (n + 1)))
                rhs = rhs - term
            if lhs != rhs:
                return IdentityCheck(
                    "main_relation",
                    domain,
                    False,
                    {"l": l, "n": n, "lhs": _form_str(lhs), "rhs": _form_str(rhs)},
                )
    return IdentityCheck("main_relation", domain, True)


def _check_functional_equation(
    spec: ProblemSpec, series_N: int, rng: random.Random, omega_count: int
) -> IdentityCheck:
    domain = f"{omega_count} seeded rational omega, degrees 0..{series_N}"
    for trial in range(omega_count):
        omega0 = random_rational(rng)
        rest = random_rational_vector(rng, spec.n_vars - 1)
        residuals = functional_equation_residual(spec, rest, omega0, series_N)
        for n, r in enumerate(residuals):
            if r != 0:
                return IdentityCheck(
                    "functional_equation",
                    domain,
                    False,
                    {"trial": trial, "degree": n, "residual": str(r),
                     "omega0": str(omega0), "rest": [str(c) for c in rest]},
                )
    return IdentityCheck("functional_equation", domain, True)


def check_identities(
    spec: ProblemSpec,
    n_max: int = 100,
    l_max: Optional[int] = None,
    series_N: int = 100,
    rng_seed: int = 0,
    omega_count: int = 5,
) -> IdentityReport:
    """Run the three exact identity checks over their stated grids.

    All three read the v-sequence from v_form, so they check the memo on the
    spec itself; the main relation also reads spec.operator_polys, the
    expansions of the shift operators. rng_seed seeds the functional
    equation's omegas.
    """
    if n_max < 1:
        raise DomainViolation("n_max must be at least 1")
    if l_max is None:
        l_max = spec.d + 3
    if l_max < spec.d:
        raise DomainViolation("l_max must be at least d")
    checks = (
        _check_recurrence(spec, n_max),
        _check_main_relation(spec, l_max),
        _check_functional_equation(spec, series_N, random.Random(rng_seed), omega_count),
    )
    return IdentityReport(checks)


# ---------------------------------------------------------------------------
# growth / smallness report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeightRow:
    l: int
    n: int
    log_height_q1: Enclosure
    main_term: Fraction
    residual_per_n: Enclosure

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "n": self.n,
            "log_height_q1": self.log_height_q1.to_json(),
            "main_term": str(self.main_term),
            "residual_per_n": self.residual_per_n.to_json(),
        }


@dataclass(frozen=True)
class SmallnessRow:
    omega_label: str
    l: int
    n: int
    log_v_omega_q: Optional[Enclosure]
    c_upper: Optional[Fraction]
    undecided: bool = False

    def to_json(self) -> dict:
        return {
            "omega": self.omega_label,
            "l": self.l,
            "n": self.n,
            "log_v_omega_q": None if self.log_v_omega_q is None else self.log_v_omega_q.to_json(),
            "c_upper": None if self.c_upper is None else str(self.c_upper),
            "undecided": self.undecided,
        }


@dataclass(frozen=True)
class BoundsReport:
    height_rows: tuple[HeightRow, ...]
    smallness_rows: tuple[SmallnessRow, ...]
    fitted_kappa: Fraction
    fitted_c: Optional[Fraction]
    undecided_rows: int = 0

    def to_json(self) -> dict:
        return {
            "fitted_kappa": str(self.fitted_kappa),
            "fitted_c": None if self.fitted_c is None else str(self.fitted_c),
            "undecided_rows": self.undecided_rows,
            "height_rows": [r.to_json() for r in self.height_rows],
            "smallness_rows": [r.to_json() for r in self.smallness_rows],
        }

    def csv_rows(self) -> list[dict]:
        rows = []
        for r in self.height_rows:
            rows.append(
                {
                    "kind": "height",
                    "omega": "",
                    "l": r.l,
                    "n": r.n,
                    "lo": str(r.log_height_q1.lo),
                    "hi": str(r.log_height_q1.hi),
                    "main_term": str(r.main_term),
                    "residual_lo": str(r.residual_per_n.lo),
                    "residual_hi": str(r.residual_per_n.hi),
                }
            )
        for s in self.smallness_rows:
            rows.append(
                {
                    "kind": "smallness",
                    "omega": s.omega_label,
                    "l": s.l,
                    "n": s.n,
                    "lo": "" if s.log_v_omega_q is None else str(s.log_v_omega_q.lo),
                    "hi": "" if s.log_v_omega_q is None else str(s.log_v_omega_q.hi),
                    "main_term": "",
                    "residual_lo": "",
                    "residual_hi": "" if s.c_upper is None else str(s.c_upper),
                }
            )
        return rows


def bounds_report(
    spec: ProblemSpec,
    l_list: Sequence[int],
    n_list: Sequence[int],
    precision_bits: int = 512,
    rng_seed: int = 0,
    precision_cap: int = DEFAULT_PRECISION_CAP,
) -> BoundsReport:
    """Exact heights against d n^2/2 + S l^2/2, and |v_{l,n}(omega)| for
    omega built from true series values against the smallness shape
    -l n + (S - eps0/d) l^2/2 + c (n+1)."""
    q1_log = log_enclosure(abs(spec.q_num), 48)
    q_log = q1_log - log_enclosure(abs(spec.q_den), 48)
    pairs = [(l, n) for l in l_list for n in n_list if n >= spec.S * l]
    if not pairs:
        raise DomainViolation(f"no (l, n) in the grid satisfies n >= S*l (S = {spec.S})")

    height_rows = []
    fitted_kappa = Fraction(0)
    for l, n in pairs:
        h = form_height(w_form(spec, l, n))
        if h <= 0:
            raise AssertionError(f"zero height at (l={l}, n={n})")
        log_h = log_enclosure(h, 48) / q1_log
        main = Fraction(spec.d * n * n, 2) + Fraction(spec.S * l * l, 2)
        residual = (log_h - main) * Fraction(1, n + 1)
        height_rows.append(HeightRow(l, n, log_h, main, residual))
        fitted_kappa = max(fitted_kappa, residual.abs().hi)

    # smallness: unit omega vectors plus one seeded random rational vector
    rng = random.Random(rng_seed)
    variants: list[tuple[str, tuple[Fraction, ...]]] = []
    dim = spec.n_vars - 1
    for i, (j, k, sigma) in enumerate(spec.var_indices):
        unit = tuple(Fraction(1 if t == i else 0) for t in range(dim))
        variants.append((f"unit:{j},{k},{sigma}", unit))
    variants.append(("random", random_rational_vector(rng, dim, nonzero=True)))

    shape_shift = (Fraction(spec.S) - Fraction(spec.eps0, spec.d)) / 2
    vl_forms = [vl_form(spec, l, n) for l, n in pairs]
    smallness_rows = []
    fitted_c: Optional[Fraction] = None
    undecided = 0
    for label, rest in variants:
        max_rest = max(abs(c) for c in rest)
        # not redundant although log 1 = 0: near |q| = 1 the 48-bit q_log can straddle 0,
        # and 0 / q_log would raise ZeroDivisionError before the series refuses the spec
        log_max = Enclosure.zero() if max_rest == 1 else log_enclosure(max_rest, 48) / q_log
        # one climb per omega: a rung reached stays for the later pairs,
        # and the cap stays after an undecided row
        omega_at = functools.cache(lambda b: omega_from_vector(spec, rest, b))
        start = precision_bits
        for (l, n), form in zip(pairs, vl_forms):
            value, bits = PrecisionPolicy(start, precision_cap).refine(
                lambda b: evaluate_form(form, rest, omega_at(b)), Grid.excludes_zero)
            if bits is None:
                smallness_rows.append(SmallnessRow(label, l, n, None, None, True))
                undecided += 1
                start = precision_cap
                continue
            start = bits
            log_v = log_of_enclosure(value.enclosure().abs()) / q_log
            c_row = (log_v - log_max + l * n - shape_shift * l * l) * Fraction(1, n + 1)
            smallness_rows.append(SmallnessRow(label, l, n, log_v, c_row.hi))
            fitted_c = c_row.hi if fitted_c is None else max(fitted_c, c_row.hi)

    return BoundsReport(
        tuple(height_rows),
        tuple(smallness_rows),
        fitted_kappa,
        fitted_c,
        undecided,
    )


# ---------------------------------------------------------------------------
# non-vanishing window scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonvanishingVerdict:
    window_start: int
    window_length: int
    found_index: Optional[int]
    precision_used: Optional[int]
    witness: Optional[str] = None

    @property
    def undecided(self) -> bool:
        return self.found_index is None

    def to_json(self) -> dict:
        return {
            "window_start": self.window_start,
            "window_length": self.window_length,
            "found_index": self.found_index,
            "precision_used": self.precision_used,
            "witness": self.witness,
            "undecided": self.undecided,
        }


def nonvanishing_scan(
    spec: ProblemSpec,
    omega: Sequence,
    l0: int,
    n0: int,
    policy: PrecisionPolicy = PrecisionPolicy(),
) -> NonvanishingVerdict:
    """Least n in [n0, n0 + dS] with v_{l0,n}(omega) certifiably nonzero.

    A rational omega of length 1 + dS (x_0 slot first) is evaluated exactly.
    Given only the dS rest coefficients, omega_0 = -sum rest_i f_i is taken
    from the series values at each rung of policy, reporting Undecided at
    the cap. Any other length raises ValueError.
    """
    if n0 < spec.S * l0:
        raise DomainViolation(f"n0 must be >= S*l0 = {spec.S * l0}")
    window = range(n0, n0 + spec.d * spec.S + 1)
    vec = tuple(Fraction(c) for c in omega)
    if len(vec) not in (spec.n_vars, spec.n_vars - 1):
        raise ValueError(
            f"omega must have length {spec.n_vars}, or {spec.n_vars - 1} rest coefficients"
        )
    if all(c == 0 for c in vec):
        # each form keeps the message its reports have always carried
        what = "is the zero vector" if len(vec) == spec.n_vars else "vector is identically zero"
        raise ZeroOmega(f"omega {what}")

    if len(vec) == spec.n_vars:
        for n in window:
            value = evaluate_exact(vl_form(spec, l0, n), vec)
            if value != 0:
                return NonvanishingVerdict(
                    n0, len(window), n, None, witness=str(value)
                )
        raise AssertionError(
            "non-vanishing window failed for rational omega: implementation bug"
        )

    def first_nonzero(bits: int) -> Optional[tuple[int, Grid]]:
        omega0 = omega_from_vector(spec, vec, bits)
        for n in window:
            value = evaluate_form(vl_form(spec, l0, n), vec, omega0)
            if value.excludes_zero():
                return n, value
        return None

    found, bits = policy.refine(first_nonzero, lambda hit: hit is not None)
    if found is None:
        return NonvanishingVerdict(n0, len(window), None, policy.cap_bits)
    n, value = found[0], found[1].enclosure()
    return NonvanishingVerdict(n0, len(window), n, bits, witness=f"[{value.lo}, {value.hi}]")
