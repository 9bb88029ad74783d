"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own computation paths:
series values come from exact-Fraction brute-force partial sums, v-forms
from the closed double-sum formula, logs from mpmath at high precision.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction as F
from pathlib import Path

import pytest

from qforms import Enclosure, PrecisionCapExceeded, validate_spec

SRC = Path(__file__).resolve().parent.parent / "src"


def subprocess_env(**extra: str) -> dict:
    """Environment for a fresh interpreter that imports qforms from src/,
    with no QFORMS_PRECISION_CAP unless given in extra."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("QFORMS_PRECISION_CAP", None)
    env.update(extra)
    return env


@pytest.fixture(scope="session")
def fix_a():
    return validate_spec(2, 1, [0, 1], [(F(1), 1)])


@pytest.fixture(scope="session")
def fix_b():
    return validate_spec(2, 1, [1, 1], [(F(1), 1)])


@pytest.fixture(scope="session")
def fix_c():
    return validate_spec(2, 1, [0, 1], [(F(1), 1), (F(3), 1)])


@pytest.fixture(scope="session")
def fix_d():
    return validate_spec(3, 2, [0, F(1, 3), 1], [(F(5, 7), 2)])


@pytest.fixture(scope="session")
def all_fixtures(fix_a, fix_b, fix_c, fix_d):
    return {"A": fix_a, "B": fix_b, "C": fix_c, "D": fix_d}


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def mpf_to_fraction(x) -> F:
    """Exact rational value of an mpmath float."""
    sign, man, exp, _ = x._mpf_
    val = F(int(man)) * F(2) ** exp
    return -val if sign else val


def oracle_p_eval(spec, x: F) -> F:
    return sum(c * x ** i for i, c in enumerate(spec.P.coefficients))


def oracle_falling(n: int, sigma: int) -> int:
    out = 1
    for i in range(sigma):
        out *= n - i
    return out


def oracle_f_sigma(spec, j: int, k: int, sigma: int, terms: int = 200) -> F:
    """Exact partial sum of the derivative series; error < last kept term."""
    z = spec.points[j - 1][0] * spec.q ** k
    total = F(0)
    prod = F(1)
    for n in range(terms + 1):
        if n >= 1:
            prod *= oracle_p_eval(spec, spec.q ** n)
        if n < sigma:
            continue
        total += oracle_falling(n, sigma) * z ** (n - sigma) / prod
    return total


def oracle_u_coeffs(spec, n: int) -> tuple[F, ...]:
    """Coefficient vector of u_n from the defining sum, x_0 slot first."""
    out = [F(0)]
    for j, k, sigma in spec.var_indices:
        z = spec.points[j - 1][0] * spec.q ** k
        out.append(oracle_falling(n, sigma) * z ** (n - sigma))
    return tuple(out)


def oracle_v_coeffs(spec, n: int) -> tuple[F, ...]:
    """Coefficient vector of v_n from the closed double sum
    x_0 prod_{k<=n} P(q^k) + sum_{i<=n} u_i prod_{k=i+1..n} P(q^k)."""
    prods = [F(1)]  # prods[t] = prod_{k=t+1..n} P(q^k), built backwards
    for t in range(n, 0, -1):
        prods.append(prods[-1] * oracle_p_eval(spec, spec.q ** t))
    prods.reverse()  # prods[i] = prod_{k=i+1..n} P(q^k)
    out = [prods[0]]
    rest = [F(0)] * (spec.n_vars - 1)
    for i in range(n + 1):
        u = oracle_u_coeffs(spec, i)
        for t in range(spec.n_vars - 1):
            rest[t] += u[t + 1] * prods[i]
    return tuple(out + rest)


def oracle_vl_nested(spec, l: int, n: int) -> tuple[F, ...]:
    """Coefficient vector of v_(l,n) by applying each difference-operator
    factor (1 - alpha_j q^-k B) one at a time to the window of oracle v-forms."""
    window = [oracle_v_coeffs(spec, i) for i in range(n - spec.S * l, n + 1)]
    for k in range(1, l + 1):
        for alpha, s in spec.points:
            a = alpha * spec.q ** (-k)
            for _ in range(s):
                window = [
                    tuple(x - a * y for x, y in zip(window[i], window[i - 1]))
                    for i in range(1, len(window))
                ]
    assert len(window) == 1
    return window[0]


def reference_series_enclosure(spec, j: int, k: int, sigma: int, precision_bits: int) -> Enclosure:
    """f^(sigma)(alpha_j q^k) summed exactly in Fractions, truncated by the
    same regime and stop test as series._series_grid, and rounded outward
    onto the grid 2^-(precision_bits + 2): the kernel's ends, except where
    an exact end lies on that grid."""
    z = spec.point_arg(j, k)
    absz = abs(z)
    absq = abs(spec.q)
    lead = abs(spec.P.leading)
    kstar = spec.dominance_index
    threshold = F(1, 1 << (precision_bits + 1))

    # 1 / P(q^n) for n = 1, 2, ..., from the integers D q2^(dn) P(q^n)
    inv_p = (
        F(spec.clearing_D * spec.q_den ** (spec.d * n), sum(terms))
        for n, terms in enumerate(spec.p_terms(), start=1)
    )
    # term n is sigma! C(n, sigma) z^(n-sigma) / prod_{i<=n} P(q^i)
    total = F(0)
    term = F(math.factorial(sigma)) * math.prod(next(inv_p) for _ in range(sigma))
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
        term *= z * F(n, n - sigma) * next(inv_p)
        if n - sigma > 1_000_000:
            raise PrecisionCapExceeded(
                f"series for f^({sigma}) at alpha_{j} q^{k} did not localize"
            )
    return outward_round(Enclosure(total - tail, total + tail), precision_bits + 2)


def outward_round(enc: Enclosure, bits: int) -> Enclosure:
    """enc with its ends pushed outward onto the grid 2^-bits: the low end
    floored, the high end ceiled; an end already on the grid stays."""
    lo, hi = enc.lo, enc.hi
    return Enclosure(
        F((lo.numerator << bits) // lo.denominator, 1 << bits),
        F(-((-hi.numerator << bits) // hi.denominator), 1 << bits),
    )
