"""Certified rational lower bounds on |A_0 + sum A f^(sigma)(alpha_j q^k)|.

The certificate replays the measure argument on concrete data: pick (l, n)
so that the integerized form gives |w_{l,n}(A)| >= 1 while the same form at
the constrained omega vector satisfies |w_{l,n}(omega)| <= 1/2; then

    |Lambda(A)| = |A_0 - omega_0| >= (|w_{l,n}(A)| - 1/2) / |x_0 coeff|.

The decision runs on integers: w_{l,n} has integer coefficients (c_0, c_i),
so w(A) = c_0 A_0 + sum_{i>=1} c_i A_i is exact, and series.evaluate_form
gives w(omega) as a series.Grid, from the omega_0 = -sum_{i>=1} A_i f_i that
omega_from_vector encloses at each rung the (l, n) climbs (its value table is
memoized per rung on the spec, so a repeated rung costs one dot product);
Grid.vs_half compares its ends with +-den/2. The cross-check refines
lambda_grid(A).

The exponent scan brute-forces small height classes and compares the
observed exponent -log|Lambda| / log H against mu.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .enclosure import Enclosure, log_enclosure, log_grid, log_of_enclosure, sqrt_enclosure
from .errors import (
    DimensionTooLargeForExhaustive,
    DomainViolation,
    NotApplicable,
    PrecisionCapExceeded,
    RetryCapExceeded,
    ZeroVector,
)
from .forms import w_form
from .problem import MeasureParams, ProblemSpec, measure_params
from .series import Grid, evaluate_form, lambda_grid, omega_from_vector
from .util import DEFAULT_PRECISION_CAP, DEFAULT_RETRY_CAP, PrecisionPolicy

HALF = Fraction(1, 2)


def _n0_for(spec: ProblemSpec, params: MeasureParams, l: int) -> int:
    """ceil((M - 1).hi l / d), bumped up to S*l."""
    slope = params.n0_slope
    return max(-(-slope.numerator * l // slope.denominator), spec.S * l)


def choose_parameters(
    spec: ProblemSpec, params: MeasureParams, H: int
) -> tuple[int, int]:
    """Starting (l, n0) for height H >= 2, following the measure argument:
    l ~ sqrt(L / a) with L = log H / log|q1|, n0 = ceil((M-1) l / d).
    l = ceil(sqrt(L.midpoint / a_midpoint)) >= 1 exactly, on integers: log H
    is [lo, hi] / 2^w with lo > 0, so L = [lo / qh, hi / ql] / 2^w."""
    if not params.applicable:
        raise NotApplicable("gamma < 1/M fails for this spec")
    if H < 2:
        raise ValueError("H must be at least 2")
    lo, hi, w = log_grid(H, 64)
    ql, qh, a = params.log_q1.lo, params.log_q1.hi, params.a_midpoint
    num = (lo * qh.denominator * ql.numerator + hi * ql.denominator * qh.numerator) * a.denominator
    den = ql.numerator * qh.numerator * a.numerator << (w + 1)
    l = math.isqrt(-(-num // den) - 1) + 1
    return l, _n0_for(spec, params, l)


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of a lower bound on |Lambda(A)|."""

    A: tuple[int, ...]
    l: int
    n: int
    wA: Fraction
    wOmega: Enclosure
    x0_coeff: Fraction
    bound: Fraction
    cross_check: Enclosure

    def to_json(self) -> dict:
        return {
            "A": [str(a) for a in self.A],
            "l": self.l,
            "n": self.n,
            "wA": str(self.wA),
            "wOmega": self.wOmega.to_json(),
            "x0_coeff": str(self.x0_coeff),
            "bound": str(self.bound),
            "cross_check": self.cross_check.to_json(),
        }


def _refined_lambda_abs(spec: ProblemSpec, A: Sequence[int], policy: PrecisionPolicy) -> Enclosure:
    """|Lambda(A)| refined until it excludes zero (A != 0)."""
    lam, bits = policy.refine(lambda b: lambda_grid(spec, A, b), Grid.excludes_zero)
    if bits is None:
        raise PrecisionCapExceeded(
            f"|Lambda(A)| for A = {tuple(A)} still straddles zero at {policy.cap_bits} bits")
    return (lam if lam.lo > 0 else -lam).enclosure()


def certify_lower_bound(
    spec: ProblemSpec,
    A: Sequence[int],
    l_override: Optional[int] = None,
    policy: PrecisionPolicy = PrecisionPolicy(),
    retry_cap: int = DEFAULT_RETRY_CAP,
    params: Optional[MeasureParams] = None,
) -> Certificate:
    """Produce a positive rational lower bound on |Lambda(A)| for A != 0.

    Starting from choose_parameters (or l_override), each candidate l scans
    the window [n0, n0 + dS] for an exact nonzero w_{l,n}(A) whose
    |w_{l,n}(omega)| enclosure can be certified <= 1/2; failing that, l is
    incremented (re-deriving n0) up to retry_cap times. Failing all, it raises
    RetryCapExceeded if each attempt decided |w(omega)| > 1/2, else PrecisionCapExceeded.
    """
    A = tuple(int(a) for a in A)
    if len(A) != spec.n_vars:
        raise ValueError(f"A must have length {spec.n_vars}")
    if all(a == 0 for a in A):
        raise ZeroVector("A is the zero vector")
    if params is None:
        params = measure_params(spec, 64)
    if not params.applicable:
        raise NotApplicable("gamma < 1/M fails for this spec")

    a0, rest = A[0], A[1:]
    H = max(max(abs(a) for a in rest), 2)
    l_start = choose_parameters(spec, params, H)[0] if l_override is None else l_override

    failed = []  # (l, n, the decided w(omega) grid or None at the cap)
    for l in range(l_start, l_start + retry_cap + 1):
        n0 = _n0_for(spec, params, l)
        for n in range(n0, n0 + spec.d * spec.S + 1):
            form = w_form(spec, l, n)
            c0, *cs = form.nums
            wA = c0 * a0 + sum(c * a for c, a in zip(cs, rest))
            if wA == 0:
                continue
            w, bits = policy.refine(
                lambda b: evaluate_form(form, rest, omega_from_vector(spec, rest, b)), Grid.vs_half)
            if bits is not None and w.vs_half() < 0:
                if c0 == 0:
                    raise AssertionError("x0 coefficient vanished despite certification")
                return Certificate(
                    A, l, n, Fraction(wA), w.enclosure(), Fraction(c0),
                    (abs(wA) - HALF) / abs(c0), _refined_lambda_abs(spec, A, policy))
            failed.append((l, n, None if bits is None else w))
    attempts = [{"l": l, "n": n, "w_omega": "cap" if w is None else "[{0.lo}, {0.hi}]".format(
        w.enclosure().abs())} for l, n, w in failed]
    message = f"no (l, n) with |w(omega)| <= 1/2 for A = {A} within l <= {l_start + retry_cap}"
    if any(w is None for _, _, w in failed):
        raise PrecisionCapExceeded(f"{message}; undecided at {policy.cap_bits} bits", attempts)
    raise RetryCapExceeded(message, attempts)


# ---------------------------------------------------------------------------
# exponent scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    H: int
    best_A: tuple[int, ...]
    lambda_abs: Enclosure
    empirical_exponent: Enclosure

    def to_json(self) -> dict:
        return {
            "H": self.H,
            "best_A": [str(a) for a in self.best_A],
            "lambda_abs": self.lambda_abs.to_json(),
            "empirical_exponent": self.empirical_exponent.to_json(),
        }


@dataclass(frozen=True)
class ExponentScanReport:
    rows: tuple[ScanRow, ...]
    mu: Enclosure
    max_observed_exponent: Enclosure
    fitted_C: Fraction

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "max_observed_exponent": self.max_observed_exponent.to_json(),
            "fitted_C": str(self.fitted_C),
            "rows": [r.to_json() for r in self.rows],
        }

    def csv_rows(self) -> list[dict]:
        return [
            {
                "H": r.H,
                "best_A": ",".join(str(a) for a in r.best_A),
                "lambda_lo": str(r.lambda_abs.lo),
                "lambda_hi": str(r.lambda_abs.hi),
                "exp_lo": str(r.empirical_exponent.lo),
                "exp_hi": str(r.empirical_exponent.hi),
            }
            for r in self.rows
        ]


# The most shell vectors one exponent_scan may visit: (2 H_max + 1)^dim - 3^dim
# exhaustively, sample_count per height at random; more raise DomainViolation.
# The costliest scan at the bound, FIX-A or FIX-B to H_max = 100,001 at 128
# bits (one row per vector pair), takes 27.5 s in exponent_scan (33 s as a CLI
# run) on a 2-core x86 host; a vector costs more at higher precision, about
# 0.6 ms at the 16,384-bit cap (about 2 minutes at the bound).
MAX_SCAN_VECTORS = 200_000


def _shell_vectors(dim: int, H: int):
    """All integer vectors of given dim with max |entry| = H, each once: smaller
    entries before the first of size H, any after it. The order does not matter
    to the scan, whose key (upper end of |Lambda|, A) orders distinct A totally."""
    inner, box = range(1 - H, H), range(-H, H + 1)
    for i in range(dim):
        yield from itertools.product(*[inner] * i, (-H, H), *[box] * (dim - 1 - i))


def exponent_scan(
    spec: ProblemSpec,
    H_max: int,
    strategy: str = "exhaustive",
    sample_count: int = 64,
    seed: int = 0,
    precision_bits: int = 128,
    precision_cap: int = DEFAULT_PRECISION_CAP,
    threads: int = 1,
    params: Optional[MeasureParams] = None,
) -> ExponentScanReport:
    """Minimize |Lambda(A)| over each height shell max|A_rest| = H.

    A_0 is never enumerated: only the integers adjacent to -sum A_rest f
    can minimize |Lambda|, and both neighbors are tested. Exhaustive
    enumeration is allowed for 1 + dS <= 3; larger dimensions must use the
    seeded random strategy.

    threads is accepted for compatibility and has no effect: heights are
    scanned serially, since the work is pure Python and a thread pool only
    adds contention for the interpreter lock.
    """
    if H_max < 2:
        raise ValueError("H_max must be at least 2")
    if params is None:
        params = measure_params(spec, 64)
    if not params.applicable:
        raise NotApplicable("gamma < 1/M fails for this spec")
    dim = spec.n_vars - 1
    if strategy == "exhaustive":
        if spec.n_vars > 3:
            raise DimensionTooLargeForExhaustive(
                f"1 + dS = {spec.n_vars} > 3; use strategy='random'"
            )
        heights = range(2, H_max + 1)
        vectors = (2 * H_max + 1) ** dim - 3 ** dim
        shell = functools.partial(_shell_vectors, dim)
    elif strategy == "random":
        if sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        heights, h = [], 2
        while h < H_max:
            heights.append(h)
            h = max(h + 1, h * 3 // 2)
        heights.append(H_max)
        vectors = sample_count * len(heights)
        shell = functools.partial(_random_shell, seed, dim, sample_count)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if vectors > MAX_SCAN_VECTORS:
        raise DomainViolation(
            f"the scan would visit {vectors} shell vectors, more than "
            f"{MAX_SCAN_VECTORS}; lower H_max or the sample count"
        )
    policy = PrecisionPolicy(precision_bits, precision_cap)
    bits = min(precision_bits, precision_cap)
    mu_hi = params.mu.hi
    rows, fitted_C = [], Fraction(0)  # fitted_C: max of (exponent - mu) sqrt(ln H)
    for H in heights:
        best = None
        for rest in shell(H):
            lo, hi, den = lambda_grid(spec, (0,) + rest, bits)
            # t = sum A_rest f lies in [lo, hi] / den. Only the integers next to
            # -t can minimize |A_0 + t|; with s = A_0 den, A_0 + t lies in
            # [lo + s, hi + s] / den, and the key holds the upper end of |A_0 + t|
            for a0 in (-hi // den, -(hi // den), -lo // den, -(lo // den)):
                s = a0 * den
                key = (max(-lo - s, hi + s), (a0,) + rest)
                if best is None or key < best:
                    best, lam = key, Grid(lo + s, hi + s, den)
        if best is None:
            raise AssertionError(f"empty height shell at H = {H}")
        best_A = best[1]
        lam = lam if lam.lo > 0 else -lam  # |A_0 + t| on the grid, unless it straddles 0
        lam = lam.enclosure() if lam.excludes_zero() else _refined_lambda_abs(spec, best_A, policy)
        log_H = log_enclosure(H, 48)
        exponent = -log_of_enclosure(lam) / log_H
        slack = exponent.hi - mu_hi
        root = sqrt_enclosure(log_H.hi, 48)
        fitted_C = max(fitted_C, slack * (root.hi if slack >= 0 else root.lo))
        rows.append(ScanRow(H, best_A, lam, exponent))
    max_row = max(rows, key=lambda r: (r.empirical_exponent.hi, r.H))
    return ExponentScanReport(
        tuple(rows), params.mu, max_row.empirical_exponent, fitted_C
    )


def _random_shell(seed: int, dim: int, count: int, H: int):
    """count vectors with entries in [-H, H], one entry (chosen at random) set to +-H."""
    rng = random.Random(seed * 1_000_003 + H)
    for _ in range(count):
        vec = [rng.randint(-H, H) for _ in range(dim)]
        vec[rng.randrange(dim)] = rng.choice((-H, H))
        yield tuple(vec)
