"""Rigorous interval arithmetic with exact rational endpoints.

All field operations on intervals with Fraction endpoints are exact, so no
rounding is involved there; outward rounding enters only through the dyadic
transcendental kernels (`log_enclosure`, `sqrt_enclosure`) and the explicit
`outward_round` used to keep endpoint bit-sizes bounded.

The logarithm kernel is deliberately self-contained and deterministic:
argument reduction to [1, 2) followed by the atanh series

    ln m = 2 * sum_{k>=0} t^(2k+1) / (2k+1),   t = (m-1)/(m+1) in [0, 1/3],

evaluated twice in integer fixed point, once with all roundings floored
(lower bound) and once with all roundings ceiled plus a geometric tail
majorant (upper bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction
ScalarLike = Union[Fraction, int]


def floor_to_grid(x: Fraction, bits: int) -> Fraction:
    """Largest multiple of 2^-bits that is <= x."""
    scaled = x * (1 << bits)
    return Fraction(math.floor(scaled), 1 << bits)


def ceil_to_grid(x: Fraction, bits: int) -> Fraction:
    """Smallest multiple of 2^-bits that is >= x."""
    scaled = x * (1 << bits)
    return Fraction(math.ceil(scaled), 1 << bits)


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] with exact rational endpoints.

    Invariant: lo <= hi, and every arithmetic operation returns an interval
    containing the exact image of its operand intervals.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure [{self.lo}, {self.hi}]")

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, x: ScalarLike) -> "Enclosure":
        f = Fraction(x)
        return cls(f, f)

    @classmethod
    def zero(cls) -> "Enclosure":
        return cls.point(0)

    # -- queries -----------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: ScalarLike) -> bool:
        return self.lo <= x <= self.hi

    def contains_enclosure(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def is_negative(self) -> bool:
        return self.hi < 0

    # -- arithmetic (exact, hence outward by construction) -----------------

    @staticmethod
    def _coerce(x: Union["Enclosure", ScalarLike]) -> "Enclosure":
        if isinstance(x, Enclosure):
            return x
        return Enclosure.point(x)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __add__(self, other) -> "Enclosure":
        o = self._coerce(other)
        return Enclosure(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "Enclosure":
        o = self._coerce(other)
        return Enclosure(self.lo - o.hi, self.hi - o.lo)

    def __rsub__(self, other) -> "Enclosure":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Enclosure":
        o = self._coerce(other)
        products = (
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        )
        return Enclosure(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Enclosure":
        o = self._coerce(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("division by an enclosure containing zero")
        quotients = (
            self.lo / o.lo,
            self.lo / o.hi,
            self.hi / o.lo,
            self.hi / o.hi,
        )
        return Enclosure(min(quotients), max(quotients))

    def __rtruediv__(self, other) -> "Enclosure":
        return self._coerce(other) / self

    def abs(self) -> "Enclosure":
        """Enclosure of |x| over x in self."""
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Enclosure(Fraction(0), max(-self.lo, self.hi))

    def outward_round(self, bits: int) -> "Enclosure":
        """Push endpoints outward onto the dyadic grid of spacing 2^-bits."""
        return Enclosure(floor_to_grid(self.lo, bits), ceil_to_grid(self.hi, bits))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"lo": str(self.lo), "hi": str(self.hi)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Enclosure({self.lo}, {self.hi})"


# ---------------------------------------------------------------------------
# Directed fixed-point atanh series
# ---------------------------------------------------------------------------


def _floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _atanh_scaled_lower(t: Fraction, w: int) -> int:
    """Integer L with L <= atanh(t) * 2^w, for 0 <= t <= 1/3.

    Every rounding floors, so each computed term underestimates the true
    term and dropping the tail only lowers the sum further.
    """
    if t == 0:
        return 0
    scale = 1 << w
    t2 = t * t
    p = _floor_frac(t * scale)  # p <= t^(2k+1) * 2^w throughout
    total = 0
    k = 0
    while p > 0:
        total += p // (2 * k + 1)
        p = _floor_frac(p * t2)
        k += 1
    return total


def _atanh_scaled_upper(t: Fraction, w: int) -> int:
    """Integer U with U >= atanh(t) * 2^w, for 0 <= t <= 1/3.

    Every rounding ceils; once the running power drops below a small
    threshold the remaining tail is majorized by the geometric series
    sum_{j>=k} t^(2j+1) <= t^(2k+1) / (1 - t^2) <= (9/8) t^(2k+1).
    """
    if t == 0:
        return 0
    scale = 1 << w
    t2 = t * t
    p = _ceil_frac(t * scale)  # p >= t^(2k+1) * 2^w throughout
    total = 0
    k = 0
    while p > 8:
        total += _ceil_frac(Fraction(p, 2 * k + 1))
        p = _ceil_frac(p * t2)
        k += 1
    total += _ceil_frac(Fraction(9 * p, 8))
    return total


def _ln_reduced_scaled(m_lo: Fraction, m_hi: Fraction, w: int) -> tuple[int, int]:
    """Scaled bounds (lo, hi) of ln over [m_lo, m_hi] subset of [1, 2]."""
    t_lo = (m_lo - 1) / (m_lo + 1)
    t_hi = (m_hi - 1) / (m_hi + 1)
    return 2 * _atanh_scaled_lower(t_lo, w), 2 * _atanh_scaled_upper(t_hi, w)


_LN2_CACHE: dict[int, tuple[int, int]] = {}


def _ln2_scaled(w: int) -> tuple[int, int]:
    cached = _LN2_CACHE.get(w)
    if cached is None:
        third = Fraction(1, 3)
        cached = (2 * _atanh_scaled_lower(third, w), 2 * _atanh_scaled_upper(third, w))
        _LN2_CACHE[w] = cached
    return cached


def _log_attempt(m: Fraction, e: int, w: int) -> Enclosure:
    m_lo = floor_to_grid(m, w)
    m_hi = ceil_to_grid(m, w)  # may equal 2 exactly; t then equals 1/3
    s_lo, s_hi = _ln_reduced_scaled(m_lo, m_hi, w)
    ln2_lo, ln2_hi = _ln2_scaled(w)
    if e >= 0:
        lo = e * ln2_lo + s_lo
        hi = e * ln2_hi + s_hi
    else:
        lo = e * ln2_hi + s_lo
        hi = e * ln2_lo + s_hi
    return Enclosure(Fraction(lo, 1 << w), Fraction(hi, 1 << w))


def log_enclosure(x: ScalarLike, bits: int) -> Enclosure:
    """Enclosure of ln(x) for rational x > 0, width <= 2^-bits.

    x is first rounded outward to dyadics with bits + guard significant
    bits so that huge integer inputs (form heights) stay cheap, then each
    dyadic bound is reduced to [1, 2) and fed to the directed series.
    The reduction exponent e multiplies the ln 2 slack, so the guard is
    grown until the requested width is actually met.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("log_enclosure requires a positive argument")
    if x == 1:
        return Enclosure.zero()
    a, b = x.numerator, x.denominator
    e = a.bit_length() - b.bit_length()
    # make m = x / 2^e lie in [1, 2)
    if e >= 0:
        if a < b << e:
            e -= 1
    else:
        if a << (-e) < b:
            e -= 1
    m = x / Fraction(2) ** e
    target = Fraction(1, 1 << bits)
    guard = 12 + abs(e).bit_length() + bits.bit_length()
    while True:
        out = _log_attempt(m, e, bits + guard)
        if out.width <= target:
            return out
        guard *= 2


def log_of_enclosure(x: Enclosure, bits: int = 48) -> Enclosure:
    """Enclosure of ln over a strictly positive interval."""
    if x.lo <= 0:
        raise ValueError("log_of_enclosure requires a strictly positive interval")
    return Enclosure(log_enclosure(x.lo, bits).lo, log_enclosure(x.hi, bits).hi)


def sqrt_enclosure(x: ScalarLike, bits: int) -> Enclosure:
    """Enclosure of sqrt(x) for rational x >= 0, width <= 2^-bits."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt_enclosure requires a nonnegative argument")
    if x == 0:
        return Enclosure.zero()
    # sqrt(u/v) = sqrt(u*v) / v; bracket sqrt(u*v) between consecutive
    # integers at scale 2^bits.
    n = x.numerator * x.denominator
    root = math.isqrt(n << (2 * bits))
    den = x.denominator << bits
    lo = Fraction(root, den)
    hi = Fraction(root + 1, den)
    return Enclosure(lo, hi)


def ceil_sqrt(x: Fraction) -> int:
    """Smallest integer k >= 0 with k*k >= x (x >= 0)."""
    if x <= 0:
        return 0
    k = math.isqrt(x.numerator // x.denominator)
    while Fraction(k * k) < x:
        k += 1
    return k
