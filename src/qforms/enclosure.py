"""Rigorous interval arithmetic with exact rational endpoints.

All field operations on intervals with Fraction endpoints are exact, so no
rounding is involved there; outward rounding enters only through the dyadic
transcendental kernels (`log_enclosure`, `sqrt_enclosure`).

The logarithm kernel is self-contained, deterministic and runs on
integers only. x = a/b is reduced by shifts to m = x / 2^e in [1, 2), m is
bracketed on the 2^-w grid by the integer floor and ceiling of a 2^(w-e) / b,
and the atanh series

    ln m = 2 * sum_{k>=0} t^(2k+1) / (2k+1),   t = (m-1)/(m+1) in [0, 1/3],

is evaluated in integer fixed point by one function, with every division
floored for the lower bound and ceiled, plus a geometric tail majorant, for
the upper bound (Brent & Zimmermann, Modern Computer Arithmetic, chapters 3-4).
The kernel `log_grid` returns integers lo, hi, w with ln x in [lo, hi] / 2^w;
`log_enclosure` wraps them into the two endpoint Fractions, and callers that
only compare, like measure.choose_parameters, read the integers directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

ScalarLike = Union[Fraction, int]


def ceil_to_grid(x: Fraction, bits: int) -> Fraction:
    """Smallest multiple of 2^-bits that is >= x."""
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


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
        if not isinstance(other, Enclosure):  # a scalar: its sign orders the ends
            if other >= 0:
                return Enclosure(self.lo * other, self.hi * other)
            return Enclosure(self.hi * other, self.lo * other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Enclosure(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Enclosure":
        o = self._coerce(other)
        if o.hi < 0:
            return -(self / -o)
        if o.lo <= 0:
            raise ZeroDivisionError("division by an enclosure containing zero")
        # o > 0: a nonnegative end is largest over o.lo, a negative one over o.hi
        return Enclosure(
            self.lo / (o.hi if self.lo >= 0 else o.lo),
            self.hi / (o.lo if self.hi >= 0 else o.hi),
        )

    def __rtruediv__(self, other) -> "Enclosure":
        return self._coerce(other) / self

    def abs(self) -> "Enclosure":
        """Enclosure of |x| over x in self."""
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Enclosure(Fraction(0), max(-self.lo, self.hi))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"lo": str(self.lo), "hi": str(self.hi)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Enclosure({self.lo}, {self.hi})"


# ---------------------------------------------------------------------------
# Directed fixed-point logarithm
# ---------------------------------------------------------------------------


def _atanh_scaled(a: int, b: int, w: int, up: bool) -> int:
    """Integer bound on atanh(a/b) * 2^w for 0 <= a/b <= 1/3: a lower bound
    when up is False (every division floored), an upper bound when up is True
    (every division ceiled).

    p holds t^(2k+1) * 2^w, t = a/b, rounded the same way as the sum.
    Dropping the tail only lowers the floored sum; the ceiled sum adds, once
    p <= 8, the geometric majorant
    sum_{j>=k} t^(2j+1) <= t^(2k+1) / (1 - t^2) <= (9/8) t^(2k+1).
    """
    s = -1 if up else 1  # n // d floors; -(-n // d) ceils: s * (s * n // d)
    a2, b2 = a * a, b * b
    p = s * ((s * a << w) // b)
    total = k = 0
    while p > (8 if up else 0):
        total += s * (s * p // (2 * k + 1))
        p = s * (s * p * a2 // b2)
        k += 1
    if up:
        total -= -9 * p // 8
    return total


@lru_cache
def _ln2_scaled(w: int) -> tuple[int, int]:
    """Floor and ceiling bounds on ln 2 * 2^w, from ln 2 = 2 atanh(1/3)."""
    return 2 * _atanh_scaled(1, 3, w, False), 2 * _atanh_scaled(1, 3, w, True)


def log_grid(x: ScalarLike, bits: int) -> tuple[int, int, int]:
    """Integers lo <= hi and w with ln(x) in [lo, hi] / 2^w and
    (hi - lo) / 2^w <= 2^-bits, for rational x = a/b > 0.

    With x = m 2^e and m in [1, 2), ln x = e ln 2 + 2 atanh((m-1)/(m+1)).
    m is bracketed on the 2^-w grid by M_lo = floor(a 2^(w-e) / b) and
    M_hi = ceil(a 2^(w-e) / b), so huge integer inputs (form heights) stay
    cheap, and t = (M - 2^w)/(M + 2^w) goes to the directed series as an
    integer pair. The exponent e multiplies the ln 2 slack, so the guard
    w - bits is grown until the requested width is actually met.
    """
    if x <= 0:
        raise ValueError("log_grid requires a positive argument")
    if x == 1:
        return 0, 0, 0
    a, b = x.numerator, x.denominator
    e = a.bit_length() - b.bit_length()
    if a << max(-e, 0) < b << max(e, 0):  # make m = x / 2^e lie in [1, 2)
        e -= 1
    guard = 12 + abs(e).bit_length() + bits.bit_length()
    while True:
        w = bits + guard
        one = 1 << w
        num, den = (a << (w - e), b) if w >= e else (a, b << (e - w))
        m_lo, m_hi = num // den, -(-num // den)  # m_hi may be 2^(w+1); t is then 1/3
        ln2_lo, ln2_hi = _ln2_scaled(w)
        if e < 0:
            ln2_lo, ln2_hi = ln2_hi, ln2_lo
        lo = 2 * _atanh_scaled(m_lo - one, m_lo + one, w, False) + e * ln2_lo
        hi = 2 * _atanh_scaled(m_hi - one, m_hi + one, w, True) + e * ln2_hi
        if hi - lo <= 1 << guard:
            return lo, hi, w
        guard *= 2


def log_enclosure(x: ScalarLike, bits: int) -> Enclosure:
    """Enclosure of ln(x) for rational x > 0, width <= 2^-bits: log_grid's
    integers over 2^w."""
    lo, hi, w = log_grid(x, bits)
    return Enclosure(Fraction(lo, 1 << w), Fraction(hi, 1 << w))


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
