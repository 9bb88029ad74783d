"""Shared helpers: seeded rational test data and the precision policy."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, TypeVar

DEFAULT_START_BITS = 256
DEFAULT_PRECISION_CAP = 1 << 14
DEFAULT_RETRY_CAP = 8

T = TypeVar("T")


@dataclass(frozen=True)
class PrecisionPolicy:
    """Escalation schedule for enclosure precision: double up to the cap."""

    start_bits: int = DEFAULT_START_BITS
    cap_bits: int = DEFAULT_PRECISION_CAP

    def __post_init__(self):
        if self.start_bits < 1 or self.cap_bits < 1:  # a ladder at 0 never climbs
            raise ValueError(f"precision bits must be >= 1: {self.start_bits}, {self.cap_bits}")

    def ladder(self) -> Iterable[int]:
        """Rungs from min(start, cap), doubling, ending at the cap."""
        bits = min(self.start_bits, self.cap_bits)
        while True:
            yield bits
            if bits == self.cap_bits:
                return
            bits = min(2 * bits, self.cap_bits)

    def refine(
        self, enclose: Callable[[int], T], decided: Callable[[T], bool]
    ) -> tuple[T, Optional[int]]:
        """(enclose(bits), bits) at the first rung whose value is decided,
        else (the value at the cap, None)."""
        for bits in self.ladder():
            value = enclose(bits)
            if decided(value):
                return value, bits
        return value, None


def random_rational(rng: random.Random) -> Fraction:
    """Seeded random rational with |numerator|, denominator <= 100."""
    return Fraction(rng.randint(-100, 100), rng.randint(1, 100))


def random_rational_vector(
    rng: random.Random, length: int, nonzero: bool = False
) -> tuple[Fraction, ...]:
    """length random_rational entries (|numerator|, denominator <= 100), not all 0 if nonzero."""
    while True:
        vec = tuple(random_rational(rng) for _ in range(length))
        if nonzero and all(c == 0 for c in vec):
            continue
        return vec
