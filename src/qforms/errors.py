"""Exception types shared across the package.

Every error that can surface through the CLI carries enough structured
context (indices, exponents, offending values) to reproduce the failure.
"""

from __future__ import annotations


class QFormsError(Exception):
    """Base class for all package errors."""


class InvalidSpec(QFormsError):
    """Structurally malformed problem input (zero denominator, d < 1, ...)."""


class QNotAdmissible(InvalidSpec):
    """q = q1/q2 fails |q1| > |q2| >= 1 after reduction."""


class PRootAtQPower(InvalidSpec):
    """P(q^n) = 0 for some n >= 1."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"P(q^n) = 0 at n = {n}")


class Condition1Violated(InvalidSpec):
    """alpha_j / alpha_k is an integer power of q for distinct j, k."""

    def __init__(self, j: int, k: int, exponent: int):
        self.j = j
        self.k = k
        self.exponent = exponent
        super().__init__(
            f"alpha_{j} / alpha_{k} = q^{exponent} (points are q-power multiples)"
        )


class Condition2Violated(InvalidSpec):
    """alpha_j = P(0) * q^n for some n >= 1."""

    def __init__(self, j: int, n: int):
        self.j = j
        self.n = n
        super().__init__(f"alpha_{j} = P(0) * q^{n}")


class UndecidableAtCap(QFormsError):
    """A strict inequality could not be separated within the precision cap."""


class PrecisionCapExceeded(QFormsError):
    """An enclosure stayed undecided at the precision cap; certify's has .attempts."""

    def __init__(self, message: str, attempts: list | None = None):
        if attempts is not None:
            self.attempts = attempts
        super().__init__(message)


class DomainViolation(QFormsError):
    """Operation called outside its stated domain (e.g. n < S*l)."""


class ZeroOmega(QFormsError):
    """The omega vector is identically zero."""


class ZeroVector(QFormsError):
    """The integer vector A is identically zero."""


class NotApplicable(QFormsError):
    """gamma < 1/M fails: the measure machinery does not apply to this spec."""


class RetryCapExceeded(QFormsError):
    """certify_lower_bound exhausted its l-retry budget."""

    def __init__(self, message: str, attempts: list | None = None):
        self.attempts = attempts or []
        super().__init__(message)


class DimensionTooLargeForExhaustive(QFormsError):
    """Exhaustive scans are restricted to 1 + dS <= 3; use the random strategy."""
