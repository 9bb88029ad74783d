"""Enclosure arithmetic soundness and the transcendental kernels."""

import hashlib
import operator
import random
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qforms.enclosure import (
    Enclosure,
    log_enclosure,
    sqrt_enclosure,
)

from conftest import mpf_to_fraction, outward_round

rationals = st.fractions(
    min_value=F(-1000), max_value=F(1000), max_denominator=999
)
pads = st.fractions(min_value=F(0), max_value=F(3), max_denominator=50)


def widen(x: F, below: F, above: F) -> Enclosure:
    return Enclosure(x - below, x + above)


@given(rationals, rationals, pads, pads, pads, pads)
@settings(max_examples=300)
def test_arithmetic_soundness(a, b, pa, pb, pc, pd):
    ea = widen(a, pa, pb)
    eb = widen(b, pc, pd)
    for enc, exact in ((ea + eb, a + b), (ea - eb, a - b), (ea * eb, a * b),
                       (-ea, -a), (ea.abs(), abs(a))):
        assert enc.lo <= exact <= enc.hi
    if eb.lo > 0 or eb.hi < 0:
        quotient = ea / eb
        assert quotient.lo <= a / b <= quotient.hi


@given(rationals, pads, pads)
@settings(max_examples=200)
def test_outward_round_contains(a, pa, pb):
    e = widen(a, pa, pb)
    rounded = outward_round(e, 16)
    assert rounded.lo <= e.lo and e.hi <= rounded.hi
    assert rounded.width <= e.width + F(2, 1 << 16)


def four_ends(x: Enclosure, y: Enclosure, op) -> tuple[F, F]:
    """The min and max of op over the four endpoint pairs."""
    ends = [op(a, b) for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    return min(ends), max(ends)


scalars = st.one_of(rationals, st.integers(-10 ** 6, 10 ** 6), st.just(0))
positives = st.fractions(min_value=F(1, 999), max_value=F(1000), max_denominator=999)


@given(rationals, pads, pads, scalars)
@settings(max_examples=300)
def test_scalar_product_picks_ends_by_sign(a, pa, pb, c):
    e = widen(a, pa, pb)
    expect = four_ends(e, Enclosure.point(c), operator.mul)
    for product in (e * c, c * e):
        assert (product.lo, product.hi) == expect


@given(rationals, pads, pads, positives, pads, st.booleans())
@settings(max_examples=300)
def test_division_by_a_signed_interval_picks_ends_by_sign(a, pa, pb, lo, width, negative):
    e = widen(a, pa, pb)
    o = Enclosure(lo, lo + width)
    if negative:
        o = -o
    quotient = e / o
    assert (quotient.lo, quotient.hi) == four_ends(e, o, operator.truediv)
    quotient = a / o
    assert (quotient.lo, quotient.hi) == four_ends(Enclosure.point(a), o, operator.truediv)


def test_inverted_interval_rejected():
    with pytest.raises(ValueError):
        Enclosure(F(1), F(0))


def test_division_by_zero_interval_rejected():
    for divisor in (Enclosure(F(-1), F(1)), Enclosure(F(0), F(1)), Enclosure(F(-1), F(0))):
        with pytest.raises(ZeroDivisionError):
            Enclosure.point(1) / divisor


@pytest.mark.parametrize(
    "x",
    [
        F(2),
        F(3),
        F(1, 2),
        F(5, 7),
        F(10) ** 20 + 7,
        F(1, 10 ** 12),
        F(99, 98),
        F(2) ** 300,
    ],
)
def test_log_enclosure_contains_oracle(x):
    mp.mp.prec = 400
    enc = log_enclosure(x, 64)
    assert enc.width <= F(1, 1 << 64)
    oracle_mpf = mp.log(mp.mpf(x.numerator)) - mp.log(mp.mpf(x.denominator))
    oracle = mpf_to_fraction(oracle_mpf)
    slack = F(1, 1 << 300)  # far above mpmath's round-off at prec 400
    assert enc.lo - slack <= oracle <= enc.hi + slack


def test_log_enclosure_tight_brackets():
    # exact rational comparison against a high-precision dyadic oracle
    mp.mp.prec = 300
    for x in (F(2), F(3, 2), F(7, 5)):
        enc = log_enclosure(x, 128)
        oracle = mp.log(mp.mpf(x.numerator)) - mp.log(mp.mpf(x.denominator))
        o = mpf_to_fraction(oracle)
        slack = F(1, 1 << 250)
        assert enc.lo - slack <= o <= enc.hi + slack
        assert enc.width <= F(1, 1 << 128)


def test_log_enclosure_one_is_exact():
    assert log_enclosure(F(1), 32) == Enclosure.point(0)


def test_log_enclosure_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_enclosure(F(0), 32)
    with pytest.raises(ValueError):
        log_enclosure(F(-3), 32)


def test_log_additivity_cross_check():
    a, b = F(7, 3), F(15, 4)
    lhs = log_enclosure(a * b, 96)
    rhs = log_enclosure(a, 96) + log_enclosure(b, 96)
    # both contain the same real number, so they must overlap
    assert lhs.lo <= rhs.hi and rhs.lo <= lhs.hi


@pytest.mark.parametrize("x", [F(2), F(5, 4), F(49), F(1, 3), F(10) ** 12 + 1])
def test_sqrt_enclosure(x):
    enc = sqrt_enclosure(x, 80)
    assert enc.width <= F(1, 1 << 80)
    assert enc.lo * enc.lo <= x <= enc.hi * enc.hi


def test_sqrt_zero():
    assert sqrt_enclosure(F(0), 10) == Enclosure.point(0)


# sha256 over the log_enclosure, sqrt_enclosure and conftest.outward_round endpoints
# on golden_cases(); a kernel change that moves any endpoint must say why
KERNEL_DIGEST = "cc659da0e81c597e18846dcd236e38d12cf6070fc5dbca8a3fe20a3b4ef0d109"


def golden_cases(n: int = 2400):
    """Seeded (x, bits) pairs: small and huge rationals, dyadics times 1, 3/2
    and 4/3, x next to 1, integer heights, and x < 1; bits in 1..512."""
    rng = random.Random(6)
    for i in range(n):
        kind = i % 6
        if kind == 0:
            x = F(rng.randint(1, 1000), rng.randint(1, 1000))
        elif kind == 1:
            x = F(rng.randrange(1, 10 ** rng.randint(1, 300)),
                  rng.randrange(1, 10 ** rng.randint(1, 300)))
        elif kind == 2:
            x = rng.choice((F(1), F(3, 2), F(4, 3))) * F(2) ** rng.randint(-300, 300)
        elif kind == 3:
            x = 1 + F(rng.choice((-1, 1)), rng.randint(2, 10 ** rng.randint(1, 40)))
        elif kind == 4:
            x = F(10 ** rng.randint(0, 298) + rng.randint(0, 1000))
        else:
            x = F(1, rng.randint(1, 10 ** rng.randint(1, 200)))
        yield x, rng.randint(1, 512)


def test_kernel_endpoints_are_unchanged():
    digest = hashlib.sha256()
    for x, bits in golden_cases():
        log = log_enclosure(x, bits)
        root = sqrt_enclosure(x, bits)
        rounded = outward_round(Enclosure(-x, x + F(1, 3)), bits)
        for enc in (log, root, rounded):
            digest.update(f"{enc.lo} {enc.hi};".encode())
    assert digest.hexdigest() == KERNEL_DIGEST


big = st.integers(1, 10 ** 300)


@given(
    x=st.one_of(
        st.builds(F, big, big),  # 10^-300 .. 10^300
        # m = 1 (t = 0), and m = 3/2 or 4/3, where M_hi reaches 2^(w+1) and t = 1/3
        st.builds(lambda c, e: c * F(2) ** e,
                  st.sampled_from([F(1), F(3, 2), F(4, 3)]), st.integers(-300, 300)),
        st.builds(lambda a, b: F(a, a + b), big, big),  # x < 1
    ),
    bits=st.integers(1, 512),
)
@settings(max_examples=300, deadline=None)
def test_log_enclosure_against_mpmath(x, bits):
    enc = log_enclosure(x, bits)
    assert enc.width <= F(1, 1 << bits)
    # at this precision numerator and denominator convert exactly, and the
    # oracle's error is far below the slack
    with mp.workprec(1100 + bits):
        oracle = mpf_to_fraction(mp.log(mp.mpf(x.numerator)) - mp.log(mp.mpf(x.denominator)))
    slack = F(1, 1 << (bits + 60))
    assert enc.lo - slack <= oracle <= enc.hi + slack
