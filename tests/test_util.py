"""The precision policy: its ladder and the one refinement loop over it."""

import pytest

from qforms import PrecisionPolicy


@pytest.mark.parametrize(
    "start,cap,rungs",
    [(64, 512, [64, 128, 256, 512]), (100, 300, [100, 200, 300]), (300, 300, [300]),
     (600, 300, [300])],
)
def test_ladder_doubles_and_never_passes_the_cap(start, cap, rungs):
    assert list(PrecisionPolicy(start, cap).ladder()) == rungs


def test_refine_stops_at_the_first_decided_rung():
    seen = []

    def enclose(bits):
        seen.append(bits)
        return bits * 10

    assert PrecisionPolicy(16, 256).refine(enclose, lambda v: v >= 640) == (640, 64)
    assert seen == [16, 32, 64]


def test_refine_reports_the_value_at_the_cap_when_undecided():
    assert PrecisionPolicy(16, 100).refine(lambda bits: -bits, lambda v: v > 0) == (-100, None)


def test_refine_decided_at_the_cap_reports_the_cap():
    assert PrecisionPolicy(600, 300).refine(lambda bits: bits, lambda v: True) == (300, 300)
