"""Derived data is memoized on the ProblemSpec object that the caller holds."""

import gc
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

from qforms import certify_lower_bound, measure_params, validate_spec
from qforms.forms import operator_poly, v_form, w_form
from qforms.series import lambda_enclosure, value_table


def fresh_fix_d():
    return validate_spec(3, 2, [0, F(1, 3), 1], [(F(5, 7), 2)])


def test_dropped_spec_is_collected_with_its_memos():
    spec = fresh_fix_d()
    v_form(spec, 30)
    w_form(spec, 2, 40)
    operator_poly(spec, 3, 1)
    lambda_enclosure(spec, (1, -2, 3, 0, 5), 128)
    assert len(spec.v_forms) == 41 and spec.value_tables
    assert list(spec.w_forms) == [(2, 40)] and spec.w_forms[(2, 40)] is w_form(spec, 2, 40)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_per_spec_constants_are_collected_with_the_spec():
    spec = validate_spec(2, 1, [0, 1], [(F(1), 1)])
    certify_lower_bound(spec, (-23, 14))
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_equal_specs_do_not_share_memos(fix_d):
    spec = fresh_fix_d()
    assert spec == fix_d and spec.v_forms is not fix_d.v_forms
    assert v_form(spec, 12) == v_form(fix_d, 12)


def test_concurrent_callers_agree_with_a_serial_run():
    def work(spec):
        return w_form(spec, 2, 40), value_table(spec, 256)

    serial = work(fresh_fix_d())
    spec = fresh_fix_d()
    start = threading.Barrier(4)

    def run(_):
        start.wait()
        return work(spec)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so memo writes interleave
    try:
        with ThreadPoolExecutor(4) as pool:
            results = list(pool.map(run, range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * 4
    assert sorted(spec.v_forms) == list(range(41))
    assert spec.w_forms == {(2, 40): serial[0]}


def test_measure_params_report_keeps_its_keys(fix_a):
    # a_midpoint and n0_slope are stored on MeasureParams but not reported
    params = measure_params(fix_a, 64)
    assert set(params.to_json()) == {
        "S", "eps0", "gamma", "M", "mu", "applicable", "precision_bits"
    }
