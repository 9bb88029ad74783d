"""Parameter choice, certificates, exponent scans."""

import dataclasses
import hashlib
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_f_sigma
from qforms import (
    DimensionTooLargeForExhaustive,
    DomainViolation,
    NotApplicable,
    PrecisionPolicy,
    ZeroVector,
    certify_lower_bound,
    choose_parameters,
    exponent_scan,
    measure_params,
    validate_spec,
)
from qforms import measure
from qforms.enclosure import Enclosure, log_enclosure, sqrt_enclosure
from qforms.forms import LinearForm, evaluate_exact, w_form
from qforms.series import Grid, evaluate_form, lambda_grid, omega_from_vector


class TestChooseParameters:
    def test_fix_a_large_height(self, fix_a):
        params = measure_params(fix_a, 64)
        l, n0 = choose_parameters(fix_a, params, 1 << 20)
        assert (l, n0) == (5, 9)

    def test_fix_a_small_height(self, fix_a):
        params = measure_params(fix_a, 64)
        l, n0 = choose_parameters(fix_a, params, 2)
        assert l == 1
        assert n0 == 2  # ceil(golden ratio)

    def test_q_nine_halves(self):
        spec = validate_spec(9, 2, [0, 1], [(F(1), 1)])
        params = measure_params(spec, 64)
        l, n0 = choose_parameters(spec, params, 1 << 10)
        assert l == 5
        assert n0 >= spec.S * l

    def test_not_applicable(self):
        spec = validate_spec(3, 2, [0, 1], [(F(1), 1)])
        params = measure_params(spec, 64)
        with pytest.raises(NotApplicable):
            choose_parameters(spec, params, 100)

    def test_n0_domain_invariant(self, fix_a, fix_b):
        for spec in (fix_a, fix_b):
            params = measure_params(spec, 64)
            for H in (2, 10, 1000, 10 ** 6):
                l, n0 = choose_parameters(spec, params, H)
                assert n0 >= spec.S * l


class TestCertify:
    def test_single_value(self, fix_a):
        cert = certify_lower_bound(fix_a, [0, 1])
        oracle = oracle_f_sigma(fix_a, 1, 0, 0)
        assert cert.bound > 0
        assert cert.bound <= oracle  # |Lambda| = f(1) here
        assert cert.cross_check.lo <= oracle <= cert.cross_check.hi
        assert cert.wA != 0 and abs(cert.wA) >= 1
        assert cert.wOmega.abs().hi <= F(1, 2)
        assert cert.x0_coeff != 0

    def test_near_relation(self, fix_a):
        cert = certify_lower_bound(fix_a, [-23, 14])
        oracle = abs(14 * oracle_f_sigma(fix_a, 1, 0, 0) - 23)  # 0.0171441...
        assert 0 < cert.bound <= oracle
        assert cert.cross_check.lo <= oracle <= cert.cross_check.hi

    def test_zero_vector(self, fix_a):
        with pytest.raises(ZeroVector):
            certify_lower_bound(fix_a, [0, 0])

    def test_sign_symmetry(self, fix_a, fix_b):
        for spec in (fix_a, fix_b):
            plus = certify_lower_bound(spec, [7, -4])
            minus = certify_lower_bound(spec, [-7, 4])
            assert plus.bound == minus.bound
            assert (plus.l, plus.n) == (minus.l, minus.n)
            assert plus.wA == -minus.wA

    def test_pure_integer_vector(self, fix_a):
        # A_rest = 0: Lambda(A) = A_0, certified bound must stay below |A_0|
        cert = certify_lower_bound(fix_a, [3, 0])
        assert 0 < cert.bound <= 3
        assert cert.cross_check.lo <= 3 <= cert.cross_check.hi

    def test_not_applicable(self):
        spec = validate_spec(3, 2, [0, 1], [(F(1), 1)])
        with pytest.raises(NotApplicable):
            certify_lower_bound(spec, [0, 1])

    def test_retry_cap_exceeded(self, fix_a):
        from qforms import RetryCapExceeded

        # l pinned to 1 cannot push |w(omega)| below 1/2 for a huge-height A
        A = (0, 10 ** 6)
        with pytest.raises(RetryCapExceeded) as exc:
            certify_lower_bound(fix_a, A, l_override=1, retry_cap=0)
        # both forms of the window n = 2, 3 are decided |w(omega)| > 1/2; each
        # attempt reports |w(omega)| at the rung where the ladder decided it
        expected = []
        for n in (2, 3):
            form = w_form(fix_a, 1, n)
            w, bits = PrecisionPolicy().refine(
                lambda b: evaluate_form(form, A[1:], omega_from_vector(fix_a, A[1:], b)),
                Grid.vs_half,
            )
            assert bits is not None and w.vs_half() > 0
            mag = w.enclosure().abs()
            expected.append({"l": 1, "n": n, "w_omega": f"[{mag.lo}, {mag.hi}]"})
        assert exc.value.attempts == expected
        # the same strings as before the attempts were formatted lazily
        assert hashlib.sha256(json.dumps(exc.value.attempts).encode()).hexdigest() == (
            "416bb05f49f9b8dba7e002d906d10ff7910eb1666789c81f45e3e5ea06c54377"
        )

    def test_attempts_undecided_at_the_cap_raise_precision_cap_exceeded(self, fix_a):
        from qforms import PrecisionCapExceeded

        # at a 4-bit cap no rung decides |w(omega)| for (-23, 14): the
        # error says undecided and carries the attempts, all at the cap
        with pytest.raises(PrecisionCapExceeded, match="undecided at 4 bits") as exc:
            certify_lower_bound(fix_a, (-23, 14), policy=PrecisionPolicy(4, 4), retry_cap=1)
        assert [a["w_omega"] for a in exc.value.attempts] == ["cap"] * 4

    def test_soundness_small_grid(self, fix_b):
        policy = PrecisionPolicy(256)
        for a0 in range(-4, 5):
            for a1 in range(-4, 5):
                if a0 == 0 and a1 == 0:
                    continue
                cert = certify_lower_bound(fix_b, [a0, a1], policy=policy)
                refined = cert.cross_check
                assert cert.bound <= refined.hi
                assert cert.bound <= refined.lo  # refined interval excludes 0


class TestExponentScan:
    def test_fix_a_small(self, fix_a):
        report = exponent_scan(fix_a, 60)
        assert len(report.rows) == 59
        mu_hi = report.mu.hi
        for row in report.rows:
            assert row.lambda_abs.lo > 0
            assert max(abs(a) for a in row.best_A[1:]) == row.H
        assert report.max_observed_exponent.hi <= mu_hi + 1
        assert report.fitted_C is not None

    def test_minimal_height(self, fix_b):
        report = exponent_scan(fix_b, 2)
        assert len(report.rows) == 1
        assert report.rows[0].H == 2

    def test_dimension_gate(self):
        spec = validate_spec(2, 1, [0, 1], [(F(1), 2), (F(3), 1)])
        with pytest.raises(DimensionTooLargeForExhaustive):
            exponent_scan(spec, 10)
        report = exponent_scan(spec, 10, strategy="random", sample_count=8, seed=1)
        assert all(r.lambda_abs.lo > 0 for r in report.rows)

    def test_not_applicable(self):
        spec = validate_spec(3, 2, [0, 1], [(F(1), 1)])
        with pytest.raises(NotApplicable):
            exponent_scan(spec, 10)

    def test_thread_invariance(self, fix_a):
        serial = exponent_scan(fix_a, 40, threads=1)
        threaded = exponent_scan(fix_a, 40, threads=4)
        assert serial.to_json() == threaded.to_json()

    def test_precision_cap_exceeded(self, fix_a):
        from qforms import PrecisionCapExceeded

        # 8-bit enclosures cannot separate the best |Lambda| from zero once
        # heights push it below 2^-8
        with pytest.raises(PrecisionCapExceeded):
            exponent_scan(fix_a, 200, precision_bits=8, precision_cap=8)

    def test_start_above_cap_runs_at_the_cap(self):
        fresh_a = validate_spec(2, 1, [0, 1], [(F(1), 1)])  # no value tables yet
        exponent_scan(fresh_a, 5, precision_bits=512, precision_cap=300)
        assert list(fresh_a.value_tables) == [300]

    def test_best_a0_is_optimal(self, fix_a):
        # brute-force A_0 over a wide window must not beat the scan's choice
        report = exponent_scan(fix_a, 12)
        f_val = oracle_f_sigma(fix_a, 1, 0, 0)
        for row in report.rows:
            a1 = row.best_A[1]
            best_brute = min(
                abs(a0 + a1 * f_val) for a0 in range(-14 * abs(a1), 14 * abs(a1) + 1)
            )
            assert row.lambda_abs.lo <= best_brute <= row.lambda_abs.hi

    def test_scan_rows_are_unchanged(self, fix_a, fix_b, fix_c):
        # golden sha256 over whole reports beyond the payload digest's H <= 6,
        # pinning the best-A choice and its tie-break; the last run takes the
        # straddle-and-refine path once
        runs = [(fix_a, 150, {}), (fix_b, 150, {}), (fix_c, 15, {}),
                (fix_a, 40, {"precision_bits": 8, "precision_cap": 64})]
        digest = hashlib.sha256()
        for spec, h_max, kwargs in runs:
            report = exponent_scan(spec, h_max, **kwargs)
            digest.update(json.dumps(report.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "6ce8cb28568b4e5af5004c53f5f002c393ac375e5554879e67726108a503ec01"
        )

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("H", [1, 2, 3, 4, 5])
    def test_shell_is_the_box_filtered_to_height_H(self, dim, H):
        box = [()]
        for _ in range(dim):
            box = [v + (a,) for v in box for a in range(-H, H + 1)]
        shell = list(measure._shell_vectors(dim, H))
        assert len(shell) == len(set(shell))
        assert sorted(shell) == [v for v in box if max(abs(a) for a in v) == H]

    def test_rows_do_not_depend_on_the_shell_order(self, fix_a, fix_c, monkeypatch):
        # the best row's key (upper end of |Lambda|, A) orders distinct A totally
        runs = [(fix_a, 30), (fix_c, 10)]
        forward = [exponent_scan(spec, h_max).to_json() for spec, h_max in runs]
        shell = measure._shell_vectors
        monkeypatch.setattr(measure, "_shell_vectors", lambda dim, H: list(shell(dim, H))[::-1])
        assert [exponent_scan(spec, h_max).to_json() for spec, h_max in runs] == forward

    def test_two_lambda_grid_calls_per_height(self, fix_a, monkeypatch):
        # FIX-A's shell is (-H,), (H,): one lambda_grid call each, and none
        # more for the row (only a straddling best is refined)
        calls = []
        grid = measure.lambda_grid
        monkeypatch.setattr(measure, "lambda_grid", lambda *a: calls.append(a) or grid(*a))
        report = exponent_scan(fix_a, 30, precision_bits=128)
        assert len(report.rows) == 29
        assert len(calls) == 58


def _ceil_sqrt(x):
    """Smallest integer k >= 0 with k*k >= x (x >= 0)."""
    return math.isqrt(math.ceil(x) - 1) + 1 if x > 0 else 0


@given(st.fractions(min_value=F(0), max_value=F(10) ** 6, max_denominator=997))
@settings(max_examples=200)
def test_ceil_sqrt(x):
    k = _ceil_sqrt(x)
    assert F(k * k) >= x
    if k > 0:
        assert F((k - 1) * (k - 1)) < x


def _log_q1(spec):
    """log|q1| to 64 bits, the unit of L."""
    return log_enclosure(abs(spec.q_num), 64)


def _old_a(spec, params):
    ds = spec.d * spec.S
    root = sqrt_enclosure(ds * ds + (1 - spec.eps0) * ds + F(spec.eps0 ** 2, 4), 96)
    return (1 - params.M * params.gamma) * F(1, spec.d) * root


def _old_choose_parameters(spec, params, H, a=None):
    """choose_parameters as it was before the constants moved onto
    MeasureParams: every Fraction recomputed from params on each call
    (a search over H may pass in _old_a, a function of params alone)."""
    L = log_enclosure(H, 64) / _log_q1(spec)
    if a is None:
        a = _old_a(spec, params)
    l = max(1, _ceil_sqrt(L.midpoint / a.midpoint))
    n0 = math.ceil((params.M - 1).hi * l / spec.d)
    return l, max(n0, spec.S * l)


def _l_steps(spec, params, H_max):
    """Every H in (2, H_max] where _old_choose_parameters' l exceeds its
    value at H - 1, found by bisection (l is nondecreasing in H)."""

    a = _old_a(spec, params)

    def l_at(H):
        return _old_choose_parameters(spec, params, H, a)[0]

    steps, lo, l_lo, l_max = [], 2, l_at(2), l_at(H_max)
    while l_lo < l_max:
        # gallop by a doubling number of bits, then bisect; throughout,
        # l_at(lo) == l_lo < l_at(hi)
        shift = 1
        while (hi := min(lo << shift, H_max)) < H_max and l_at(hi) == l_lo:
            lo, shift = hi, 2 * shift
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if l_at(mid) == l_lo else (lo, mid)
        steps.append(hi)
        lo, l_lo = hi, l_at(hi)
    return steps


def _old_vs_half(w):
    """certify's old decision on an Enclosure w: -1, 1 or 0 as |w| <= 1/2,
    |w| > 1/2 or neither holds on all of w."""
    mag = w.abs()
    return -1 if mag.hi <= F(1, 2) else 1 if mag.lo > F(1, 2) else 0


class TestIntegerPaths:
    """certify's integer routes against the Enclosure and Fraction routes
    they replace, written out here."""

    @pytest.mark.parametrize("bits", [64, 128])
    def test_choose_parameters_matches_the_fraction_formula(self, all_fixtures, bits):
        heights = [*range(2, 2001), *(10 ** k for k in range(4, 301))]
        for fx in "ABC":
            spec = all_fixtures[fx]
            params = measure_params(spec, bits)
            # H - 1, H and H + 1 around every H up to 10^300 where l steps
            for H in _l_steps(spec, params, 10 ** 300):
                heights += [H - 1, H, H + 1]
            for H in heights:
                assert choose_parameters(spec, params, H) == _old_choose_parameters(
                    spec, params, H
                ), (fx, H)

    @pytest.mark.parametrize("H", [2, 37, 10 ** 6, 10 ** 200])
    def test_choose_parameters_at_an_exact_threshold(self, all_fixtures, H):
        # a_midpoint set so that x = L.midpoint / a_midpoint is k^2 + delta:
        # l is k + 1 above k^2, k at it and below. A delta of 2^-200 is far
        # below what H itself can resolve, so only exact arithmetic gets the
        # three cases right (e.g. not ql and qh swapped in L's ends)
        for fx in "ABC":
            spec = all_fixtures[fx]
            params = measure_params(spec, 64)
            L = log_enclosure(H, 64) / _log_q1(spec)
            for k in (1, 3, 40):
                for delta, l in ((F(1, 1 << 200), k + 1), (0, k), (-F(1, 1 << 200), k)):
                    tuned = dataclasses.replace(params, a_midpoint=L.midpoint / (k * k + delta))
                    assert choose_parameters(spec, tuned, H)[0] == l, (fx, H, k, delta)

    @settings(max_examples=200, deadline=None)
    @given(fx=st.sampled_from("ABC"), bits=st.sampled_from((64, 128)),
           H=st.integers(2, 10 ** 300))
    def test_choose_parameters_matches_at_random_heights(self, all_fixtures, fx, bits, H):
        spec = all_fixtures[fx]
        params = measure_params(spec, bits)
        assert choose_parameters(spec, params, H) == _old_choose_parameters(spec, params, H)

    @settings(max_examples=150, deadline=None)
    @given(
        fx=st.sampled_from("ABCD"),
        l=st.integers(0, 4),
        dn=st.integers(0, 8),
        sign=st.sampled_from((1, -1)),
        bits=st.sampled_from((8, 64, 256, 1024)),
        data=st.data(),
    )
    def test_w_at_omega_is_E_minus_c0_t(self, all_fixtures, fx, l, dn, sign, bits, data):
        spec = all_fixtures[fx]
        entry = st.one_of(st.integers(-50, 50), st.integers(-(10 ** 40), 10 ** 40))
        A = data.draw(st.lists(entry, min_size=spec.n_vars, max_size=spec.n_vars))
        # a sign flip gives forms with a negative x_0 coefficient
        form = LinearForm(tuple(sign * c for c in w_form(spec, l, spec.S * l + dn).nums))
        c0, *cs = form.nums
        E = sum(c * a for c, a in zip(cs, A[1:]))
        assert c0 * A[0] + E == evaluate_exact(form, A)

        # w(omega) = E - c_0 t, t = sum_(i>=1) A_i f_i from lambda_grid
        w = evaluate_form(form, A[1:], omega_from_vector(spec, A[1:], bits))
        t_lo, t_hi, t_den = lambda_grid(spec, (0,) + tuple(A[1:]), bits)
        old = E - Enclosure(F(t_lo, t_den), F(t_hi, t_den)) * c0
        lo, hi, den = w
        assert Enclosure(F(lo, den), F(hi, den)) == old
        assert w.vs_half() == _old_vs_half(old)

    @given(den=st.integers(1, 8), lo=st.integers(-24, 24), width=st.integers(0, 24))
    @example(den=2, lo=0, width=1)  # |x| = 1/2 at the high end: decided <= 1/2
    @example(den=2, lo=-1, width=0)  # and at the low end
    def test_half_decision_matches_the_enclosure_test(self, den, lo, width):
        w = Grid(lo, lo + width, den)
        assert w.vs_half() == _old_vs_half(Enclosure(F(lo, den), F(lo + width, den)))


class TestScanBound:
    def test_the_bound_counts_shell_vectors(self, fix_a, fix_c, monkeypatch):
        # FIX-A to H_max = 10: 21 - 3 = 18 vectors; FIX-C at random, heights
        # 2 and 3 with 5 samples each: 10
        for spec, H_max, kwargs, count in (
            (fix_a, 10, {}, 18),
            (fix_c, 3, {"strategy": "random", "sample_count": 5}, 10),
        ):
            monkeypatch.setattr(measure, "MAX_SCAN_VECTORS", count)
            exponent_scan(spec, H_max, **kwargs)
            monkeypatch.setattr(measure, "MAX_SCAN_VECTORS", count - 1)
            with pytest.raises(DomainViolation):
                exponent_scan(spec, H_max, **kwargs)

    def test_gates_come_before_the_bound(self):
        with pytest.raises(NotApplicable):
            exponent_scan(validate_spec(3, 2, [0, 1], [(F(1), 1)]), 10 ** 9)
        wide = validate_spec(2, 1, [0, 1], [(F(1), 2), (F(3), 1)])
        with pytest.raises(DimensionTooLargeForExhaustive):
            exponent_scan(wide, 10 ** 9)

    def test_criterion_8_scans_are_far_below_the_bound(self):
        # criterion 8 scans FIX-A/B to H = 10^4, 2 * 10^4 - 2 vectors each;
        # the benchmark's scans stop below H = 230
        assert 10 * (2 * 10 ** 4) <= measure.MAX_SCAN_VECTORS
