"""Parameter choice, certificates, exponent scans."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from conftest import oracle_f_sigma
from qforms import (
    DimensionTooLargeForExhaustive,
    NotApplicable,
    PrecisionPolicy,
    ZeroVector,
    certify_lower_bound,
    choose_parameters,
    exponent_scan,
    measure_params,
    validate_spec,
)


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
        assert cert.cross_check.contains(oracle)
        assert cert.wA != 0 and abs(cert.wA) >= 1
        assert cert.wOmega.abs().hi <= F(1, 2)
        assert cert.x0_coeff != 0

    def test_near_relation(self, fix_a):
        cert = certify_lower_bound(fix_a, [-23, 14])
        oracle = abs(14 * oracle_f_sigma(fix_a, 1, 0, 0) - 23)  # 0.0171441...
        assert 0 < cert.bound <= oracle
        assert cert.cross_check.contains(oracle)

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
        assert cert.cross_check.contains(F(3))

    def test_not_applicable(self):
        spec = validate_spec(3, 2, [0, 1], [(F(1), 1)])
        with pytest.raises(NotApplicable):
            certify_lower_bound(spec, [0, 1])

    def test_retry_cap_exceeded(self, fix_a):
        from qforms import RetryCapExceeded

        # l pinned to 1 cannot push |w(omega)| below 1/2 for a huge-height A
        with pytest.raises(RetryCapExceeded) as exc:
            certify_lower_bound(fix_a, [0, 10 ** 6], l_override=1, retry_cap=0)
        assert exc.value.attempts  # failing |w(omega)| enclosures reported

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
            assert row.lambda_abs.excludes_zero()
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
        assert all(r.lambda_abs.excludes_zero() for r in report.rows)

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
