"""Acceptance suite: one test per criterion, each printing a pass line.

Fixtures: FIX-A (q=2, P=z, alpha=1), FIX-B (q=2, P=z+1, alpha=1),
FIX-C (q=2, P=z, alpha in {1,3}), FIX-D (q=3/2, P=z^2+z/3, alpha=5/7, s=2).
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from conftest import oracle_f_sigma
from qforms import (
    NotApplicable,
    bounds_report,
    certify_lower_bound,
    check_identities,
    exponent_scan,
    functional_equation_residual,
    measure_params,
    nonvanishing_scan,
    omega_from_vector,
    validate_spec,
    vl_form,
    w_form,
)
from qforms.series import evaluate_form
from qforms.util import PrecisionPolicy
from qforms.cli import main as cli_main


def test_criterion_01_exact_identity_suite(all_fixtures):
    started = time.perf_counter()
    for name, spec in all_fixtures.items():
        report = check_identities(
            spec, n_max=100, l_max=spec.d + 3, series_N=100, rng_seed=1
        )
        assert report.all_passed, f"FIX-{name}: {report.to_json()}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"identity suite took {elapsed:.1f}s"
    print(f"[criterion 1] PASS - identity suite clean on 4 fixtures in {elapsed:.1f}s")


def test_criterion_02_integrality(all_fixtures):
    for name, spec in all_fixtures.items():
        for l in range(0, 7):
            for n in range(spec.S * l, 61):
                w_form(spec, l, n)  # integrality asserted internally
    spot = w_form(all_fixtures["A"], 1, 2)
    assert spot.coeffs == (14, 23)
    print("[criterion 2] PASS - w integral for l <= 6, n <= 60 on 4 fixtures; "
          "w_(1,2) = 14 x0 + 23 x1 on FIX-A")


def test_criterion_03_height_growth(fix_a):
    n_list = sorted(set(range(1, 201, 7)) | {200})
    report = bounds_report(
        fix_a, [1, 2, 3, 4, 5], n_list, precision_bits=512, precision_cap=1024
    )
    kappa = report.fitted_kappa
    assert kappa <= 10, f"fitted kappa = {float(kappa):.3f}"
    row = next(r for r in report.height_rows if (r.l, r.n) == (5, 200))
    ratio = row.log_height_q1 / row.main_term
    assert F(8, 10) <= ratio.lo and ratio.hi <= F(12, 10), (
        f"ratio at (5,200) in [{float(ratio.lo)}, {float(ratio.hi)}]"
    )
    print(f"[criterion 3] PASS - fitted kappa = {float(kappa):.3f} <= 10; "
          f"log-height/main-term at (l=5, n=200) = {float(ratio.lo):.5f}")


def test_criterion_04_smallness(fix_a):
    n_list = list(range(1, 61))
    report = bounds_report(fix_a, [1, 2, 3, 4, 5], n_list, precision_bits=2600)
    unit_rows = [
        r for r in report.smallness_rows if r.omega_label == "unit:1,0,0"
    ]
    assert unit_rows and all(not r.undecided for r in unit_rows)
    fitted_c = max(r.c_upper for r in unit_rows)
    assert fitted_c <= 10, f"fitted c = {float(fitted_c):.3f}"
    # spot value |v_(1,2)(omega)| for omega = (-f(1), 1)
    omega0 = omega_from_vector(fix_a, [1], 256)
    spot = evaluate_form(vl_form(fix_a, 1, 2), [1], omega0).enclosure().abs()
    oracle = abs(F(23, 2) - 7 * oracle_f_sigma(fix_a, 1, 0, 0))
    assert spot.lo - F(1, 1 << 200) <= oracle <= spot.hi + F(1, 1 << 200)
    assert F("0.008572") <= spot.midpoint <= F("0.008573")
    print(f"[criterion 4] PASS - fitted c = {float(fitted_c):.3f} <= 10; "
          f"|v_(1,2)(omega)| ~ {float(spot.midpoint):.6f}")


def test_criterion_05_nonvanishing_windows(all_fixtures):
    total = 0
    for name, spec in all_fixtures.items():
        rng = random.Random(5)
        omegas = []
        for _ in range(100):
            vec = [
                F(rng.randint(-100, 100), rng.randint(1, 100))
                for _ in range(spec.n_vars)
            ]
            if all(c == 0 for c in vec):
                vec[0] = F(1)
            omegas.append(vec)
        for l0 in range(0, 5):
            for n0_off in (0, 7, 23):
                n0 = spec.S * l0 + n0_off
                for vec in omegas:
                    verdict = nonvanishing_scan(spec, vec, l0, n0)
                    assert verdict.found_index is not None, (name, l0, n0)
                    assert n0 <= verdict.found_index <= n0 + spec.d * spec.S
                    total += 1
                verdict = nonvanishing_scan(spec, [1] * (spec.n_vars - 1), l0, n0)
                assert verdict.found_index is not None, (name, l0, n0, "f-omega")
                total += 1
    print(f"[criterion 5] PASS - {total} windows certified nonzero, 0 undecided")


def test_criterion_06_functional_equation(all_fixtures):
    for name, spec in all_fixtures.items():
        rng = random.Random(6)
        for _ in range(20):
            omega0 = F(rng.randint(-100, 100), rng.randint(1, 100))
            rest = [
                F(rng.randint(-100, 100), rng.randint(1, 100))
                for _ in range(spec.n_vars - 1)
            ]
            residuals = functional_equation_residual(spec, rest, omega0, 200)
            assert len(residuals) == 201
            assert all(r == 0 for r in residuals), name
    print("[criterion 6] PASS - residuals identically zero to degree 200, "
          "20 seeded omegas per fixture")


def test_criterion_07_certificates(fix_a, fix_b):
    started = time.perf_counter()
    policy = PrecisionPolicy(512)
    # the true value is the oracle's 200-term sum f plus a positive tail: for
    # q = 2 and P in {z, 1 + z}, |P(2^i)| >= 2^i, so term n is at most
    # 2^(-n(n+1)/2) and the tail past 200 terms is below 2^(1-201*202/2) < 2^-20000
    count = 0
    for spec, tag in ((fix_a, "A"), (fix_b, "B")):
        params = measure_params(spec, 64)
        f = oracle_f_sigma(spec, 1, 0, 0)
        fn, fd = f.numerator, f.denominator
        for a0 in range(-50, 51):
            for a1 in range(-50, 51):
                if a0 == 0 and a1 == 0:
                    continue
                cert = certify_lower_bound(
                    spec, [a0, a1], policy=policy, params=params
                )
                assert cert.bound > 0
                # cross_check is refined until it excludes zero, so its lower
                # endpoint witnesses desk-scale linear independence
                assert cert.cross_check.lo > 0, (tag, a0, a1)
                assert cert.bound <= cert.cross_check.lo, (tag, a0, a1)
                # independently of the package's series kernel,
                # bound <= |a0 + a1 f| - |a1| 2^-20000, times bd fd 2^20000
                bn, bd = cert.bound.numerator, cert.bound.denominator
                assert (bn * fd << 20000) + abs(a1) * bd * fd <= (
                    abs(a0 * fd + a1 * fn) * bd << 20000
                ), (tag, a0, a1)
                count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"certificate grid took {elapsed:.1f}s"
    print(f"[criterion 7] PASS - {count} certificates sound "
          f"(bound <= |Lambda| lower endpoint) in {elapsed:.1f}s")


def test_criterion_08_exponent_scan(fix_a, fix_b):
    for spec, tag, mu_display in ((fix_a, "A", 1.618034), (fix_b, "B", 2.414214)):
        report = exponent_scan(spec, 10_000, threads=4)
        mu_hi = report.mu.hi
        assert abs(float(mu_hi) - mu_display) < 1e-5
        max_exp = report.max_observed_exponent.hi
        assert max_exp <= mu_hi + 1, (
            f"FIX-{tag}: max exponent {float(max_exp):.4f} vs mu+1 = "
            f"{float(mu_hi) + 1:.4f}"
        )
        print(f"[criterion 8] FIX-{tag}: max exponent {float(max_exp):.4f} <= "
              f"mu + 1 = {float(mu_hi) + 1:.4f}; fitted C = "
              f"{float(report.fitted_C):.4f}")
    print("[criterion 8] PASS - exponent scans to H = 10^4 consistent with the "
          "bound shape")


def test_criterion_09_applicability_gate():
    narrow = validate_spec(3, 2, [0, 1], [(F(1), 1)])
    wide = validate_spec(9, 2, [0, 1], [(F(1), 1)])
    p_narrow = measure_params(narrow, 64)
    p_wide = measure_params(wide, 64)
    assert not p_narrow.applicable
    assert p_wide.applicable
    with pytest.raises(NotApplicable):
        certify_lower_bound(narrow, [0, 1])
    with pytest.raises(NotApplicable):
        exponent_scan(narrow, 10)
    print("[criterion 9] PASS - q=3/2 refused (gamma ~ 0.631 > 1/M ~ 0.382), "
          "q=9/2 admitted (gamma ~ 0.315)")


def test_criterion_10_determinism_and_threads(tmp_path):
    spec_path = tmp_path / "fa.json"
    spec_path.write_text(json.dumps({
        "q": {"num": "2", "den": "1"},
        "P": ["0", "1"],
        "points": [{"alpha": "1", "s": 1}],
        "precision_bits": 128,
    }))
    commands = [
        ["scan", "--hmax", "300", str(spec_path)],
        ["verify", "--n-max", "20", "--series-n", "20", str(spec_path)],
        ["bounds", "--l-list", "1,2", "--n-max", "12", "--n-step", "3",
         str(spec_path)],
    ]
    for cmd in commands:
        payloads = []
        for threads in ("1", "4"):
            out = tmp_path / f"out-{threads}.json"
            code = cli_main(["--out", str(out), "--threads", threads] + cmd)
            assert code == 0
            report = json.loads(out.read_text())
            payloads.append(
                json.dumps(report["payload"], sort_keys=True).encode()
            )
        assert payloads[0] == payloads[1], cmd[0]
    print("[criterion 10] PASS - byte-identical payloads for --threads 1 vs 4 "
          "on scan/verify/bounds")
