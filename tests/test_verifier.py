"""Identity suite, bounds report, non-vanishing scan."""

import json
import random
from fractions import Fraction as F

import pytest

from conftest import oracle_f_sigma
from qforms import (
    DomainViolation,
    PrecisionPolicy,
    ZeroOmega,
    bounds_report,
    check_identities,
    nonvanishing_scan,
    validate_spec,
)
from qforms.enclosure import log_enclosure
from qforms.forms import expand_shift_factors, u_form, v_form
from qforms.verifier import log_of_enclosure


class TestCheckIdentities:
    def test_passes_on_fixtures(self, fix_a, fix_d):
        for spec in (fix_a, fix_d):
            report = check_identities(spec, n_max=25, series_N=25, omega_count=2)
            assert report.all_passed, report.to_json()
            assert {c.name for c in report.checks} == {
                "recurrence",
                "main_relation",
                "functional_equation",
            }

    def test_mutation_control_fails_recurrence(self):
        from qforms import validate_spec

        # a fresh FIX-A spec: the planted v-memo must not reach other tests
        spec = validate_spec(2, 1, [0, 1], [(F(1), 1)])
        # deliberate off-by-one: scales by P(q^(n+1)) instead of P(q^n)
        mutated = [v_form(spec, 0)]
        for n in range(1, 40):
            mutated.append(mutated[-1].scale(spec.P(spec.q ** (n + 1))) + u_form(spec, n))
        spec.v_forms.update(enumerate(mutated))

        report = check_identities(spec, n_max=10, series_N=10, omega_count=1)
        assert not report.all_passed
        by_name = {c.name: c for c in report.checks}
        rec = by_name["recurrence"]
        assert not rec.passed
        assert rec.counterexample["n"] == 1
        assert "lhs" in rec.counterexample and "rhs" in rec.counterexample
        # the report a CLI run writes carries the witness too
        written = json.loads(json.dumps(report.to_json()))
        rec_json = next(c for c in written["checks"] if c["name"] == "recurrence")
        assert rec_json["counterexample"]["n"] == 1
        assert {"n", "lhs", "rhs"} <= set(rec_json["counterexample"])
        # the operator and residual checks read the planted sequence too
        assert not by_name["main_relation"].passed
        assert not by_name["functional_equation"].passed

    def test_mutation_control_fails_recurrence_on_a_corrupted_integer_p(self):
        # a fresh FIX-B spec whose integer D q2^(dn) P(q^n) is off by one at
        # n = 3 before v_form first runs; the check multiplies by the
        # rational P(q^n), so it must catch v_form's use of the integer
        spec = validate_spec(2, 1, [1, 1], [(F(1), 1)])
        p_terms = spec.p_terms

        def corrupted(n=1):
            for i, terms in enumerate(p_terms(n), start=n):
                yield [terms[0] + (i == 3)] + terms[1:]

        spec.__dict__["p_terms"] = corrupted
        report = check_identities(spec, n_max=10, series_N=10, omega_count=1)
        by_name = {c.name: c for c in report.checks}
        rec = by_name["recurrence"]
        assert not rec.passed
        assert rec.counterexample["n"] == 3
        # the residual reads P from spec.P and spec.q, not from p_terms
        fe = by_name["functional_equation"]
        assert not fe.passed
        assert fe.counterexample["degree"] == 3

    def test_n_max_below_one_rejected(self, fix_a):
        for n_max in (0, -3):
            with pytest.raises(DomainViolation):
                check_identities(fix_a, n_max=n_max, series_N=2)

    def test_l_max_below_d_rejected(self, fix_d):
        with pytest.raises(DomainViolation):
            check_identities(fix_d, n_max=5, l_max=1, series_N=5)

    def test_report_serializes(self, fix_b):
        report = check_identities(fix_b, n_max=8, series_N=8, omega_count=1)
        data = report.to_json()
        assert data["all_passed"] is True
        assert len(data["checks"]) == 3

    @staticmethod
    def wrong_factors(spec, wrong):
        """The factors of prod_{k=1..d} prod_j (1 - alpha_j q^-k B)^{s_j}, the
        expansion at (l, delta) = (d, 0), with one planted error."""
        ks = range(spec.d) if wrong == "k_shifted" else range(1, spec.d + 1)
        scale = 2 if wrong == "alpha_doubled" else 1
        factors = [
            scale * alpha * spec.q ** -k for k in ks for alpha, s in spec.points for _ in range(s)
        ]
        return factors[:-1] if wrong == "dropped" else factors

    @pytest.mark.parametrize("wrong", ["dropped", "k_shifted", "alpha_doubled"])
    @pytest.mark.parametrize(
        "fixture,first_pair", [("fix_a", (1, 1)), ("fix_c", (1, 2)), ("fix_d", (2, 4))],
        ids=["fix_a", "fix_c", "fix_d"],
    )
    def test_main_relation_catches_a_wrong_operator_expansion(
        self, request, fixture, first_pair, wrong
    ):
        # a fresh copy of the fixture: the planted expansion must not reach other tests
        base = request.getfixturevalue(fixture)
        spec = validate_spec(base.q_num, base.q_den, list(base.P.coefficients), list(base.points))
        factors = self.wrong_factors(spec, wrong)
        spec.operator_polys[(spec.d, 0)] = expand_shift_factors(factors)

        report = check_identities(spec, n_max=10, series_N=10, omega_count=1)
        by_name = {c.name: c for c in report.checks}
        main = by_name["main_relation"]
        assert not main.passed
        assert (main.counterexample["l"], main.counterexample["n"]) == first_pair
        assert by_name["recurrence"].passed
        assert by_name["functional_equation"].passed


class TestBoundsReport:
    def test_fix_a_shape_and_spot(self, fix_a):
        report = bounds_report(
            fix_a, [1, 2], [2, 5, 10, 20], precision_bits=1024, rng_seed=0
        )
        assert report.undecided_rows == 0
        assert report.fitted_kappa <= 10
        assert report.fitted_c is not None and report.fitted_c <= 10
        # spot: the unit-omega row at (l, n) = (1, 2); |v_(1,2)(omega)| is
        # about 0.0085721, so its base-2 log is about -6.866
        row = next(
            r
            for r in report.smallness_rows
            if r.omega_label == "unit:1,0,0" and (r.l, r.n) == (1, 2)
        )
        oracle = F(23, 2) - 7 * oracle_f_sigma(fix_a, 1, 0, 0)
        log_oracle = log_enclosure(oracle, 80) / log_enclosure(F(2), 80)
        assert row.log_v_omega_q.lo <= log_oracle.hi
        assert log_oracle.lo <= row.log_v_omega_q.hi

    def test_height_rows_cover_grid(self, fix_b):
        report = bounds_report(fix_b, [0, 1], [1, 3, 6], precision_bits=512)
        pairs = {(r.l, r.n) for r in report.height_rows}
        assert pairs == {(0, 1), (0, 3), (0, 6), (1, 1), (1, 3), (1, 6)}

    def test_empty_grid_is_a_domain_violation(self, fix_d):
        # S = 2: v_(l,n) needs n >= 2 l, which no pair of this grid meets
        with pytest.raises(DomainViolation):
            bounds_report(fix_d, [2, 3], [0, 1, 3], precision_bits=512)

    def test_start_above_cap_runs_at_the_cap(self):
        fresh_a = validate_spec(2, 1, [0, 1], [(F(1), 1)])  # no value tables yet
        bounds_report(fresh_a, [1, 2], [2, 4, 6], precision_bits=512, precision_cap=300)
        assert list(fresh_a.value_tables) == [300]

    def test_csv_rows(self, fix_a):
        report = bounds_report(fix_a, [1], [2, 4], precision_bits=512)
        rows = report.csv_rows()
        kinds = {r["kind"] for r in rows}
        assert kinds == {"height", "smallness"}


class TestLogOfEnclosure:
    def test_requires_positive(self):
        from qforms.enclosure import Enclosure

        with pytest.raises(ValueError):
            log_of_enclosure(Enclosure(F(0), F(1)))

    def test_brackets(self):
        from qforms.enclosure import Enclosure

        enc = log_of_enclosure(Enclosure(F(2), F(4)), 48)
        ln2 = log_enclosure(F(2), 48)
        ln4 = log_enclosure(F(4), 48)
        assert enc.lo <= ln2.hi and ln4.lo <= enc.hi


class TestNonvanishing:
    def test_x0_only_rational(self, fix_a):
        verdict = nonvanishing_scan(fix_a, [F(1), F(0)], 0, 5)
        assert verdict.found_index == 5  # v_(0,n)(1,0) = prod P(q^k) != 0

    def test_f_built_omega_window(self, fix_a):
        verdict = nonvanishing_scan(fix_a, [1], 3, 10)
        assert verdict.found_index in (10, 11)
        assert not verdict.undecided

    def test_zero_omega(self, fix_a):
        with pytest.raises(ZeroOmega):
            nonvanishing_scan(fix_a, [F(0), F(0)], 1, 3)
        with pytest.raises(ZeroOmega):
            nonvanishing_scan(fix_a, [0], 1, 3)

    def test_rest_of_wrong_length_or_all_zero(self, all_fixtures):
        for spec in all_fixtures.values():
            for length in (0, spec.n_vars - 2, spec.n_vars + 1):
                with pytest.raises(ValueError):
                    nonvanishing_scan(spec, [F(1)] * length, 1, spec.S + 1)
            with pytest.raises(ZeroOmega, match="^omega vector is identically zero$"):
                nonvanishing_scan(spec, [0] * (spec.n_vars - 1), 1, spec.S + 1)

    def test_domain_violation(self, fix_d):
        with pytest.raises(DomainViolation):
            nonvanishing_scan(fix_d, [F(1)] + [F(0)] * 4, 2, 3)

    def test_rational_windows_never_all_zero(self, all_fixtures):
        rng = random.Random(23)
        for spec in all_fixtures.values():
            for _ in range(20):
                vec = [
                    F(rng.randint(-100, 100), rng.randint(1, 100))
                    for _ in range(spec.n_vars)
                ]
                if all(c == 0 for c in vec):
                    continue
                for l0 in (0, 1, 2):
                    for n0 in (spec.S * l0, spec.S * l0 + 5):
                        verdict = nonvanishing_scan(spec, vec, l0, n0)
                        assert verdict.found_index is not None
                        assert n0 <= verdict.found_index <= n0 + spec.d * spec.S

    def test_undecided_at_tiny_cap(self, fix_a):
        verdict = nonvanishing_scan(fix_a, [1], 3, 10, PrecisionPolicy(8, 8))
        assert verdict.undecided
        assert verdict.found_index is None
        assert verdict.to_json()["undecided"] is True


class TestNegativeQ:
    def test_full_stack_with_negative_q(self):
        from qforms import validate_spec, w_form, f_derivative_enclosure

        spec = validate_spec(-2, 1, [0, 1, 1], [(F(3), 1)])
        report = check_identities(spec, n_max=15, series_N=15, omega_count=2)
        assert report.all_passed, report.to_json()
        for l in range(0, 3):
            for n in range(spec.S * l, spec.S * l + 5):
                w_form(spec, l, n)
        enc = f_derivative_enclosure(spec, 1, 0, 0, 64)
        assert enc.width <= F(1, 1 << 64)
        enc_refined = f_derivative_enclosure(spec, 1, 0, 0, 128)
        assert enc.lo <= enc_refined.lo and enc_refined.hi <= enc.hi


class TestKappaAcrossFixtures:
    def test_fitted_kappa_finite_everywhere(self, all_fixtures):
        # a single per-fixture constant bounds the height residuals
        for name, spec in all_fixtures.items():
            n_list = sorted({spec.S * 2, 12, 20, 32} | {40})
            report = bounds_report(
                spec, [0, 1, 2], n_list, precision_bits=512, precision_cap=1024
            )
            assert report.fitted_kappa <= 50, (name, float(report.fitted_kappa))
