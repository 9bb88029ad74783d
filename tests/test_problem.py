"""Validation, gamma, measure parameters, clearing denominator."""

import subprocess
import sys
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import mpf_to_fraction, subprocess_env
from qforms import (
    Condition1Violated,
    Condition2Violated,
    PRootAtQPower,
    QFormsError,
    QNotAdmissible,
    gamma_enclosure,
    measure_params,
    validate_spec,
)
from qforms import problem
from qforms.errors import InvalidSpec
from qforms.problem import q_power_exponent


class TestValidate:
    def test_valid_minimal(self, fix_a):
        assert fix_a.q == 2
        assert fix_a.S == 1
        assert fix_a.eps0 == 1
        assert fix_a.n_vars == 2

    def test_condition1(self):
        with pytest.raises(Condition1Violated) as exc:
            validate_spec(2, 1, [0, 1], [(F(2), 1), (F(1), 1)])
        assert (exc.value.j, exc.value.k, exc.value.exponent) == (1, 2, 1)

    def test_p_root_at_q_power(self):
        with pytest.raises(PRootAtQPower) as exc:
            validate_spec(2, 1, [-2, 1], [(F(1), 1)])
        assert exc.value.n == 1

    def test_condition2(self):
        # alpha = P(0) * q^1 = (-3) * 2; P(2^n) = 2^n - 3 never vanishes
        with pytest.raises(Condition2Violated) as exc:
            validate_spec(2, 1, [-3, 1], [(F(-6), 1)])
        assert (exc.value.j, exc.value.n) == (1, 1)

    def test_p_root_takes_precedence(self):
        # P = z - 2 vanishes at q^1, which is reported before the
        # alpha = P(0) q^1 relation can be inspected
        with pytest.raises(PRootAtQPower) as exc:
            validate_spec(2, 1, [-2, 1], [(F(-4), 1)])
        assert exc.value.n == 1

    def test_q_autoreduced(self):
        spec = validate_spec(4, 2, [0, 1], [(F(1), 1)])
        assert (spec.q_num, spec.q_den) == (2, 1)

    def test_q_sign_normalized(self):
        spec = validate_spec(-4, -2, [0, 1], [(F(1), 1)])
        assert (spec.q_num, spec.q_den) == (2, 1)
        spec = validate_spec(2, -1, [0, 1], [(F(1), 1)])
        assert (spec.q_num, spec.q_den) == (-2, 1)

    def test_condition1_negative_exponent(self):
        with pytest.raises(Condition1Violated) as exc:
            validate_spec(2, 1, [0, 1], [(F(1), 1), (F(4), 1)])
        assert (exc.value.j, exc.value.k, exc.value.exponent) == (1, 2, -2)

    def test_q_rejections(self):
        with pytest.raises(QNotAdmissible):
            validate_spec(2, 3, [0, 1], [(F(1), 1)])
        with pytest.raises(QNotAdmissible):
            validate_spec(1, 1, [0, 1], [(F(1), 1)])
        with pytest.raises(QNotAdmissible):
            validate_spec(2, 0, [0, 1], [(F(1), 1)])

    def test_negative_q_condition1(self):
        with pytest.raises(Condition1Violated) as exc:
            validate_spec(-2, 1, [0, 1], [(F(-2), 1), (F(1), 1)])
        assert exc.value.exponent == 1

    def test_negative_q_valid(self):
        spec = validate_spec(-2, 1, [0, 1], [(F(2), 1), (F(1), 1)])
        # 2/1 = (-2)^t has no integer solution, so this spec is fine
        assert spec.q == -2

    def test_structural_rejections(self):
        with pytest.raises(InvalidSpec):
            validate_spec(2, 1, [5], [(F(1), 1)])  # degree 0
        with pytest.raises(InvalidSpec):
            validate_spec(2, 1, [1, 0], [(F(1), 1)])  # zero leading coeff
        with pytest.raises(InvalidSpec):
            validate_spec(2, 1, [0, 1], [(F(0), 1)])  # alpha = 0
        with pytest.raises(InvalidSpec):
            validate_spec(2, 1, [0, 1], [(F(1), 0)])  # s = 0
        with pytest.raises(InvalidSpec):
            validate_spec(2, 1, [0, 1], [])  # no points

    @given(
        q=st.fractions(-9, 9, max_denominator=6).filter(lambda q: abs(q) > 1),
        roots=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        cofactor=st.lists(st.fractions(-9, 9, max_denominator=5), min_size=1, max_size=3)
        .filter(any),
        z_power=st.integers(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_planted_q_power_roots(self, q, roots, cofactor, z_power):
        # P = z^k * cofactor * prod (z - q^m), as coefficients p_0 .. p_d
        coeffs = [F(0)] * z_power + list(cofactor)
        for m in roots:
            root = q ** m
            coeffs = [-root * coeffs[0]] + [
                a - root * b for a, b in zip(coeffs[:-1], coeffs[1:])
            ] + [coeffs[-1]]
        while coeffs[-1] == 0:
            coeffs.pop()

        def plain_value(x):
            return sum(c * x ** i for i, c in enumerate(coeffs))

        least = next(n for n in range(1, max(roots) + 1) if plain_value(q ** n) == 0)
        assert least <= min(roots)
        with pytest.raises(PRootAtQPower) as exc:
            validate_spec(q.numerator, q.denominator, coeffs, [(F(1), 1)])
        assert exc.value.n == least

    def test_deterministic(self):
        a = validate_spec(2, 1, [0, F(1, 3)], [(F(5, 7), 2)])
        b = validate_spec(2, 1, [0, F(1, 3)], [(F(5, 7), 2)])
        assert a == b


class TestQPowerExponent:
    @given(
        q=st.fractions(-30, 30, max_denominator=9).filter(lambda q: abs(q) > 1),
        t=st.integers(-40, 40),
        factor=st.sampled_from([F(1), F(-1), F(2), F(1, 3), F(-5, 7)]),
        noise=st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6).filter(bool),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_definition(self, q, t, factor, noise):
        for x in (factor * q ** t, noise):
            # walk t over the range where |q|^t can meet |x|
            expected, absq, s = None, abs(q), 0
            while absq ** s <= max(abs(x), 1 / abs(x)):
                for sign in (s, -s):
                    if q ** sign == x:
                        expected = sign
                s += 1
            assert q_power_exponent(x, q) == expected

    def test_bounded_time_on_huge_alpha(self):
        # q = 100/99 with alphas 1 and 10^240: walking |q|^t up to 10^240 in
        # Fractions took tens of seconds
        code = (
            "from fractions import Fraction as F; from qforms import validate_spec; "
            "print(validate_spec(100, 99, [1, 1], [(F(1), 1), (F(10**240), 1)]).S)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=subprocess_env(), timeout=10,
        )
        assert proc.stdout.strip() == "2", proc.stderr


class TestGamma:
    def test_integer_q_exact_zero(self, fix_a):
        enc = gamma_enclosure(fix_a, 32)
        assert (enc.lo, enc.hi) == (0, 0)

    @pytest.mark.parametrize(
        "q_num,q_den,expr",
        [(3, 2, ("2", "3")), (9, 2, ("2", "9")), (5, 3, ("3", "5"))],
    )
    def test_against_mpmath(self, q_num, q_den, expr):
        spec = validate_spec(q_num, q_den, [0, 1], [(F(1), 1)])
        enc = gamma_enclosure(spec, 48)
        mp.mp.prec = 300
        oracle = mpf_to_fraction(mp.log(mp.mpf(int(expr[0]))) / mp.log(mp.mpf(int(expr[1]))))
        slack = F(1, 1 << 200)
        assert enc.lo - slack <= oracle <= enc.hi + slack
        assert enc.width <= F(1, 1 << 48)

    def test_width_halves_with_precision(self):
        spec = validate_spec(3, 2, [0, 1], [(F(1), 1)])
        prev = gamma_enclosure(spec, 16).width
        for pb in range(17, 24):
            cur = gamma_enclosure(spec, pb).width
            assert cur * 2 <= prev
            prev = cur


class TestDominanceIndex:
    @given(
        q=st.fractions(-30, 30, max_denominator=9).filter(lambda q: abs(q) > 1),
        lower=st.lists(st.fractions(-50, 50, max_denominator=50), min_size=1, max_size=3),
        lead=st.fractions(-50, 50, max_denominator=10 ** 6).filter(bool),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_definition(self, q, lower, lead):
        try:
            spec = validate_spec(q.numerator, q.denominator, lower + [lead], [(F(1), 1)])
        except QFormsError:
            assume(False)
        # least k >= 1 with 2 sum_{nu<d} |p_nu| |q|^(nu k) <= |p_d| |q|^(d k)
        absq, d, k = abs(q), len(lower), 1
        while 2 * sum(abs(c) * absq ** (nu * k) for nu, c in enumerate(lower)) > (
            abs(lead) * absq ** (d * k)
        ):
            k += 1
        assert spec.dominance_index == k

    def test_bounded_time_near_one(self):
        # q = 100/99, P = 100 + z/10^40: k* = 9692; recomputing |q|^(nu k)
        # from scratch for every k took seconds
        code = (
            "from fractions import Fraction as F; from qforms import validate_spec; "
            "print(validate_spec(100, 99, [100, F(1, 10**40)], [(F(1), 1)]).dominance_index)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=subprocess_env(), timeout=2,
        )
        assert proc.stdout.strip() == "9692", proc.stderr


class TestPTerms:
    @given(
        q=st.fractions(-30, 30, max_denominator=9).filter(lambda q: abs(q) > 1),
        lower=st.lists(
            st.one_of(st.just(F(0)), st.fractions(-50, 50, max_denominator=50)),
            min_size=1, max_size=3,
        ),
        lead=st.fractions(-50, 50, max_denominator=10 ** 6).filter(bool),
        alpha=st.fractions(-20, 20, max_denominator=30).filter(bool),
    )
    @example(q=F(-3, 2), lower=[F(0), F(-1, 3), F(0)], lead=F(2), alpha=F(5, 7))
    @example(q=F(7, 5), lower=[F(1, 3)], lead=F(-1, 6), alpha=F(1))
    @settings(max_examples=100, deadline=None)
    def test_sum_is_the_scaled_rational_p(self, q, lower, lead, alpha):
        # d = 1..3, with zero and nonzero non-leading coefficients
        coeffs = lower + [lead]
        try:
            spec = validate_spec(q.numerator, q.denominator, coeffs, [(alpha, 1)])
        except QFormsError:
            assume(False)
        d, D = len(coeffs) - 1, spec.clearing_D
        assert next(spec.p_terms(0)) == [D * c for c in coeffs]
        for n, terms in zip(range(1, 61), spec.p_terms()):
            scaled_p = D * q.denominator ** (d * n) * sum(
                c * q ** (nu * n) for nu, c in enumerate(coeffs)
            )
            assert sum(terms) == scaled_p
            if n % 20 == 0:
                assert next(spec.p_terms(n)) == terms


class TestMeasureParams:
    def test_fix_a(self, fix_a):
        params = measure_params(fix_a, 64)
        mp.mp.prec = 300
        m_oracle = mpf_to_fraction((3 + mp.sqrt(5)) / 2)
        mu_oracle = mpf_to_fraction((1 + mp.sqrt(5)) / 2)
        assert params.S == 1 and params.eps0 == 1
        assert params.M.lo <= m_oracle <= params.M.hi
        assert params.mu.lo <= mu_oracle <= params.mu.hi
        assert params.applicable

    def test_fix_b(self, fix_b):
        params = measure_params(fix_b, 64)
        mp.mp.prec = 300
        assert params.eps0 == 0
        assert params.M.lo <= mpf_to_fraction(2 + mp.sqrt(2)) <= params.M.hi
        assert params.mu.lo <= mpf_to_fraction(1 + mp.sqrt(2)) <= params.mu.hi

    def test_applicability_gate(self):
        narrow = validate_spec(3, 2, [0, 1], [(F(1), 1)])
        assert not measure_params(narrow, 64).applicable
        assert measure_params(narrow, 64).mu is None
        wide = validate_spec(9, 2, [0, 1], [(F(1), 1)])
        assert measure_params(wide, 64).applicable

    def test_undecidable_at_tiny_cap(self):
        from qforms import UndecidableAtCap

        # gamma(68/5) ~ 0.381428 sits within 0.00054 of 1/M ~ 0.381966,
        # which a 4-bit enclosure cannot separate
        close = validate_spec(68, 5, [0, 1], [(F(1), 1)])
        with pytest.raises(UndecidableAtCap):
            measure_params(close, 4, precision_cap=4)
        # full precision resolves it
        assert measure_params(close, 64).applicable

    def test_start_above_cap_runs_at_the_cap(self):
        # a 10^6-bit start used to run the first rung above a 1024-bit cap
        code = (
            "from fractions import Fraction as F; from qforms import validate_spec, measure_params; "
            "spec = validate_spec(3, 2, [0, F(1, 3), 1], [(F(5, 7), 2)]); "
            "print(measure_params(spec, 10**6, 1024).precision_bits)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=subprocess_env(), timeout=10,
        )
        assert proc.stdout.strip() == "1024", proc.stderr

    @pytest.mark.parametrize("points", [[(F(1), 1)], [(F(1), 2)], [(F(1), 1), (F(3), 2)]])
    def test_m_quadratic_relation(self, points):
        spec = validate_spec(2, 1, [0, 0, 1], points)  # monomial z^2, eps0 = 1
        assert spec.eps0 == 1
        params = measure_params(spec, 96)
        ds = F(spec.d * spec.S)
        shifted = params.M - (ds + F(1, 2))
        square = shifted * shifted
        assert square.lo <= ds * ds + F(1, 4) <= square.hi

    @pytest.mark.parametrize("q_num,q_den,bits,last", [(3, 1, 8, 8), (68, 5, 4, 16)])
    def test_each_rung_is_enclosed_once(self, monkeypatch, q_num, q_den, bits, last):
        # the mu climb starts at the separating rung and must reuse its gamma
        # and M; at q = 68/5 the separating test itself climbs 4 -> 8 -> 16
        spec = validate_spec(q_num, q_den, [0, 1], [(F(1), 1)])
        rungs = []

        def counted(spec, precision_bits):
            rungs.append(precision_bits)
            return gamma_enclosure(spec, precision_bits)

        monkeypatch.setattr(problem, "gamma_enclosure", counted)
        params = measure_params(spec, bits)
        assert params.applicable and params.precision_bits == last
        assert last in rungs and len(rungs) == len(set(rungs)), rungs


class TestClearingDenominator:
    def test_trivial(self, fix_a):
        assert fix_a.clearing_D == 1

    def test_mixed(self):
        spec = validate_spec(2, 1, [0, F(1, 3)], [(F(5, 7), 1)])
        assert spec.clearing_D == 21

    def test_rational_q(self):
        spec = validate_spec(3, 2, [0, 1], [(F(1), 1)])
        assert spec.clearing_D == 1  # d = 1, so only k = 0 matters

    @pytest.mark.parametrize(
        "q,p,pts",
        [
            ((3, 2), [0, F(1, 3), 1], [(F(5, 7), 2)]),
            ((5, 2), [F(1, 6), 0, 1], [(F(3, 4), 1)]),
            ((2, 1), [0, F(2, 9)], [(F(7, 5), 1), (F(1, 5), 2)]),
        ],
    )
    def test_minimality(self, q, p, pts):
        spec = validate_spec(q[0], q[1], p, pts)
        D = spec.clearing_D

        def works(cand: int) -> bool:
            if any((cand * c).denominator != 1 for c in spec.P.coefficients):
                return False
            for j in range(1, spec.m + 1):
                for k in range(spec.d):
                    if (cand * spec.point_arg(j, k)).denominator != 1:
                        return False
            return True

        assert works(D)
        # no proper divisor works: strip one prime at a time
        n, f = D, 2
        primes = set()
        while f * f <= n:
            while n % f == 0:
                primes.add(f)
                n //= f
            f += 1
        if n > 1:
            primes.add(n)
        for prime in primes:
            assert not works(D // prime)
