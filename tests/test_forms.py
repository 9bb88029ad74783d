"""Forms engine: u/v construction, operator products, integerization."""

import random
from fractions import Fraction as F

import pytest

from conftest import oracle_p_eval, oracle_u_coeffs, oracle_v_coeffs, oracle_vl_nested
from qforms import (
    DomainViolation,
    form_height,
    operator_poly,
    u_form,
    v_form,
    vl_form,
    w_form,
)
from qforms.forms import (
    LinearForm,
    evaluate_exact,
    expand_shift_factors,
)


class TestUForm:
    def test_simple_power(self, fix_a):
        u5 = u_form(fix_a, 5)
        assert u5.coeffs == (F(0), F(1))  # 1^5

    def test_derivative_slot(self):
        from qforms import validate_spec

        spec = validate_spec(2, 1, [0, 1], [(F(1), 2)])
        u2 = u_form(spec, 2)
        # sigma = 0: 1^2 = 1;  sigma = 1: 1! C(2,1) 1^1 = 2
        assert u2.coeffs == (F(0), F(1), F(2))

    def test_n_zero_kills_derivatives(self, fix_d):
        u0 = u_form(fix_d, 0)
        by_slot = dict(zip(fix_d.var_indices, u0.coeffs[1:]))
        for (j, k, sigma), c in by_slot.items():
            assert c == (1 if sigma == 0 else 0)

    def test_negative_n(self, fix_c):
        u = u_form(fix_c, -2)
        oracle = oracle_u_coeffs(fix_c, -2)
        assert u.coeffs == oracle

    def test_matches_oracle_all_fixtures(self, all_fixtures):
        for spec in all_fixtures.values():
            for n in (-3, 0, 1, 4, 9):
                assert u_form(spec, n).coeffs == oracle_u_coeffs(spec, n)


class TestVForm:
    def test_spec_values(self, fix_a, fix_b):
        assert v_form(fix_a, 2).coeffs == (F(8), F(13))
        assert v_form(fix_a, 0).coeffs == (F(1), F(1))
        assert v_form(fix_b, 1).coeffs == (F(3), F(4))

    def test_against_closed_form_oracle(self, all_fixtures):
        for spec in all_fixtures.values():
            for n in range(0, 16):
                assert v_form(spec, n).coeffs == oracle_v_coeffs(spec, n)

    def test_x0_coefficient_is_p_product(self, all_fixtures):
        for spec in all_fixtures.values():
            prod = F(1)
            for n in range(0, 21):
                if n >= 1:
                    prod *= oracle_p_eval(spec, spec.q ** n)
                assert v_form(spec, n).coeffs[0] == prod

    def test_recurrence_identity(self, all_fixtures):
        for spec in all_fixtures.values():
            for n in range(1, 41):
                lhs = v_form(spec, n)
                rhs = v_form(spec, n - 1).scale(spec.P(spec.q ** n)) + u_form(spec, n)
                assert lhs.coeffs == rhs.coeffs

    def test_negative_n_rejected(self, fix_a):
        with pytest.raises(DomainViolation):
            v_form(fix_a, -1)


class TestOperatorPoly:
    def test_spec_examples(self, fix_a):
        assert operator_poly(fix_a, 1, 0) == (F(1), F(-1, 2))
        assert operator_poly(fix_a, 2, 0) == (F(1), F(-3, 4), F(1, 8))
        assert operator_poly(fix_a, 0, 0) == (F(1),)

    def test_degree_and_leading(self, all_fixtures):
        for spec in all_fixtures.values():
            for l in range(0, 4):
                for delta in (0, 1, 2):
                    op = operator_poly(spec, l, delta)
                    assert len(op) - 1 == spec.S * l
                    assert op[0] == 1
                    lead = F(1)
                    for k in range(1, l + 1):
                        for alpha, s in spec.points:
                            lead *= (-alpha * spec.q ** (delta - k)) ** s
                    assert op[-1] == lead

    def test_expand_matches_manual_square(self):
        # (1 - 2X)^2 = 1 - 4X + 4X^2
        assert expand_shift_factors([F(2), F(2)]) == (F(1), F(-4), F(4))


class TestVlForm:
    def test_spec_values(self, fix_a):
        assert vl_form(fix_a, 1, 2).coeffs == (F(7), F(23, 2))
        assert vl_form(fix_a, 1, 1).coeffs == (F(3, 2), F(5, 2))

    def test_l_zero_is_v(self, all_fixtures):
        for spec in all_fixtures.values():
            for n in (0, 3, 7):
                assert vl_form(spec, 0, n).coeffs == v_form(spec, n).coeffs

    def test_domain_violation(self, fix_d):
        with pytest.raises(DomainViolation):
            vl_form(fix_d, 2, 3)  # S*l = 4 > 3

    def test_matches_nested_application(self, all_fixtures):
        for spec in all_fixtures.values():
            for l in range(0, 4):
                for n in range(spec.S * l, spec.S * l + 6):
                    expanded = vl_form(spec, l, n)
                    assert expanded.coeffs == oracle_vl_nested(spec, l, n)


class TestWForm:
    def test_spec_values(self, fix_a):
        assert w_form(fix_a, 1, 2).coeffs == (14, 23)
        assert w_form(fix_a, 1, 1).coeffs == (3, 5)

    def test_w0_equals_v_for_fix_a(self, fix_a):
        # D = 1, q2 = 1, q1 exponent 0: w_(0,n) = v_n
        for n in (0, 2, 5, 9):
            assert w_form(fix_a, 0, n).coeffs == tuple(
                int(c) for c in v_form(fix_a, n).coeffs
            )

    def test_w0_height_unwinds_definition(self, fix_d):
        D = fix_d.clearing_D
        for n in (0, 2, 5):
            expected = (
                form_height(v_form(fix_d, n))
                * F(D) ** n
                * F(abs(fix_d.q_den)) ** (fix_d.d * n * (n + 1) // 2)
            )
            assert form_height(w_form(fix_d, 0, n)) == expected

    def test_integrality_small_grid(self, all_fixtures):
        # w_form asserts integrality internally; the point is that it
        # holds on rational q, non-integral P and alpha
        for spec in all_fixtures.values():
            for l in range(0, 5):
                for n in range(spec.S * l, spec.S * l + 8):
                    w_form(spec, l, n)

    def test_domain_violation(self, fix_d):
        with pytest.raises(DomainViolation):
            w_form(fix_d, 3, 5)


class TestHeight:
    def test_examples(self, fix_a):
        assert form_height(v_form(fix_a, 2)) == 13
        assert form_height(w_form(fix_a, 1, 2)) == 23

    def test_zero_form(self):
        assert form_height(LinearForm((0, 0), 1)) == 0

    def test_monotone_growth(self, all_fixtures):
        for spec in all_fixtures.values():
            for l in (0, 1, 2):
                heights = [
                    form_height(w_form(spec, l, n))
                    for n in range(spec.S * l + 2, spec.S * l + 12)
                ]
                assert all(b > a for a, b in zip(heights, heights[1:]))


class TestConcurrency:
    def test_parallel_form_construction_consistent(self, fix_c):
        from concurrent.futures import ThreadPoolExecutor

        grid = [(l, n) for l in range(0, 4) for n in range(fix_c.S * l, 30)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda ln: vl_form(fix_c, *ln).coeffs, grid))
        serial = [vl_form(fix_c, l, n).coeffs for l, n in grid]
        assert parallel == serial


class TestEvaluateExact:
    def test_dot_product(self, fix_a):
        v = v_form(fix_a, 2)  # 8 x0 + 13 x1
        assert evaluate_exact(v, (F(1), F(-1))) == -5

    def test_shift_identity_seeded(self):
        rng = random.Random(7)
        for _ in range(50):
            a = F(rng.randint(-100, 100), rng.randint(1, 100))
            b = F(rng.choice([i for i in range(-100, 101) if i]), rng.randint(1, 100))
            xi = [F(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(6)]
            for n in range(1, 6):
                lhs = b ** n * xi[n] - a * b ** (n - 1) * xi[n - 1]
                rhs = b ** n * (xi[n] - (a / b) * xi[n - 1])
                assert lhs == rhs

    def test_annihilation_seeded(self):
        rng = random.Random(11)
        for _ in range(25):
            t = rng.randint(0, 4)
            a = F(rng.choice([i for i in range(-50, 51) if i]), rng.randint(1, 50))
            poly = [F(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(t + 1)]
            coeffs = expand_shift_factors([a] * (t + 1))
            for n in range(-3, 7):
                total = F(0)
                for i, c in enumerate(coeffs):
                    p_val = sum(pc * F(n - i) ** e for e, pc in enumerate(poly))
                    total += c * p_val * a ** (n - i)
                assert total == 0


class TestLinearFormArithmetic:
    """LinearForm against plain Fraction arithmetic, coefficient by
    coefficient, on seeded random forms; the oracle is Fractions only."""

    @staticmethod
    def random_form(rng, dim):
        """(form, its coefficients as Fractions, the same form over k * den)."""
        den = rng.randint(1, 10 ** 6)
        nums = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(dim)]
        if rng.random() < 0.1:
            nums = [0] * dim
        k = rng.randint(2, 10 ** 4)
        oracle = tuple(F(a, den) for a in nums)
        same = LinearForm(tuple(a * k for a in nums), den * k)
        return LinearForm(tuple(nums), den), oracle, same

    def test_matches_fraction_arithmetic(self):
        rng = random.Random(3)
        for _ in range(400):
            dim = rng.randint(1, 7)
            f, fo, f_scaled = self.random_form(rng, dim)
            g, go, _ = self.random_form(rng, dim)
            c = F(rng.randint(-60, 60), rng.randint(1, 60))
            vec = [F(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(dim)]

            assert f.coeffs == fo
            assert f.coeffs[0] == fo[0]
            assert f == f_scaled and f_scaled.coeffs == fo
            assert hash(f) == hash(f_scaled)
            assert (f == g) == (fo == go)
            assert (f + g).coeffs == tuple(a + b for a, b in zip(fo, go))
            assert (f - g).coeffs == tuple(a - b for a, b in zip(fo, go))
            assert (f_scaled - f).coeffs == (F(0),) * dim
            assert f.scale(c).coeffs == tuple(c * a for a in fo)
            assert evaluate_exact(f, vec) == sum(a * v for a, v in zip(fo, vec))
            assert form_height(f) == max(abs(a) for a in fo)

    def test_unequal_when_one_coefficient_differs(self):
        rng = random.Random(5)
        for _ in range(200):
            dim = rng.randint(1, 7)
            den, k = rng.randint(1, 10 ** 6), rng.randint(2, 10 ** 4)
            nums = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(dim)]
            i = rng.randrange(dim)
            # coefficient i moves by 1/(k den), the others are equal
            bumped = tuple(a * k + (t == i) for t, a in enumerate(nums))
            assert LinearForm(bumped, den * k) != LinearForm(tuple(nums), den)

    def test_mismatched_lengths(self):
        f, g = LinearForm((1, 2), 3), LinearForm((1,), 3)
        assert f != g
        with pytest.raises(ValueError):
            f + g
        with pytest.raises(ValueError):
            evaluate_exact(f, (F(1),))

    def test_denominator_must_be_positive(self):
        for den in (0, -3):
            with pytest.raises(ValueError):
                LinearForm((1, 2), den)
