"""Series enclosures, lambda combinations, omega evaluation, residuals."""

import itertools
import json
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    mpf_to_fraction,
    oracle_f_sigma,
    oracle_falling,
    oracle_p_eval,
    oracle_u_coeffs,
    reference_series_enclosure,
    subprocess_env,
)
from qforms import (
    Grid,
    evaluate_form,
    f_derivative_enclosure,
    functional_equation_residual,
    lambda_enclosure,
    omega_from_vector,
    validate_spec,
    value_table,
    vl_form,
)
from qforms import series
from qforms.enclosure import Enclosure
from qforms.errors import PrecisionCapExceeded, QFormsError
from qforms.forms import LinearForm, evaluate_exact, u_form, v_form, w_form
from qforms.series import _series_grid, lambda_grid

TINY = F(1, 1 << 500)


class TestFDerivative:
    def test_fix_a_value(self, fix_a):
        oracle = oracle_f_sigma(fix_a, 1, 0, 0)
        enc = f_derivative_enclosure(fix_a, 1, 0, 0, 64)
        assert enc.lo - TINY <= oracle <= enc.hi + TINY
        assert enc.width <= F(1, 1 << 64)
        # the classical display value, to 16 digits
        assert abs(enc.midpoint - F("1.6416325606551539")) < F(1, 10 ** 15)

    def test_fix_c_at_three(self, fix_c):
        oracle = oracle_f_sigma(fix_c, 2, 0, 0)
        enc = f_derivative_enclosure(fix_c, 2, 0, 0, 64)
        assert enc.lo - TINY <= oracle <= enc.hi + TINY
        # 4.13374819151876947... (exact series value)
        assert F("4.1337481") <= enc.midpoint <= F("4.1337482")

    def test_fix_d_derivative_slot(self, fix_d):
        oracle = oracle_f_sigma(fix_d, 1, 1, 1)
        enc = f_derivative_enclosure(fix_d, 1, 1, 1, 96)
        assert enc.lo - TINY <= oracle <= enc.hi + TINY
        assert enc.width <= F(1, 1 << 96)

    def test_leading_term_dominates_near_zero(self):
        # n = 0 contributes exactly 1 (empty product); a tiny argument
        # leaves f within a hair of 1
        spec = validate_spec(2, 1, [0, 1], [(F(1, 10 ** 9), 1)])
        enc = f_derivative_enclosure(spec, 1, 0, 0, 64)
        assert abs(enc.midpoint - 1) < F(1, 10 ** 8)

    def test_refinement_nests(self, all_fixtures):
        for spec in all_fixtures.values():
            j, k, sigma = spec.var_indices[0]
            prev = f_derivative_enclosure(spec, j, k, sigma, 32)
            for pb in (64, 128, 256):
                cur = f_derivative_enclosure(spec, j, k, sigma, pb)
                assert prev.lo <= cur.lo and cur.hi <= prev.hi
                assert cur.width <= prev.width
                prev = cur

    def test_bad_slot_rejected(self, fix_a, fix_c, fix_d):
        # exactly the value slots are accepted
        for spec in (fix_a, fix_c, fix_d):
            for jks in itertools.product(range(-1, 4), repeat=3):
                if jks in spec.var_indices:
                    f_derivative_enclosure(spec, *jks, 8)
                    continue
                message = f"(j, k, sigma) = {jks} outside the value slots"
                with pytest.raises(ValueError, match=re.escape(message)):
                    f_derivative_enclosure(spec, *jks, 8)


class TestKernel:
    """The integer kernel against the Fraction loop it replaced,
    conftest.reference_series_enclosure."""

    @pytest.mark.parametrize("bits", [1, 8, 64, 256, 1024, 4096, 16384])
    def test_equals_the_reference_on_every_fixture_slot(self, all_fixtures, bits):
        for spec in all_fixtures.values():
            for jks in spec.var_indices:
                got = f_derivative_enclosure(spec, *jks, bits)
                assert got == reference_series_enclosure(spec, *jks, bits), (spec, jks)

    @pytest.mark.parametrize("bits", [1, 2, 7, 8, 64, 256])
    def test_a_two_bit_first_guard_grows_to_the_same_ends(self, all_fixtures, bits):
        # at 2 guard bits the first pass can rarely decide the stop test or
        # the rounding, so the guard must grow; a decision taken on too wide
        # an interval would show as a wrong end (FIX-A at p = 7 has a term
        # exactly on the stop threshold). The fixtures step only by positive
        # ratios. The signed specs, found by a random search, step by negative
        # ones: the first catches a low end ceiled there, the other two a
        # stop taken while the stop test is undecided
        signed = [
            validate_spec(3, 1, [F(-9, 7), F(8, 11), -2], [(F(1), 2)]),
            validate_spec(4, 1, [F(-1, 5), F(-3, 4)], [(F(-5, 4), 2)]),
            validate_spec(8, 3, [0, 0, F(3, 4)], [(F(-3, 2), 1)]),
        ]
        for spec in [*all_fixtures.values(), *signed]:
            for jks in spec.var_indices:
                got = _series_grid(spec, *jks, bits, guard=2).enclosure()
                assert got == reference_series_enclosure(spec, *jks, bits), (spec, jks)

    def test_an_exact_end_on_the_grid_is_taken_one_step_outward(self):
        # the exact lower end is -1/8, a point of the grid 2^-3 itself: no
        # guard decides its floor, so the kernel takes the step below
        spec = validate_spec(4, 1, [-8, -1], [(F(3), 3)])
        ref = reference_series_enclosure(spec, 1, 0, 1, 1)
        got = f_derivative_enclosure(spec, 1, 0, 1, 1)
        assert (ref.lo, got.lo) == (F(-1, 8), F(-2, 8)) and got.hi == ref.hi

    def test_a_term_on_the_stop_threshold_ends_the_sum(self):
        # term 2 of f'(3/2) is -1/16, so 4 |term| meets the p = 1 threshold
        # 2^-2 with equality: the sum stops there, as the reference does
        spec = validate_spec(-2, 1, [F(-4, 3), F(7, 3)], [(F(3, 2), 2)])
        got = f_derivative_enclosure(spec, 1, 0, 1, 1)
        assert got == reference_series_enclosure(spec, 1, 0, 1, 1) == Enclosure(F(-3, 8), F(0))

    def test_the_term_budget_counts_terms_to_the_regime_start(self, monkeypatch):
        # q = 100/99, P = 100 + z: k* = 528, so the tail bound applies from n = 527
        spec = validate_spec(100, 99, [100, 1], [(F(1), 1)])
        monkeypatch.setattr(series, "_MAX_SERIES_TERMS", 526)
        with pytest.raises(PrecisionCapExceeded, match="did not localize"):
            f_derivative_enclosure(spec, 1, 0, 0, 8)
        monkeypatch.setattr(series, "_MAX_SERIES_TERMS", 527)
        f_derivative_enclosure(spec, 1, 0, 0, 8)

    def test_a_regime_past_the_term_budget_is_refused_before_summing(self):
        # q = 1001/1000, P = z / 10^700: the regime starts near n = 1.6 million
        spec = validate_spec(1001, 1000, [0, F(1, 10 ** 700)], [(F(1), 1)])
        with pytest.raises(PrecisionCapExceeded, match="did not localize"):
            f_derivative_enclosure(spec, 1, 0, 0, 8)


@settings(max_examples=200, deadline=None)
@given(
    q=st.fractions(-12, 12, max_denominator=7).filter(lambda q: abs(q) > 1),
    lower=st.lists(st.fractions(-9, 9, max_denominator=12), max_size=2),
    lead=st.fractions(-9, 9, max_denominator=12).filter(bool),
    points=st.lists(
        st.tuples(st.fractions(-9, 9, max_denominator=9).filter(bool), st.integers(1, 3)),
        min_size=1, max_size=2,
    ),
    bits=st.sampled_from((1, 2, 3, 8, 64)),
    slot=st.integers(0, 17),
)
@example(q=F(4), lower=[F(-8)], lead=F(-1), points=[(F(3), 3)], bits=1, slot=1)
def test_kernel_contains_the_reference_within_one_step(q, lower, lead, points, bits, slot):
    # d <= 3 and s_j <= 3; an end lies outside the reference's only when the
    # exact end is a point of the grid, and then by one step
    try:
        spec = validate_spec(q.numerator, q.denominator, lower + [lead], points)
    except QFormsError:
        assume(False)
    jks = spec.var_indices[slot % len(spec.var_indices)]
    got = f_derivative_enclosure(spec, *jks, bits)
    ref = reference_series_enclosure(spec, *jks, bits)
    step = F(1, 1 << (bits + 2))
    assert got.lo <= ref.lo <= got.lo + step and got.hi - step <= ref.hi <= got.hi


NEAR_ONE = [["100", "1"], ["100", "1/100000000000000000000"]]  # k* = 528 and 5110


class TestNearUnitQ:
    """q = 100/99, alpha = 1: hundreds or thousands of terms precede the
    tail bound; summing them as exact Fractions took minutes."""

    @pytest.mark.parametrize("P", NEAR_ONE)
    @pytest.mark.parametrize("argv", [
        ["nonvanish", "--l0", "0", "--n0", "0", "--omega-from-f", "1"], ["bounds"]])
    def test_cli_runs_finish(self, tmp_path, P, argv):
        path = tmp_path / "near_one.json"
        path.write_text(json.dumps(
            {"q": {"num": "100", "den": "99"}, "P": P, "points": [{"alpha": "1", "s": 1}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "qforms.cli", *argv, str(path)],
            capture_output=True, text=True, env=subprocess_env(), timeout=30,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    @pytest.mark.parametrize("P", NEAR_ONE)
    def test_value_contains_mpmath(self, P):
        spec = validate_spec(100, 99, P, [(F(1), 1)])
        enc = f_derivative_enclosure(spec, 1, 0, 0, 256)
        # f(1) = sum_n 1 / prod_{i<=n} (p_0 + p_1 q^i); each factor exceeds
        # 100, so 300 terms leave a tail below 100^-300
        with mpmath.workprec(512):
            q = mpmath.mpf(100) / 99
            p0, p1 = (mpmath.mpf(F(c).numerator) / F(c).denominator for c in P)
            total = term = mpmath.mpf(1)
            for n in range(1, 301):
                term /= p0 + p1 * q ** n
                total += term
            value = mpf_to_fraction(total)
        slack = F(1, 1 << 500)
        assert enc.width <= F(1, 1 << 256)
        assert enc.lo - slack <= value <= enc.hi + slack


class TestValueTable:
    def test_covers_all_slots(self, fix_d):
        table = value_table(fix_d, 64)
        assert len(table) == len(fix_d.var_indices) == fix_d.d * fix_d.S
        for grid in table:
            assert isinstance(grid, Grid) and grid.den == 1 << 66
            assert grid.enclosure().width <= F(1, 1 << 64)

    def test_cached_identity(self, fix_a):
        assert value_table(fix_a, 64) is value_table(fix_a, 64)

    @pytest.mark.parametrize("bits", [8, 64, 256, 2048])
    def test_stored_grid_integers_are_the_table_ends(self, all_fixtures, bits):
        # the memo entry is the tuple value_table returns, one Grid over
        # 2^(bits + 2) per slot in var_indices order, with the ends of
        # f_derivative_enclosure for that slot
        for spec in all_fixtures.values():
            table = value_table(spec, bits)
            assert spec.value_tables[bits] is table and len(table) == len(spec.var_indices)
            for jks, grid in zip(spec.var_indices, table):
                assert grid.den == 1 << (bits + 2)
                assert grid.enclosure() == f_derivative_enclosure(spec, *jks, bits)


class TestLambda:
    def test_single_value(self, fix_a):
        enc = lambda_enclosure(fix_a, [0, 1], 64)
        oracle = oracle_f_sigma(fix_a, 1, 0, 0)
        assert enc.lo - TINY <= oracle <= enc.hi + TINY

    def test_small_combination(self, fix_a):
        enc = lambda_enclosure(fix_a, [-5, 3], 64)
        oracle = 3 * oracle_f_sigma(fix_a, 1, 0, 0) - 5
        assert enc.lo - TINY <= oracle <= enc.hi + TINY
        assert enc.hi < 0  # about -0.0751

    def test_zero_vector(self, fix_c):
        enc = lambda_enclosure(fix_c, [0, 0, 0], 64)
        assert (enc.lo, enc.hi) == (0, 0)

    def test_symmetry(self, all_fixtures):
        for spec in all_fixtures.values():
            A = [3] + [1] * (spec.n_vars - 1)
            plus = lambda_enclosure(spec, A, 64)
            minus = lambda_enclosure(spec, [-a for a in A], 64)
            total = plus + minus
            assert total.lo <= 0 <= total.hi
            assert total.lo == -total.hi

    def test_width_budget(self, fix_c):
        A = [7, -4, 9]
        enc = lambda_enclosure(fix_c, A, 128)
        assert enc.width <= (1 + sum(abs(a) for a in A)) * F(1, 1 << 128)

    def test_partial_sums_converge_into_enclosure(self, fix_b):
        # sum_{n<=N} u_n(omega)/prod P(q^k) + A0 approaches Lambda(A)
        A = [2, 5]
        enc = lambda_enclosure(fix_b, A, 96)
        dists = []
        for N in (5, 10, 40):
            partial = F(A[0])
            prod = F(1)
            for n in range(N + 1):
                if n >= 1:
                    prod *= oracle_p_eval(fix_b, fix_b.q ** n)
                u = oracle_u_coeffs(fix_b, n)
                partial += sum(F(a) * c for a, c in zip(A[1:], u[1:])) / prod
            dists.append(max(enc.lo - partial, partial - enc.hi, F(0)))
        assert dists[-1] == 0  # inside at the largest N
        assert dists[0] >= dists[1] >= dists[2]


def plain_lambda(spec, A, bits) -> tuple[F, F]:
    """A_0 + sum A_i table_i in plain Fraction interval arithmetic."""
    lo = hi = F(A[0])
    for c, e in zip(A[1:], value_table(spec, bits)):
        ends = (F(e.lo, e.den) * c, F(e.hi, e.den) * c)
        lo, hi = lo + min(ends), hi + max(ends)
    return lo, hi


BIG = 10 ** 40
integer_entries = st.one_of(
    st.just(0), st.integers(-50, 50), st.integers(-BIG, BIG), st.sampled_from([BIG, -BIG])
)
rational_entries = st.one_of(
    integer_entries,
    st.fractions(min_value=-BIG, max_value=BIG, max_denominator=10 ** 12),
    st.fractions(min_value=-3, max_value=3, max_denominator=50),
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_lambda_matches_plain_interval_sum(all_fixtures, data):
    spec = all_fixtures[data.draw(st.sampled_from("ABCD"))]
    bits = data.draw(st.sampled_from([1, 8, 64, 130, 512]))
    entries = data.draw(st.sampled_from([integer_entries, rational_entries]))
    A = data.draw(st.lists(entries, min_size=spec.n_vars, max_size=spec.n_vars))
    enc = lambda_enclosure(spec, A, bits)
    assert (enc.lo, enc.hi) == plain_lambda(spec, A, bits)


class TestEvaluateForm:
    def test_spot_value(self, fix_a):
        omega0 = omega_from_vector(fix_a, [1], 128)
        val = evaluate_form(vl_form(fix_a, 1, 2), [1], omega0).enclosure()
        oracle = F(23, 2) - 7 * oracle_f_sigma(fix_a, 1, 0, 0)
        assert val.lo - TINY <= oracle <= val.hi + TINY
        assert F("0.008572") <= val.midpoint <= F("0.008573")

    def test_zero_omega(self, fix_a):
        omega0 = omega_from_vector(fix_a, [0], 32)
        val = evaluate_form(vl_form(fix_a, 1, 2), [0], omega0).enclosure()
        assert (val.lo, val.hi) == (0, 0)

    def test_x0_free_form_is_exact(self, fix_a):
        form = LinearForm((0, 5), 1)
        # omega_0 in [-10, 10], over the denominator 3 of the rest coefficient
        val = evaluate_form(form, (F(2, 3),), Grid(-30, 30, 3)).enclosure()
        assert (val.lo, val.hi) == (F(10, 3), F(10, 3))

    def test_omega0_over_a_denominator_rest_does_not_divide(self):
        # x_1 = 1/3 with omega_0 = 0 over 1: the value is 1, but flooring 1 // 3
        # would scale the exact part to 0 and report [0, 0]
        with pytest.raises(ValueError, match="not a multiple"):
            evaluate_form(LinearForm((0, 3)), [F(1, 3)], Grid(0, 0, 1))
        val = evaluate_form(LinearForm((0, 3)), [F(1, 3)], Grid(0, 0, 3)).enclosure()
        assert (val.lo, val.hi) == (1, 1)

    def test_length_mismatch(self, fix_a):
        omega0 = omega_from_vector(fix_a, [1], 32)
        with pytest.raises(ValueError):
            evaluate_form(vl_form(fix_a, 1, 2), [1, 2], omega0)
        with pytest.raises(ValueError):
            omega_from_vector(fix_a, [1, 2], 32)

    @settings(max_examples=200, deadline=None)
    @given(
        fx=st.sampled_from("ABCD"),
        l=st.integers(0, 3),
        dn=st.integers(0, 6),
        kind=st.sampled_from(("vl", "w", "-w")),
        bits=st.sampled_from((8, 64, 256, 1024)),
        data=st.data(),
    )
    def test_matches_the_enclosure_formula(self, all_fixtures, fx, l, dn, kind, bits, data):
        spec = all_fixtures[fx]
        n = spec.S * l + dn
        if kind == "vl":
            form = vl_form(spec, l, n)  # over a denominator > 1
        else:
            sign = 1 if kind == "w" else -1
            form = LinearForm(tuple(sign * c for c in w_form(spec, l, n).nums))
        entry = st.one_of(
            st.integers(-(10 ** 30), 10 ** 30),
            st.fractions(-(10 ** 6), 10 ** 6, max_denominator=100),
        )
        rest = data.draw(st.lists(entry, min_size=spec.n_vars - 1, max_size=spec.n_vars - 1))

        omega0 = omega_from_vector(spec, rest, bits)
        lo, hi, den = evaluate_form(form, rest, omega0)
        # the enclosure route it replaces: omega_0 = -t, t from lambda_grid
        t_lo, t_hi, t_den = lambda_grid(spec, (0, *rest), bits)
        old = Enclosure(F(-t_hi, t_den), F(-t_lo, t_den)) * form.coeffs[0] + evaluate_exact(
            form, (0, *rest)
        )
        assert Enclosure(F(lo, den), F(hi, den)) == old
        assert den == omega0[2] * form.den
        if form.nums[0] == 0:
            assert lo == hi


class TestFunctionalEquation:
    def test_unit_omegas_fix_a(self, fix_a):
        for omega0, rest in ((F(1), [F(0)]), (F(0), [F(1)])):
            res = functional_equation_residual(fix_a, rest, omega0, 50)
            assert len(res) == 51
            assert all(r == 0 for r in res)

    def test_zero_omega(self, fix_c):
        res = functional_equation_residual(fix_c, [F(0), F(0)], F(0), 30)
        assert all(r == 0 for r in res)

    def test_random_omegas_all_fixtures(self, all_fixtures):
        rng = random.Random(17)
        for spec in all_fixtures.values():
            for _ in range(3):
                omega0 = F(rng.randint(-100, 100), rng.randint(1, 100))
                rest = [
                    F(rng.randint(-100, 100), rng.randint(1, 100))
                    for _ in range(spec.n_vars - 1)
                ]
                res = functional_equation_residual(spec, rest, omega0, 60)
                assert all(r == 0 for r in res)


def reference_residuals(spec, rest, omega0, N):
    """The functional-equation residuals in Fractions: v_n(omega) from the
    memo's form.coeffs, P(q^n) as sum p_nu q^(nu n) and u_n(omega) from the
    defining sum with Fraction powers."""
    vec = [F(omega0)] + [F(c) for c in rest]
    v = [sum(c * x for c, x in zip(v_form(spec, n).coeffs, vec)) for n in range(N + 1)]
    out = []
    for n in range(N + 1):
        u = sum(
            x * oracle_falling(n, sigma) * (spec.points[j - 1][0] * spec.q ** k) ** (n - sigma)
            for x, (j, k, sigma) in zip(vec[1:], spec.var_indices)
        )
        p = sum(c * spec.q ** (nu * n) for nu, c in enumerate(spec.P.coefficients))
        out.append(v[n] - (vec[0] if n == 0 else p * v[n - 1]) - u)
    return out


def planted_memo_residuals():
    """(residuals, reference) to degree 30 on a fresh FIX-D spec whose v-memo
    is planted with the off-by-one sequence P(q^(n+1)) v_(n-1) + u_n. On
    FIX-D (q = 3/2, p_1 = 1/3, one point with s = 2) the planted
    denominators and D^n q2^(d n (n+1)/2) do not divide each other."""
    spec = validate_spec(3, 2, [0, F(1, 3), 1], [(F(5, 7), 2)])
    planted = [v_form(spec, 0)]
    for n in range(1, 31):
        planted.append(planted[-1].scale(spec.P(spec.q ** (n + 1))) + u_form(spec, n))
    spec.v_forms.update(enumerate(planted))
    rest, omega0 = [F(-2, 9), F(5, 11), F(1, 13), F(-4, 3)], F(3, 7)
    return (
        functional_equation_residual(spec, rest, omega0, 30),
        reference_residuals(spec, rest, omega0, 30),
    )


PLANTED_MEMO_UNDER_O = """
import sys
sys.path.insert(0, {tests!r})
from test_series import planted_memo_residuals
got, want = planted_memo_residuals()
if got != want or 0 in got[1:]:
    raise SystemExit("residuals of the planted memo are not the exact nonzero reference")
print("ok")
"""


class TestResidualIntegerPath:
    def test_planted_memo_gives_the_exact_nonzero_residuals(self):
        got, want = planted_memo_residuals()
        assert got == want
        assert got[0] == 0 and all(r != 0 for r in got[1:])

    def test_planted_memo_survives_python_O(self):
        code = PLANTED_MEMO_UNDER_O.format(tests=str(Path(__file__).resolve().parent))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    @given(
        q=st.fractions(-12, 12, max_denominator=7).filter(lambda q: abs(q) > 1 and q.denominator > 1),
        lower=st.lists(
            st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=12)),
            min_size=1, max_size=3,
        ),
        lead=st.fractions(-9, 9, max_denominator=12).filter(bool),
        points=st.lists(
            st.tuples(st.fractions(-9, 9, max_denominator=9).filter(bool), st.integers(1, 3)),
            min_size=1, max_size=2,
        ),
        N=st.integers(0, 40),
        # n_vars = 1 + d S <= 19; the first n_vars entries are omega
        omega=st.lists(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 6), min_size=19, max_size=19),
    )
    @example(
        q=F(-5, 3), lower=[F(0), F(1, 4)], lead=F(-7, 2), points=[(F(2, 3), 3), (F(-1, 2), 1)],
        N=40, omega=[F(k - 9, 2 * k + 1) for k in range(19)],
    )
    @settings(max_examples=60, deadline=None)
    def test_residuals_vanish_and_match_the_reference(self, q, lower, lead, points, N, omega):
        # p_0 = 0 or not, multiplicities 1..3, q2 > 1
        try:
            spec = validate_spec(q.numerator, q.denominator, lower + [lead], points)
        except QFormsError:
            assume(False)
        omega0, *rest = omega[:spec.n_vars]
        got = functional_equation_residual(spec, rest, omega0, N)
        assert got == reference_residuals(spec, rest, omega0, N)
        assert all(r == 0 for r in got)
