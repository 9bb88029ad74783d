"""Mutation records for the soundness-critical rounding directions, and their runner.

Each record is (file under src/qforms, old text, new text, test node ids): the
substitution plants one fault, and the named tests must fail on it. A tier-1
test (tests/test_soundness_checks.py) checks that every old text occurs
exactly once, so a refactor of these lines must carry its records along.

    python tests/mutants.py          # run every record
    python tests/mutants.py 0 5      # run records 0 and 5

For each record the runner copies src/ and tests/ to a temporary directory,
applies the substitution there, and runs the named tests in a child process
with a timeout. It prints one line per record and exits 1 if any mutant
survives. Grounding: DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11 (1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

KERNEL = [
    "tests/test_series.py::TestKernel",
    "tests/test_series.py::test_kernel_contains_the_reference_within_one_step",
]
FORM_AT_OMEGA = [
    "tests/test_series.py::TestEvaluateForm::test_matches_the_enclosure_formula",
    "tests/test_measure.py::TestIntegerPaths::test_w_at_omega_is_E_minus_c0_t",
]
CHOOSE_PARAMETERS = [
    "tests/test_measure.py::TestIntegerPaths::test_choose_parameters_matches_the_fraction_formula",
]
RESIDUAL = [
    "tests/test_series.py::TestResidualIntegerPath::test_planted_memo_gives_the_exact_nonzero_residuals",
    "tests/test_series.py::TestResidualIntegerPath::test_residuals_vanish_and_match_the_reference",
]
CORRUPTED_P = [
    "tests/test_verifier.py::TestCheckIdentities"
    "::test_mutation_control_fails_recurrence_on_a_corrupted_integer_p",
]
Q_POWER_ROOTS = ["tests/test_problem.py::TestValidate::test_planted_q_power_roots"]

MUTANTS = [
    # the kernel's step, a ratio a / b > 0: low end floored, high end ceiled
    ("series.py", "tl, th = tl * a // b, -(-th * a // b)",
     "tl, th = -(-tl * a // b), -(-th * a // b)", KERNEL),
    ("series.py", "tl, th = tl * a // b, -(-th * a // b)",
     "tl, th = tl * a // b, th * a // b", KERNEL),
    # the same for a ratio < 0, where the ends trade places
    ("series.py", "tl, th = th * a // b, -(-tl * a // b)",
     "tl, th = -(-th * a // b), -(-tl * a // b)", KERNEL),
    ("series.py", "tl, th = th * a // b, -(-tl * a // b)",
     "tl, th = th * a // b, tl * a // b", KERNEL),
    # the final ends: the low one floored, the high one ceiled
    ("series.py", "(lo - 2 * big) >> guard", "-(-(lo - 2 * big) >> guard)", KERNEL),
    ("series.py", "-(-(hi + 2 * big) >> guard)", "(hi + 2 * big) >> guard", KERNEL),
    # the tail and the stop test read the larger end of |term|, not the smaller
    ("series.py", "ends = ((lo - 2 * big) >> guard, -(-(hi + 2 * big) >> guard))",
     "ends = ((lo - 2 * small) >> guard, -(-(hi + 2 * small) >> guard))", KERNEL),
    ("series.py", "decided = big <= limit and", "decided = small <= limit and", KERNEL),
    # lambda_grid without the negative-coefficient swap
    ("series.py", "lo, hi = lo + c * e_hi, hi + c * e_lo",
     "lo, hi = lo + c * e_lo, hi + c * e_hi",
     ["tests/test_series.py::test_lambda_matches_plain_interval_sum"]),
    # evaluate_form without the c_0 < 0 swap
    ("series.py", "if c0 < 0:\n        lo, hi = hi, lo", "if c0 < 0:\n        pass",
     FORM_AT_OMEGA),
    # evaluate_form without the check that rest's common denominator divides omega0's
    ("series.py", "if off:", "if False:",
     ["tests/test_series.py::TestEvaluateForm::test_omega0_over_a_denominator_rest_does_not_divide"]),
    # bounds_report dividing log 1 = 0 by a log|q| that may straddle 0
    ("verifier.py", "Enclosure.zero() if max_rest == 1 else", "Enclosure.zero() if False else",
     ["tests/test_cli.py::test_bounds_near_q_one_exits_2_without_a_traceback"]),
    # Grid.__neg__ without swapping its ends
    ("series.py", "return Grid(-self.hi, -self.lo, self.den)",
     "return Grid(-self.lo, -self.hi, self.den)", FORM_AT_OMEGA),
    # < for <= in vs_half
    ("series.py", "if 2 * hi <= den and -2 * lo <= den:", "if 2 * hi < den and -2 * lo <= den:",
     ["tests/test_measure.py::TestIntegerPaths::test_half_decision_matches_the_enclosure_test"]),
    # the scan's key: the upper end of |A_0 + t| is max(-lo - s, hi + s)
    ("measure.py", "key = (max(-lo - s, hi + s), (a0,) + rest)",
     "key = (max(-lo - s, hi - s), (a0,) + rest)", ["tests/test_measure.py::TestExponentScan"]),
    # the best row's A_0 + t is [lo + s, hi + s] / den, shifted by +s, not -s
    ("measure.py", "best, lam = key, Grid(lo + s, hi + s, den)",
     "best, lam = key, Grid(lo - s, hi - s, den)", ["tests/test_measure.py::TestExponentScan"]),
    # the scan tries the floors only, not the integers next to -t on both sides
    ("measure.py", "for a0 in (-hi // den, -(hi // den), -lo // den, -(lo // den)):",
     "for a0 in (-hi // den, -lo // den):", ["tests/test_measure.py::TestExponentScan"]),
    # choose_parameters' L = [lo / qh, hi / ql] / 2^w with log|q1|'s ends swapped
    ("measure.py", "ql, qh, a = params.log_q1.lo, params.log_q1.hi, params.a_midpoint",
     "ql, qh, a = params.log_q1.hi, params.log_q1.lo, params.a_midpoint",
     ["tests/test_measure.py::TestIntegerPaths::test_choose_parameters_at_an_exact_threshold"]),
    # Enclosure division by a positive interval: a nonnegative low end over the
    # divisor's low end instead of its high one
    ("enclosure.py", "self.lo / (o.hi if self.lo >= 0 else o.lo),",
     "self.lo / (o.lo if self.lo >= 0 else o.hi),",
     ["tests/test_enclosure.py::test_division_by_a_signed_interval_picks_ends_by_sign"]),
    # n0 = ceil((M - 1).hi l / d) floored
    ("measure.py", "max(-(-slope.numerator * l // slope.denominator), spec.S * l)",
     "max(slope.numerator * l // slope.denominator, spec.S * l)", CHOOSE_PARAMETERS),
    # choose_parameters flooring the ceiling it takes the root of
    ("measure.py", "l = math.isqrt(-(-num // den) - 1) + 1",
     "l = math.isqrt(max(num // den - 1, 0)) + 1", CHOOSE_PARAMETERS),
    # the residual without the lcm widening of a memo entry over another denominator
    ("series.py", "if form.den != den:", "if False:", RESIDUAL),
    # the residual dropping e_prev, the previous degree's widening, from its denominator
    ("series.py", "Fraction(r, den * b * e * e_prev)", "Fraction(r, den * b * e)", RESIDUAL),
    # the residual stepping z_i^(n - sigma) one degree early
    ("series.py", "h * z if n > sigma else h", "h * z if n >= sigma else h", RESIDUAL),
    # the residual reading c(n) from the p_terms walk that v_form reads
    ("series.py", "c = sum(terms)", "c = sum(next(spec.p_terms(n)))", CORRUPTED_P),
    # validate_spec's root test stopping one n short
    ("problem.py", "if c % q1 ** n:", "if c % q1 ** (n + 1):", Q_POWER_ROOTS),
    # validate_spec's root test reading the leading coefficient, not the lowest
    ("problem.py", "c = next(t for t in next(walk) if t)",
     "c = next(t for t in reversed(next(walk)) if t)", Q_POWER_ROOTS),
    # the recurrence check multiplying by the walk's own P(q^n), not the rational one
    ("verifier.py", "v_form(spec, n - 1).scale(spec.P(spec.q ** n))",
     "v_form(spec, n - 1).scale(Fraction(sum(next(spec.p_terms(n))), "
     "spec.clearing_D * spec.q_den ** (spec.d * n)))", CORRUPTED_P),
]


def killed(record) -> tuple[bool, str]:
    """(whether the named tests fail on the mutant, a short reason)."""
    file, old, new, tests = record
    with tempfile.TemporaryDirectory() as tmp:
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, Path(tmp, sub),
                            ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp, "src", "qforms", file)
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{file}: {old!r} occurs {text.count(old)} times, not once")
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")))
        env.pop("QFORMS_PRECISION_CAP", None)
        where = subprocess.run(
            [sys.executable, "-c", "import qforms; print(qforms.__file__)"],
            cwd=tmp, env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if not where.startswith(tmp):
            raise SystemExit(f"the child imported qforms from {where}, not the mutated copy")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
        summary = (proc.stdout.strip().splitlines() or ["no output"])[-1]
        return proc.returncode != 0, summary


def main(argv: list[str]) -> int:
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    survivors = []
    for i in chosen:
        started = time.perf_counter()
        dead, summary = killed(MUTANTS[i])
        file, old, new, _ = MUTANTS[i]
        verdict = "killed" if dead else "SURVIVED"
        print(f"[{i}] {verdict} in {time.perf_counter() - started:.0f} s: {file}: "
              f"{old!r} -> {new!r} ({summary})", flush=True)
        if not dead:
            survivors.append(i)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed; survivors: {survivors}")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
