"""End-to-end CLI: exit codes, report schema, determinism."""

import csv
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import oracle_f_sigma, subprocess_env
from qforms import Grid, validate_spec
from qforms.cli import EXIT_FAIL, EXIT_PASS, EXIT_UNDECIDED, EXIT_USAGE, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else {}


def write_spec(tmp_path, name="spec.json", **overrides) -> str:
    data = {
        "q": {"num": "2", "den": "1"},
        "P": ["0", "1"],
        "points": [{"alpha": "1", "s": 1}],
        "precision_bits": 128,
        "caps": {"precision_cap": 16384, "retry_cap": 8},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_pass(capsys, tmp_path):
    code, report = run_cli(capsys, "validate", write_spec(tmp_path))
    assert code == EXIT_PASS
    assert report["schema"] == "qforms/1"
    assert report["verdict"] == "pass"
    assert report["payload"]["valid"] is True


def test_validate_bad_spec_exits_3(capsys, tmp_path):
    bad = write_spec(tmp_path, q={"num": "2", "den": "3"})
    code, report = run_cli(capsys, "validate", bad)
    assert code == EXIT_USAGE
    assert report["verdict"] == "spec-error"
    assert report["error"]["type"] == "QNotAdmissible"


def test_unparseable_file_exits_3(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, report = run_cli(capsys, "validate", str(path))
    assert code == EXIT_USAGE


def test_usage_error_exits_3(capsys):
    assert main(["no-such-command", "x.json"]) == EXIT_USAGE


def test_forms_spot_value(capsys, tmp_path):
    code, report = run_cli(
        capsys, "forms", "--l", "1", "--n", "2", write_spec(tmp_path)
    )
    assert code == EXIT_PASS
    w = report["payload"]["w"]
    assert w["x0"] == "14"
    assert w["terms"] == [{"j": 1, "k": 0, "sigma": 0, "c": "23"}]
    assert report["payload"]["heights"]["w"] == "23"


def test_params_reports_applicability(capsys, tmp_path):
    spec = write_spec(tmp_path, q={"num": "3", "den": "2"})
    code, report = run_cli(capsys, "params", spec)
    assert code == EXIT_PASS
    assert report["payload"]["params"]["applicable"] is False
    assert report["payload"]["params"]["mu"] == "inapplicable"


def test_verify_passes(capsys, tmp_path):
    code, report = run_cli(
        capsys,
        "verify",
        "--n-max", "10", "--series-n", "10",
        write_spec(tmp_path),
    )
    assert code == EXIT_PASS
    assert report["payload"]["all_passed"] is True


def test_certify(capsys, tmp_path):
    from fractions import Fraction

    code, report = run_cli(capsys, "certify", "--A", "0,1", write_spec(tmp_path))
    assert code == EXIT_PASS
    assert Fraction(report["payload"]["bound"]) > 0


def test_certify_not_applicable_exits_1(capsys, tmp_path):
    spec = write_spec(tmp_path, q={"num": "3", "den": "2"})
    code, report = run_cli(capsys, "certify", "--A", "0,1", spec)
    assert code == EXIT_FAIL
    assert report["payload"]["error"]["type"] == "NotApplicable"


def test_certify_with_every_attempt_decided_exits_1(capsys, tmp_path):
    # l = 1, 2 from the pinned 1: all four forms decide |w(omega)| > 1/2
    spec = write_spec(tmp_path, caps={"precision_cap": 16384, "retry_cap": 1})
    code, report = run_cli(capsys, "certify", "--A", "0,1000000", "--l-override", "1", spec)
    assert code == EXIT_FAIL
    assert report["payload"]["error"]["type"] == "RetryCapExceeded"


def test_certify_undecided_at_the_cap_exits_2(capsys, tmp_path, monkeypatch):
    # a planted Grid.vs_half that never decides: each attempt ends at the cap
    monkeypatch.setattr(Grid, "vs_half", lambda self: 0)
    spec = write_spec(tmp_path, precision_bits=16, caps={"precision_cap": 64, "retry_cap": 1})
    code, report = run_cli(capsys, "certify", "--A=-23,14", spec)
    assert code == EXIT_UNDECIDED
    assert report["verdict"] == "undecided"
    assert report["payload"]["error"]["type"] == "PrecisionCapExceeded"


def test_certify_past_its_height_reach_exits_2(capsys, tmp_path):
    # FIX-A, A_1 = 10^2000 and A_0 the nearest integer to -A_1 f(1) (the
    # oracle's partial sum is off by less than 2^-9000): all 18 attempts,
    # l = 78..86, are still undecided at the 16,384-bit cap
    A1 = 10 ** 2000
    A0 = round(-A1 * oracle_f_sigma(validate_spec(2, 1, [0, 1], [(1, 1)]), 1, 0, 0, terms=140))
    code, report = run_cli(capsys, "certify", f"--A={A0},{A1}", write_spec(tmp_path))
    assert code == EXIT_UNDECIDED
    assert report["payload"]["error"]["type"] == "PrecisionCapExceeded"
    assert "undecided at 16384 bits" in report["payload"]["error"]["message"]


def test_scan_not_applicable_exits_1(capsys, tmp_path):
    spec = write_spec(tmp_path, q={"num": "3", "den": "2"})
    code, report = run_cli(capsys, "scan", "--hmax", "10", spec)
    assert code == EXIT_FAIL
    assert report["payload"]["error"]["type"] == "NotApplicable"


def test_nonvanish_exact(capsys, tmp_path):
    code, report = run_cli(
        capsys,
        "nonvanish", "--l0", "0", "--n0", "3", "--omega", "1,0",
        write_spec(tmp_path),
    )
    assert code == EXIT_PASS
    assert report["payload"]["found_index"] == 3


def test_nonvanish_requires_exactly_one_omega(capsys, tmp_path):
    spec = write_spec(tmp_path)
    code, _ = run_cli(capsys, "nonvanish", "--l0", "0", "--n0", "3", spec)
    assert code == EXIT_USAGE


def test_nonvanish_undecided_exits_2(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QFORMS_PRECISION_CAP", "8")
    spec = write_spec(tmp_path, precision_bits=8)
    code, report = run_cli(
        capsys,
        "nonvanish", "--l0", "3", "--n0", "10", "--omega-from-f", "1",
        spec,
    )
    assert code == EXIT_UNDECIDED
    assert report["verdict"] == "undecided"


def test_scan_csv_and_out(capsys, tmp_path):
    out = tmp_path / "report.json"
    sidecar = tmp_path / "rows.csv"
    code = main(
        ["--out", str(out), "--csv", str(sidecar),
         "scan", "--hmax", "12", write_spec(tmp_path)]
    )
    assert code == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    lines = sidecar.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["H", "best_A"]
    assert len(lines) == 12  # header + rows for H = 2..12


def test_scan_thread_invariance(capsys, tmp_path):
    spec = write_spec(tmp_path)
    payloads = []
    for threads in ("1", "4"):
        code, report = run_cli(
            capsys, "--threads", threads, "scan", "--hmax", "40", spec
        )
        assert code == EXIT_PASS
        payloads.append(json.dumps(report["payload"], sort_keys=True))
    assert payloads[0] == payloads[1]


def test_identical_invocations_identical_payloads(capsys, tmp_path):
    spec = write_spec(tmp_path)
    payloads = []
    for _ in range(2):
        code, report = run_cli(
            capsys, "scan", "--hmax", "20", "--seed", "3", spec
        )
        assert code == EXIT_PASS
        payloads.append(json.dumps(report["payload"], sort_keys=True))
    assert payloads[0] == payloads[1]


def test_bounds_report_runs(capsys, tmp_path):
    code, report = run_cli(
        capsys,
        "bounds", "--l-list", "1,2", "--n-max", "12", "--n-step", "4",
        write_spec(tmp_path, precision_bits=1024),
    )
    assert code == EXIT_PASS
    assert "fitted_kappa" in report["payload"]


def test_bounds_csv(capsys, tmp_path):
    sidecar = tmp_path / "rows.csv"
    code = main(
        ["--csv", str(sidecar), "bounds", "--l-list", "1,2", "--n-list", "2,4,6",
         write_spec(tmp_path, precision_bits=512)]
    )
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)["payload"]
    with open(sidecar, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == [
        "kind", "omega", "l", "n", "lo", "hi", "main_term", "residual_lo", "residual_hi"
    ]
    # FIX-A, S = 1: all six (l, n) pairs, and two omega variants (one unit, one random)
    assert [r["kind"] for r in rows] == ["height"] * 6 + ["smallness"] * 12
    assert len(report["height_rows"]) == 6 and len(report["smallness_rows"]) == 12
    heights = [(r["l"], r["n"]) for r in rows if r["kind"] == "height"]
    assert heights == [(l, n) for l in "12" for n in "246"]


def test_bounds_near_q_one_exits_2_without_a_traceback(tmp_path):
    # q = (2^70 + 1) / 2^70: the 48-bit log|q| straddles 0, so a unit omega's
    # log max|rest| = 0 must not be divided by it; the series then refuses the spec
    spec = write_spec(tmp_path, q={"num": str(2 ** 70 + 1), "den": str(2 ** 70)})
    proc = run_cli_process(spec, "bounds", "--l-list", "1", "--n-list", "2,3")
    assert proc.returncode == EXIT_UNDECIDED, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["payload"]["error"]["type"] == "PrecisionCapExceeded"


def test_validate_tiny_leading_coefficient_in_bounded_time(tmp_path):
    # q = 100/99 and p_1 = 10^-60: P(q^n) != 0 is decided without walking
    # n up to the dominance index (about 14,000 here)
    spec = write_spec(tmp_path, q={"num": "100", "den": "99"}, P=["100", f"1/{10**60}"])
    proc = subprocess.run(
        [sys.executable, "-m", "qforms.cli", "validate", spec],
        capture_output=True, text=True, env=subprocess_env(), timeout=10,
    )
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert json.loads(proc.stdout)["payload"]["valid"] is True


def test_fixture_files_validate(capsys):
    for name in ("fixtureA", "fixtureB", "fixtureC", "fixtureD"):
        code, report = run_cli(capsys, "validate", str(FIXTURES / f"{name}.json"))
        assert code == EXIT_PASS, name


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"q": {"num": 2.9, "den": 1}}, id="q.num=2.9"),
        pytest.param({"q": {"num": "2", "den": 1.0}}, id="q.den=1.0"),
        pytest.param({"q": {"num": math.inf, "den": 1}}, id="q.num=Infinity"),
        pytest.param({"q": {"num": "2.5", "den": 1}}, id="q.num='2.5'"),
        pytest.param({"points": [{"alpha": "1", "s": 1.9}]}, id="s=1.9"),
        pytest.param({"points": [{"alpha": "1", "s": True}]}, id="s=true"),
        pytest.param({"points": [{"alpha": "1", "s": 0}]}, id="s=0"),
        pytest.param({"points": [{"alpha": "1/0", "s": 1}]}, id="alpha=1/0"),
        pytest.param({"P": [math.inf, "1"]}, id="P=Infinity"),
        pytest.param({"P": [math.nan, "1"]}, id="P=NaN"),
        pytest.param({"P": "01"}, id="P=string"),
    ],
)
def test_spec_values_are_refused_not_truncated(capsys, tmp_path, overrides):
    code, report = run_cli(capsys, "validate", write_spec(tmp_path, **overrides))
    assert code == EXIT_USAGE
    assert report["verdict"] == "spec-error"
    assert report["error"]["type"] == "SpecFileError"


def test_integer_strings_are_accepted(capsys, tmp_path):
    spec = write_spec(
        tmp_path, q={"num": "-3", "den": " 2 "}, points=[{"alpha": "1", "s": "2"}]
    )
    code, report = run_cli(capsys, "validate", spec)
    assert code == EXIT_PASS
    assert report["payload"]["spec"]["q"] == {"num": "-3", "den": "2"}
    assert report["payload"]["spec"]["points"] == [{"alpha": "1", "s": 2}]


# Spec-file JSON: mostly well-typed small entries, mixed with junk values of
# every type, missing and extra keys; entries stay small, so each example
# validates quickly.
_int = st.integers(-100, 100)
_junk = st.one_of(
    st.floats(-100, 100).map(lambda x: round(x, 2)),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(_int, max_size=2),
    st.integers(-2, 0),
)


def _mostly(good):
    """A value from good, or about one time in twenty a junk value (7, not
    a bound: hypothesis draws the bounds of a range more often)."""
    return st.integers(0, 19).flatmap(lambda i: _junk if i == 7 else good)


def _integer(low=-100, high=100):
    return _mostly(st.one_of(st.integers(low, high), st.integers(low, high).map(str)))


_rational = _mostly(st.one_of(
    _int, st.fractions(-100, 100, max_denominator=100).map(str)
))
_point = _mostly(st.fixed_dictionaries(
    {"alpha": _rational, "s": _mostly(st.integers(1, 3))}, optional={"x": _junk}
))
_spec_json = st.builds(
    lambda spec, dropped: {k: v for k, v in spec.items() if k not in dropped},
    st.fixed_dictionaries(
        {
            "q": _mostly(st.fixed_dictionaries({"num": _integer(), "den": _integer(1, 9)})),
            "P": _mostly(st.lists(_rational, min_size=1, max_size=4)),
            "points": _mostly(st.lists(_point, min_size=1, max_size=3)),
        },
        optional={
            "precision_bits": _integer(),
            "caps": _mostly(st.fixed_dictionaries(
                {}, optional={"precision_cap": _integer(), "retry_cap": _integer()}
            )),
            "extra": _junk,
        },
    ),
    st.sampled_from([()] * 5 + [("q",), ("P",), ("points",)]),
)


@given(st.one_of(_spec_json, _junk))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_spec_files_exit_0_or_3(capsys, tmp_path, data):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(data))
    code = main(["validate", str(path)])
    capsys.readouterr()
    assert code in (EXIT_PASS, EXIT_USAGE)


def run_cli_process(spec_path, *argv, env_extra=None):
    """Run the CLI in a fresh interpreter; a hang fails the test by timeout."""
    return subprocess.run(
        [sys.executable, "-m", "qforms.cli", *argv, spec_path],
        capture_output=True, text=True, env=subprocess_env(**(env_extra or {})), timeout=30,
    )


@pytest.mark.parametrize("fx", ["A", "C"])
def test_random_scan_to_a_400_digit_height_in_bounded_time(fx):
    # the height ladder steps in integers, and a shell sample costs dim draws
    H = 10 ** 400
    proc = run_cli_process(
        str(FIXTURES / f"fixture{fx}.json"), "scan", "--hmax", str(H), "--random", "2"
    )
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = json.loads(proc.stdout)["payload"]["rows"]
    assert rows[-1]["H"] == H
    for row in rows:
        assert max(abs(int(a)) for a in row["best_A"][1:]) == row["H"]


@pytest.mark.parametrize(
    "argv",
    [["nonvanish", "--l0", "3", "--n0", "10", "--omega-from-f", "1"], ["certify", "--A=-23,14"]],
    ids=["nonvanish", "certify"],
)
def test_omega_paths_give_the_same_payload_under_python_O(argv):
    # evaluate_form decides on integer comparisons, not on assert statements
    payloads = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "qforms.cli", *argv, str(FIXTURES / "fixtureA.json")],
            capture_output=True, text=True, env=subprocess_env(), timeout=30,
        )
        assert proc.returncode == EXIT_PASS, proc.stderr
        payloads.append(json.loads(proc.stdout)["payload"])
    assert payloads[0] == payloads[1]


def _limit_address_space():
    """preexec_fn: 1.5 GB of address space for the child only, so a scan that
    built its work up front would fail at once instead of filling the host."""
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


@pytest.mark.parametrize(
    "argv",
    [["--hmax", "3", "--random", "100000000"], ["--hmax", "1000000000"]],
    ids=["random=10^8", "hmax=10^9"],
)
def test_oversized_scans_exit_3_in_bounded_time(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "qforms.cli", "scan", *argv, str(FIXTURES / "fixtureA.json")],
        capture_output=True, text=True, env=subprocess_env(), timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == "DomainViolation"


def test_oversized_scan_on_fix_d_is_still_not_applicable(capsys):
    code, report = run_cli(capsys, "scan", "--hmax", "1000000000", str(FIXTURES / "fixtureD.json"))
    assert code == EXIT_FAIL
    assert report["payload"]["error"]["type"] == "NotApplicable"


@pytest.mark.parametrize(
    "overrides, env_cap",
    [
        pytest.param({"precision_bits": 0}, None, id="precision_bits=0"),
        pytest.param({"precision_bits": -5}, None, id="precision_bits=-5"),
        pytest.param({"precision_bits": "abc"}, None, id="precision_bits=abc"),
        pytest.param({"precision_bits": True}, None, id="precision_bits=true"),
        pytest.param({"caps": {"precision_cap": 0}}, None, id="precision_cap=0"),
        pytest.param({"caps": {"precision_cap": "abc"}}, None, id="precision_cap=abc"),
        pytest.param({"caps": {"retry_cap": 0}}, None, id="retry_cap=0"),
        pytest.param({"caps": {"retry_cap": False}}, None, id="retry_cap=false"),
        pytest.param({"caps": 5}, None, id="caps=5"),
        pytest.param({}, "abc", id="env_cap=abc"),
        pytest.param({}, "0", id="env_cap=0"),
        pytest.param({}, "-5", id="env_cap=-5"),
        # a precision ladder that would start above its cap
        pytest.param({"precision_bits": 10000000}, None, id="precision_bits>cap"),
        pytest.param({"precision_bits": 4096}, "1024", id="precision_bits>env_cap"),
    ],
)
def test_bad_precision_values_exit_3(tmp_path, overrides, env_cap):
    spec = write_spec(tmp_path, **overrides)
    env = {} if env_cap is None else {"QFORMS_PRECISION_CAP": env_cap}
    proc = run_cli_process(spec, "certify", "--A=0,1", env_extra=env)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "spec-error"


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--A=1,2,3"],
        ["certify", "--A=1,x"],
        ["nonvanish", "--l0", "0", "--n0", "3", "--omega=1,2,3"],
        ["nonvanish", "--l0", "0", "--n0", "3", "--omega=1,y"],
        ["nonvanish", "--l0", "0", "--n0", "3", "--omega-from-f=1,2"],
        ["nonvanish", "--l0", "0", "--n0", "3", "--omega-from-f=1/0"],
        ["bounds", "--l-list=1,x"],
        ["bounds", "--l-list="],
        ["bounds", "--n-list=2,z"],
        ["scan", "--hmax", "1"],
        ["scan", "--hmax", "3", "--random", "0"],
        ["scan", "--hmax", "3", "--random", "-1"],
        ["bounds", "--n-step", "0"],
        ["verify", "--series-n", "-1"],
    ],
)
def test_malformed_vectors_exit_3(capsys, tmp_path, argv):
    code, report = run_cli(capsys, *argv, write_spec(tmp_path))
    assert code == EXIT_USAGE
    assert report["verdict"] == "spec-error"
    assert report["error"]["type"] == "SpecFileError"


def test_negative_leading_entry_needs_equals_form(capsys, tmp_path):
    spec = write_spec(tmp_path)
    assert main(["certify", "--A", "-23,14", spec]) == EXIT_USAGE
    code, report = run_cli(capsys, "certify", "--A=-23,14", spec)
    assert code == EXIT_PASS
    assert report["payload"]["A"] == ["-23", "14"]


def _integer_flag_grid():
    """Every integer flag of the 8 subcommands over -2..2: one flag, or one
    --l/--n style pair, at a time, with the other flags kept small. Each
    argv comes with whether a value lies outside its command's domain on
    FIX-A (S = d = 1), which must exit 3."""
    values = range(-2, 3)
    for a in values:
        v = str(a)
        yield ["validate", "--threads", v], False
        yield ["params", "--threads", v], False
        yield ["verify", "--n-max", v, "--series-n", "2"], a < 1
        yield ["verify", "--n-max", "2", "--l-max", v, "--series-n", "2"], a < 1
        yield ["verify", "--n-max", "2", "--series-n", v], a < 0
        yield ["certify", "--A=1,1", "--l-override", v], a < 0
        yield ["scan", "--hmax", v], a < 2
        yield ["scan", "--hmax", "3", "--random", v], a < 1
        for b in values:
            w = str(b)
            yield ["forms", "--l", v, "--n", w], a < 0 or b < a
            yield ["nonvanish", "--l0", v, "--n0", w, "--omega=1,1"], a < 0 or b < a
            yield ["bounds", "--l-list=1", "--n-max", v, "--n-step", w], a < 1 or b < 1


def test_integer_flag_grid_exits_with_documented_codes(capsys):
    spec = str(FIXTURES / "fixtureA.json")
    bad = []
    for argv, outside in _integer_flag_grid():
        try:
            code = main([*argv, spec])
        except Exception as exc:
            bad.append((argv, repr(exc)))
        else:
            if outside != (code == EXIT_USAGE) or code not in (
                EXIT_PASS, EXIT_FAIL, EXIT_UNDECIDED, EXIT_USAGE
            ):
                bad.append((argv, code))
        capsys.readouterr()
    assert bad == []
