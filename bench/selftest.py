"""Self-test of the benchmark: python3 bench/selftest.py (from the repository root).

1. Runs every workload at a tiny size, untraced and traced, and checks that
   the result line names every metric of BENCHMARK.json with its unit.
2. Checks that the oracle fails a fabricated certificate whose bound
   exceeds |Lambda(A)|, a wrong scan enclosure, and cli ops with the wrong
   exit code or a traceback, while passing the true ones.

Exits 0 when every check passes. Result records written by the tiny runs
are removed again.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    results = BENCH / "results"
    before = set(results.glob("*.json")) if results.is_dir() else set()
    try:
        for w in spec["workloads"]:
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed", "0",
                     "--seconds", "0.2", "--trace", str(trace), "--min-ops", "5"],
                    cwd=ROOT, capture_output=True, text=True, timeout=300,
                )
                label = f"{w['name']} --trace {trace}"
                if proc.returncode != 0:
                    expect(False, f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
                    continue
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                expect(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys")
                expect(res["attempted"] >= 1 and res["correct"] is True, f"{label}: attempted and correct")
                missing = [m["name"] for m in wanted[trace]
                           if res["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
                expect(not missing, f"{label}: every metric with its unit {missing[:3]}")
                expect(len(res["metrics"]) == len(wanted[trace]), f"{label}: no extra metrics")
    finally:
        if results.is_dir():
            for path in set(results.glob("*.json")) - before:
                path.unlink()


def oracle_checks() -> None:
    A = [-23, 14]
    value, err = oracle._lambda_abs("A", A, 512)
    cert = {"kind": "certify", "fx": "A", "A": A}
    good = {"A": [str(a) for a in A], "bound": str(value / 2)}
    expect(oracle.check(cert, None, good) is None, "oracle passes a true certificate")
    for bound in (value * (1 + Fraction(1, 1 << 100)), Fraction(1), Fraction(0)):
        bad = {"A": [str(a) for a in A], "bound": str(bound)}
        reason = oracle.check(cert, None, bad)
        expect(reason is not None and reason.startswith("wrong:"),
               f"oracle fails a certificate with bound {float(bound):.6g} vs |Lambda| {float(value):.6g}")
    expect(oracle.check(cert, "ValueError: boom", None) is not None, "oracle fails an op that raised")

    lo, hi = value - Fraction(1, 1 << 120), value + Fraction(1, 1 << 120)
    expect(oracle.enclosure_contains("A", A, lo, hi) is True, "oracle accepts a true enclosure")
    expect(oracle.enclosure_contains("A", A, hi, hi + 1) is False, "oracle rejects a wrong enclosure")

    fi = workloads.FixtureInfo("A")
    spec_arg = str(workloads.spec_path("A").relative_to(ROOT))
    op = {"kind": "cli", "fx": "A", "sub": "validate", "argv": ["validate", spec_arg],
          "expect": 0, "refusal": None}
    report = {"schema": "qforms/1", "command": "validate", "payload": {"valid": True}, "verdict": "pass"}
    expect(oracle.check(op, None, {"code": 0, "report": report, "traceback": False}) is None,
           "oracle passes a cli op with the documented exit code")
    expect(oracle.check(op, None, {"code": 1, "report": report, "traceback": False}) is not None,
           "oracle fails a cli op with the wrong exit code")
    expect(oracle.check(op, None, {"code": 0, "report": report, "traceback": True}) is not None,
           "oracle fails a cli op with a traceback")
    usage = dict(op, sub="certify", argv=["certify", "--A=1,2,3", spec_arg], expect=3)
    expect(oracle.check(usage, None, {"code": 1, "report": None, "traceback": True}) is not None,
           f"oracle fails a wrong-length vector (n_vars = {fi.n_vars}) that does not exit 3")


def main() -> int:
    oracle_checks()
    tiny_runs()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
