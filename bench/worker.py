"""One workload process: set up, signal READY, run ops back to back, report.

Started in a fresh interpreter by ``run.py``; the time from its launch to
the READY line is one ``setup_s`` sample. Set-up imports qforms, loads and
validates the spec files, computes ``measure_params`` and generates the
first blocks of the seeded op plan.

Usage (from the repository root):
    python3 bench/worker.py --workload W --seed N --seconds S --out FILE
        [--min-ops K] [--max-ops K] [--setup-only] [--trace-dir DIR]

The timed phase runs whole blocks until ``--seconds`` have passed and at
least ``--min-ops`` ops completed, or exactly ``--max-ops`` ops. Each op's
latency and a compact record of its output go to ``--out`` (JSON lines);
the last line holds the totals, the peak RSS and the payload digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the payload digest covers this many leading ops, which every run completes
DIGEST_OPS = 100
CLI_OP_TIMEOUT_S = 60


def _import_package():
    """Import qforms from this checkout's src/ only; returns (module, seconds)."""
    if not (SRC / "qforms" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'qforms'} not found; run from a qforms checkout")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import qforms
    import qforms.cli
    import_s = perf_counter() - t0
    if Path(qforms.__file__).resolve().parent != SRC / "qforms":
        sys.exit(f"error: imported qforms from {qforms.__file__}, not {SRC}")
    return qforms, import_s


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _oracle_record(op: dict, payload):
    """The part of an op's output the oracle checks."""
    if op["kind"] == "certify":
        return {"A": payload["A"], "bound": payload["bound"]}
    return payload


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_op(op: dict, trace_dir) -> dict:
    """One fresh ``python -m qforms.cli`` process, waited on before returning."""
    if trace_dir is None:
        cmd = [sys.executable, "-m", "qforms.cli"] + op["argv"]
    else:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(trace_dir)] + op["argv"]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_cli_env(), capture_output=True, text=True,
            timeout=CLI_OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"code": None, "report": None, "traceback": False, "timeout": True}
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = None
    if isinstance(report, dict):
        report.pop("timing", None)
    return {
        "code": proc.returncode,
        "report": report,
        "traceback": "Traceback (most recent call last)" in proc.stderr,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=DIGEST_OPS)
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-dir", default=None)
    args = ap.parse_args(argv)

    qf, import_s = _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    cli = args.workload == "cli"
    # cli ops trace inside their own processes (cli_traced.py)
    tracer = None
    if args.trace_dir is not None and not cli:
        import tracer as tracing
        tracer = tracing.install()

    specs, params = {}, {}
    for fx in workloads.FIXTURES:
        spec, _bits, _caps = qf.cli.load_spec_file(str(workloads.spec_path(fx)))
        specs[fx] = spec
        params[fx] = qf.measure_params(spec, 64)
    blocks = workloads.plan(args.workload, args.seed)
    pending = [op for _ in range(2) for op in next(blocks)]
    threads = os.cpu_count() or 1
    cli_trace_dir = args.trace_dir if cli else None

    print("READY", flush=True)
    if args.setup_only:
        return 0

    digest = hashlib.sha256()
    busy = 0.0
    done = 0
    started = perf_counter()
    with open(args.out, "w") as out:
        while True:
            if not pending:
                pending = list(next(blocks))
            op = pending.pop(0)
            if tracer is not None:
                tracer.op = done
            error = None
            t0 = perf_counter()
            if cli:
                result = run_cli_op(op, cli_trace_dir)
            else:
                try:
                    result = workloads.run_in_process(qf, op, specs, params, threads)
                except Exception as exc:  # an undocumented error fails the op
                    result, error = None, f"{type(exc).__name__}: {exc}"
            lat = perf_counter() - t0
            busy += lat
            if done < DIGEST_OPS:
                digest.update(_canonical(result if error is None else {"error": error}) + b"\n")
            record = result if (cli or error) else _oracle_record(op, result)
            out.write(json.dumps({"op": op, "lat": lat, "error": error, "out": record}) + "\n")
            done += 1
            if args.max_ops is not None:
                if done >= args.max_ops:
                    break
            elif not pending and done >= args.min_ops and perf_counter() - started >= args.seconds:
                break
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        out.write(json.dumps({
            "summary": True,
            "ops": done,
            "busy_s": busy,
            "peak_rss_kb": resource.getrusage(who).ru_maxrss,
            "digest": digest.hexdigest(),
            "digest_ops": min(done, DIGEST_OPS),
        }) + "\n")
    if tracer is not None:
        tracer.dump(Path(args.trace_dir) / f"spans-{os.getpid()}.jsonl", import_s)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
