"""qforms benchmark runner.

Run one workload (from the repository root):

    python3 bench/run.py --workload {certify,scan,verify,cli} --seed N \
        --seconds S --trace {0,1}

Compare two sets of results (directories of the JSON records that runs
write to bench/results/):

    python3 bench/run.py --compare DIR_A DIR_B

A run launches fresh worker interpreters (worker.py) in a closed loop with
one caller: ops are issued back to back and each waits for the previous one.
With ``--trace 0`` it reports the end-to-end metrics named in BENCHMARK.json;
``setup_s`` is the median over several fresh interpreters. With ``--trace 1``
it runs the same op sequence untraced and then traced, each in a fresh
worker, and reports the per-layer metrics plus the tracing overhead.
Every op's output is checked by the mpmath oracle (oracle.py) after the
timed phase. After it, two cli usage-error probes (wrong-length vectors,
which must exit 3) run apart from the ops: their failures are printed, and
with ``--trace 1`` reported as ``cli.usage_error.documented_share``, but they
do not count as failed ops. The last line of stdout is the JSON result; a
record with the machine and seed is also written to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

SETUP_SAMPLES = 11
RUN_DEADLINE_S = 170


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> float:
    """Run worker.py to completion; returns its launch-to-READY seconds."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py")] + args,
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        setup_s = perf_counter() - started
        proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed (exit {proc.returncode})")
    return setup_s


def _read_run(path: Path):
    """(op lines, summary) from a worker's output file."""
    ops, summary = [], None
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("summary"):
                summary = rec
            else:
                ops.append(rec)
    if summary is None:
        raise BenchError(f"{path} has no summary")
    return ops, summary


def _check_outputs(ops) -> tuple[int, int, Counter]:
    """(failed, wrong, reasons) over one worker's ops, via the oracle."""
    import oracle

    failed = wrong = 0
    reasons = Counter()
    for rec in ops:
        reason = oracle.check(rec["op"], rec["error"], rec["out"])
        if reason is not None:
            failed += 1
            wrong += reason.startswith("wrong:")
            reasons[reason.split(" at H =")[0][:120]] += 1
    return failed, wrong, reasons


def _usage_probes(seed: int) -> tuple[int, list[str]]:
    """(probes, reasons) over the cli wrong-length-vector probes, which run
    outside the timed phase and are not counted among the run's ops."""
    import oracle
    import worker
    import workloads

    probes = workloads.usage_probes(seed)
    reasons = []
    for op in probes:
        reason = oracle.check(op, None, worker.run_cli_op(op, None))
        if reason is not None:
            reasons.append(f"{op['sub']} with a wrong-length vector: {reason}")
    return len(probes), reasons


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _loadavg():
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, min_ops: int):
    import workloads

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    deadline = perf_counter() + RUN_DEADLINE_S
    work = RESULTS / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = ["--workload", workload, "--seed", str(seed), "--min-ops", str(min_ops)]
    try:
        # untimed: fills the bytecode caches, as an installed package has them
        _worker(base + ["--setup-only"], deadline)
        if not trace:
            # set-up samples before and after the timed phase, which sees
            # the machine in more than one state
            probe = base + ["--setup-only"]
            setups = [_worker(probe, deadline) for _ in range(SETUP_SAMPLES // 2)]
            setups.append(_worker(base + ["--seconds", str(seconds), "--out", str(work / "run.jsonl")], deadline))
            setups += [_worker(probe, deadline) for _ in range(SETUP_SAMPLES // 2)]
            ops, summary = _read_run(work / "run.jsonl")
            runs = [(ops, summary)]
            lat = [rec["lat"] for rec in ops]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (len(ops) / summary["busy_s"], "op/s"),
                "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
                "op_p90_ms": (_p90(lat) * 1000, "ms"),
                "peak_rss_mb": (summary["peak_rss_kb"] / 1024, "MB"),
            }
        else:
            import tracer

            _worker(base + ["--seconds", str(seconds / 2), "--out", str(work / "plain.jsonl")], deadline)
            plain_ops, plain = _read_run(work / "plain.jsonl")
            spans = work / "spans"
            spans.mkdir()
            _worker(base + ["--max-ops", str(plain["ops"]), "--out", str(work / "traced.jsonl"),
                            "--trace-dir", str(spans)], deadline)
            traced_ops, traced = _read_run(work / "traced.jsonl")
            summary_spans = tracer.Summary()
            for path in sorted(spans.iterdir()):
                summary_spans.add_file(path)
            metrics = summary_spans.metrics()
            by_sub = defaultdict(list)
            for rec in plain_ops:
                if rec["op"]["kind"] == "cli":
                    by_sub[rec["op"]["sub"]].append(rec["lat"] * 1000)
            for sub in workloads.CLI_SUBCOMMANDS:
                vals = by_sub.get(sub)
                metrics[f"cli.{sub}.wall_ms"] = (statistics.median(vals) if vals else 0.0, "ms")
            metrics["trace.overhead_ratio"] = (traced["busy_s"] / plain["busy_s"], "ratio")
            runs = [(plain_ops, plain), (traced_ops, traced)]
            summary = plain
            if plain["digest_ops"] == traced["digest_ops"] and plain["digest"] != traced["digest"]:
                raise BenchError("traced outputs differ from untraced outputs")

        # every workload's run reports them, so that the known defect shows
        probes, probe_reasons = _usage_probes(seed)
        if trace:
            metrics["cli.usage_error.documented_share"] = (1 - len(probe_reasons) / probes, "ratio")

        attempted = failed = wrong = 0
        reasons = Counter()
        for ops, _ in runs:
            f, w, r = _check_outputs(ops)
            attempted += len(ops)
            failed += f
            wrong += w
            reasons.update(r)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0,
        "failure_reasons": dict(reasons),
        "usage_probe_failures": probe_reasons,
        "payload_digest": summary["digest"],
        "digest_ops": summary["digest_ops"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qforms benchmark runner")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--min-ops", type=int, default=100,
                    help="ops a run completes at least (p90 needs 100); lowered only by selftest.py")
    ap.add_argument("--compare", nargs=2, metavar="DIR")
    args = ap.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "qforms" / "__init__.py").is_file():
        print(f"error: no qforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.min_ops)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta["loadavg_end"] = _loadavg()
    record = {**meta, **result}
    record["error_rate"] = result["failed"] / result["attempted"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")

    for key, m in sorted(result["metrics"].items()):
        print(f"{key:48s} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {record['error_rate']:.6g} ({result['failed']}/{result['attempted']})")
    for reason, count in sorted(result["failure_reasons"].items()):
        print(f"failed x{count}: {reason}")
    for reason in result["usage_probe_failures"]:
        print(f"usage probe (not a timed op) failed: {reason}")
    print(f"payload_digest sha256:{result['payload_digest']} (first {result['digest_ops']} ops)")
    print(f"meta git={meta['git_sha'][:12]} python={meta['python']} nproc={meta['nproc']} "
          f"loadavg={meta['loadavg_start']}->{meta['loadavg_end']} seed={args.seed}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
