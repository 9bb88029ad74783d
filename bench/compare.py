"""Compare two sets of benchmark results (``run.py --compare DIR_A DIR_B``).

For each workload and end-to-end metric it prints both sides' median and
quartiles, the ratio B/A and a verdict against the metric's bound from
BENCHMARK.json:

* ``unresolved``: a side's quartile spread exceeds the bound, unless every
  B run is better than every A run;
* ``REGRESSION``: B's median is worse than A's by more than the bound;
* ``improved``: B wins at least 9 in 10 of the runs paired by seed and the
  medians differ by more than A's quartile spread;
* ``within bound`` otherwise.

It also prints the error rate of each side, how many seeds run on both
sides kept the same payload digest and each one that changed, and the
machines the runs came from.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(directory: str) -> list[dict]:
    out = []
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if "metrics" in rec and "workload" in rec:
            out.append(rec)
    if not out:
        raise SystemExit(f"error: no result records in {directory}")
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _verdict(metric: dict, a: dict[int, float], b: dict[int, float]) -> str:
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    a_q1, a_med, a_q3 = _quartiles(list(a.values()))
    b_q1, b_med, b_q3 = _quartiles(list(b.values()))

    def better(x, y):
        return x < y if lower else x > y

    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > bound:
        if all(better(x, y) for x in b.values() for y in a.values()):
            return "improved"
        return "unresolved"
    worse_by = (b_med - a_med) / a_med if lower else (a_med - b_med) / a_med
    if worse_by > bound:
        return "REGRESSION"
    pairs = [s for s in a if s in b]
    wins = sum(better(b[s], a[s]) for s in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
        return "improved"
    return "within bound"


def main(dir_a: str, dir_b: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"A": _load(dir_a), "B": _load(dir_b)}
    for side, recs in sides.items():
        shas = sorted({r["git_sha"][:12] for r in recs})
        pys = sorted({r["python"] for r in recs})
        nprocs = sorted({str(r["nproc"]) for r in recs})
        loads = [float(r[k][0]) for r in recs for k in ("loadavg_start", "loadavg_end") if r.get(k)]
        load = f"{min(loads):.2f}..{max(loads):.2f}" if loads else "n/a"
        print(f"{side}: {len(recs)} runs, git {','.join(shas)}, python {','.join(pys)}, "
              f"nproc {','.join(nprocs)}, loadavg {load}")

    # values[side][workload][metric] = {seed: value}
    values = {side: defaultdict(lambda: defaultdict(dict)) for side in sides}
    errors = {side: defaultdict(lambda: [0, 0]) for side in sides}
    digests = {side: defaultdict(dict) for side in sides}
    for side, recs in sides.items():
        for r in recs:
            if r["trace"]:
                continue
            for name, m in r["metrics"].items():
                values[side][r["workload"]][name][r["seed"]] = m["value"]
            errors[side][r["workload"]][0] += r["failed"]
            errors[side][r["workload"]][1] += r["attempted"]
            digests[side][r["workload"]][r["seed"]] = r["payload_digest"]

    header = f"{'workload':8s} {'metric':12s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} {'B/A':>7s}  verdict"
    print(header)
    for w in spec["workloads"]:
        wl = w["name"]
        for metric in spec["end_to_end"]:
            a = values["A"][wl].get(metric["name"])
            b = values["B"][wl].get(metric["name"])
            if not a or not b:
                print(f"{wl:8s} {metric['name']:12s} missing on {'A' if not a else 'B'}")
                continue
            a_q = _quartiles(list(a.values()))
            b_q = _quartiles(list(b.values()))
            cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (a_q, b_q)]
            print(f"{wl:8s} {metric['name']:12s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{b_q[1] / a_q[1]:7.3f}  {_verdict(metric, a, b)}")
        ea, eb = errors["A"][wl], errors["B"][wl]
        if ea[1] and eb[1]:
            print(f"{wl:8s} {'error_rate':12s} {ea[0] / ea[1]:>34.5g} {eb[0] / eb[1]:>34.5g}")
        shared = sorted(set(digests["A"][wl]) & set(digests["B"][wl]))
        changed = [s for s in shared if digests["A"][wl][s] != digests["B"][wl][s]]
        print(f"{wl:8s} payload digest: {len(shared) - len(changed)} of {len(shared)} shared seeds identical")
        for seed in changed:
            da, db = digests["A"][wl][seed], digests["B"][wl][seed]
            print(f"{wl:8s} payload digest changed at seed {seed}: {da[:16]} -> {db[:16]}")
    return 0
