"""The benchmark's first op blocks pass its oracle.

The op plans, runners and oracle are imported from bench/ and used as they
are, so a change that makes benchmark ops fail shows up here first: the
first two blocks of the certify, scan and verify plans at seeds 1-3, run in
process, and the first cli cycle (one block per fixture), one fresh CLI
process per op.
"""

import json
import os
import sys
from pathlib import Path

import pytest

import qforms
from qforms.cli import load_spec_file

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import oracle  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def loaded():
    specs, params = {}, {}
    for fx in workloads.FIXTURES:
        specs[fx], _bits, _caps = load_spec_file(str(workloads.spec_path(fx)))
        params[fx] = qforms.measure_params(specs[fx], 64)
    return specs, params


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["certify", "scan", "verify"])
def test_in_process_blocks_pass_the_oracle(loaded, workload, seed):
    specs, params = loaded
    blocks = workloads.plan(workload, seed)
    failures = []
    for op in next(blocks) + next(blocks):
        try:
            out = workloads.run_in_process(qforms, op, specs, params, os.cpu_count() or 1)
            error = None
        except Exception as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        # the worker hands the oracle its output after a JSON round trip
        reason = oracle.check(op, error, json.loads(json.dumps(out)))
        if reason is not None:
            failures.append((op, reason))
    assert failures == []


def test_first_cli_cycle_passes_the_oracle():
    blocks = workloads.plan("cli", 1)
    failures = []
    for _ in workloads.FIXTURES:
        for op in next(blocks):
            reason = oracle.check(op, None, worker.run_cli_op(op, None))
            if reason is not None:
                failures.append((op["argv"], reason))
    assert failures == []
