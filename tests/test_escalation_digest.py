"""Escalation golden test: the precision ladders give the same results.

The payload digest runs every subcommand at the fixtures' own precision,
where almost nothing escalates. This test drives the four escalating
operations on FIX-A..D at tiny and moderate (start, cap) pairs, where
enclosures stay undecided, climb rung by rung or stop at the cap:

  * bounds_report, whose undecided rows are followed by decided ones;
  * nonvanishing_scan on rest coefficients, omega_0 from the series values;
  * certify_lower_bound, including the attempts of PrecisionCapExceeded,
    all "cap", and of RetryCapExceeded;
  * exponent_scan, including PrecisionCapExceeded from the straddle case.

Each result (or exception type, message and attempts) is hashed in a fixed
order into one sha256 digest. A change that alters one must update DIGEST
and say why in CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction as F

from qforms import (
    PrecisionPolicy,
    QFormsError,
    bounds_report,
    certify_lower_bound,
    exponent_scan,
    nonvanishing_scan,
)

DIGEST = "2290b82c9627e90a4cd5513a59a6d685aebd48d38188a70c610ecc6899ae00ba"

CAPS = [(4, 4), (4, 16), (8, 64), (16, 16), (32, 128), (64, 256), (128, 512), (512, 1024)]
REST = {"A": [F(1, 2)], "B": [F(-3, 4)], "C": [F(1, 2), F(-2)],
        "D": [F(1), F(-1, 2), F(2, 3), F(3)]}
VECTORS = {"A": [(-23, 14), (3, -2), (0, 10 ** 6)], "B": [(7, -50), (2, 5)],
           "C": [(3, -2, 5), (1, 1, -1)], "D": [(1, 2, -3, 4, 5)]}


def _outcome(call) -> dict:
    try:
        return call().to_json()
    except QFormsError as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "attempts": getattr(exc, "attempts", None)}


def records(all_fixtures):
    for fx, spec in all_fixtures.items():
        S = spec.S
        for start, cap in CAPS:
            policy = PrecisionPolicy(start, cap)
            yield fx, start, cap, "bounds", _outcome(lambda: bounds_report(
                spec, [1, 2], [2 * S, 3 * S, 5 * S, 8 * S],
                precision_bits=start, precision_cap=cap, rng_seed=1))
            for l0, n0 in ((1, S + 1), (3, 4 * S)):
                yield fx, start, cap, "nonvanish", _outcome(
                    lambda: nonvanishing_scan(spec, REST[fx], l0, n0, policy))
            for A in VECTORS[fx]:
                yield fx, start, cap, "certify", _outcome(
                    lambda: certify_lower_bound(spec, A, policy=policy, retry_cap=1))
            strategy = "random" if spec.n_vars > 3 else "exhaustive"
            yield fx, start, cap, "scan", _outcome(lambda: exponent_scan(
                spec, 6, strategy=strategy, sample_count=3, seed=2,
                precision_bits=start, precision_cap=cap))


def test_escalation_results_are_unchanged(all_fixtures):
    digest = hashlib.sha256()
    for record in records(all_fixtures):
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == DIGEST
