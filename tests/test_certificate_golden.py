"""Certificate golden test: certify_lower_bound's certificates are byte-stable.

The payload digest certifies one vector per fixture. This test hashes
certify_lower_bound(...).to_json() in a fixed order over

  * FIX-A and FIX-B with |A_i| <= 12, and FIX-C with |A_i| <= 3;
  * the certify ops of the first two blocks of the benchmark's plan at
    seeds 1-3, deep heights 10^10 .. 10^298 included. The plan is read from
    bench/workloads.py as it is, as tests/test_bench_oracle.py does.

So l, n, wA, wOmega, x0_coeff, bound and cross_check are pinned on every
path a benchmark op takes. A change that alters one must update DIGEST and
say why in CHANGES.md.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

from qforms import certify_lower_bound, measure_params
from qforms.cli import load_spec_file

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

DIGEST = "3d87b1bf513927f2d328826ee0bd99cf7b10c4c211b0ced890aa70b5adbfdc8e"

BOXES = {"A": 12, "B": 12, "C": 3}


def records(all_fixtures):
    for fx, box in BOXES.items():
        spec = all_fixtures[fx]
        span = range(-box, box + 1)
        for A in itertools.product(span, repeat=spec.n_vars):
            if any(A):
                yield fx, list(A), certify_lower_bound(spec, A).to_json()
    specs = {fx: load_spec_file(str(workloads.spec_path(fx)))[0] for fx in "ABC"}
    params = {fx: measure_params(spec, 64) for fx, spec in specs.items()}
    for seed in (1, 2, 3):
        blocks = workloads.plan("certify", seed)
        for op in next(blocks) + next(blocks):
            fx = op["fx"]
            cert = certify_lower_bound(specs[fx], op["A"], params=params[fx])
            yield fx, op["A"], cert.to_json()


def test_certificates_are_unchanged(all_fixtures):
    digest = hashlib.sha256()
    for record in records(all_fixtures):
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == DIGEST
