"""Measure-parameter golden test: the gate and mu are decided the same way.

measure_params fixes gamma, M and precision_bits at the first rung that
separates M*gamma from 1, then refines mu to the requested width. This test
runs it on FIX-A..D and on values of q just either side of the gate
gamma = 1/M, for four shapes of (P, points), over several start precisions
and caps, so that rungs stay undecided, separate late, stop at the cap or
start above it. Each record (to_json, a_midpoint and n0_slope, or the
exception type and message) is hashed in a fixed order into one sha256
digest. A change that alters one must update DIGEST and say why in
CHANGES.md.
"""

import hashlib
import json
from fractions import Fraction as F

from qforms import QFormsError, measure_params, validate_spec

DIGEST = "1eb30fdbed627c8bb006ff66a8c154db8b7e7324ac2bb8a61f8dd06bf36a0871"

SHAPES = {
    "z": ([0, 1], [(F(1), 1)]),
    "1+z": ([1, 1], [(F(1), 1)]),
    "z;1,3": ([0, 1], [(F(1), 1), (F(3), 1)]),
    "FIX-D": ([0, F(1, 3), 1], [(F(5, 7), 2)]),
}
# (q1, q2, shape): the fixtures, then the nearest q1 on each side of the gate
# for several q2 (M*gamma - 1 from about -0.07 to 0.13, down to 6e-6 in size)
SPECS = [
    (2, 1, "z"), (2, 1, "1+z"), (2, 1, "z;1,3"), (3, 2, "FIX-D"),
    (5, 2, "z"), (7, 2, "z"), (17, 3, "z"), (19, 3, "z"), (67, 5, "z"), (68, 5, "z"),
    (-68, 5, "z"), (163, 7, "z"), (164, 7, "z"),
    (9, 2, "1+z"), (11, 2, "1+z"), (41, 3, "1+z"), (43, 3, "1+z"), (243, 5, "1+z"),
    (244, 5, "1+z"), (767, 7, "1+z"), (768, 7, "1+z"), (-768, 7, "1+z"),
    (23, 2, "z;1,3"), (25, 2, "z;1,3"), (149, 3, "z;1,3"), (151, 3, "z;1,3"),
    (1543, 5, "z;1,3"), (1544, 5, "z;1,3"),
    (709, 2, "FIX-D"), (711, 2, "FIX-D"),
]
PRECISIONS = (1, 8, 64, 200)
CAPS = (4, 16, 128, 1024)


def _record(spec, bits: int, cap: int) -> dict:
    try:
        params = measure_params(spec, bits, cap)
    except QFormsError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {**params.to_json(), "a_midpoint": str(params.a_midpoint),
            "n0_slope": str(params.n0_slope)}


def test_measure_params_records_are_unchanged():
    digest = hashlib.sha256()
    for q1, q2, shape in SPECS:
        spec = validate_spec(q1, q2, *SHAPES[shape])
        for bits in PRECISIONS:
            for cap in CAPS:
                record = _record(spec, bits, cap)
                digest.update(f"{q1}/{q2} {shape} {bits} {cap}\n".encode())
                digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == DIGEST
