"""Seeded op plans for the benchmark workloads, and how one op runs.

A plan is an endless sequence of blocks. Each block holds a fixed mix of
op kinds and sizes (stratified), shuffled by the seed, so that every seed
puts the same load shape on the program while the concrete inputs differ.
A run executes whole blocks, which keeps throughput comparable across runs.

Op inputs are generated from the spec files in ``specs/`` without calling
the package under test; the program only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

SPEC_DIR = Path(__file__).resolve().parent / "specs"
FIXTURES = "ABCD"
WORKLOADS = ("certify", "scan", "verify", "cli")
CLI_SUBCOMMANDS = (
    "validate", "params", "forms", "verify", "bounds", "nonvanish", "certify", "scan",
)


def spec_path(fx: str) -> Path:
    return SPEC_DIR / f"fixture{fx}.json"


class FixtureInfo:
    """What the generator needs to know about one spec, read from its JSON."""

    def __init__(self, fx: str):
        raw = json.loads(spec_path(fx).read_text())
        self.fx = fx
        self.q = Fraction(int(raw["q"]["num"]), int(raw["q"]["den"]))
        self.P = [Fraction(c) for c in raw["P"]]
        self.d = len(self.P) - 1
        self.points = [(Fraction(p["alpha"]), int(p["s"])) for p in raw["points"]]
        self.S = sum(s for _, s in self.points)
        self.n_vars = 1 + self.d * self.S

    def series_values(self, bits: int) -> list[Fraction]:
        """Rational approximations of f^(sigma)(alpha_j q^k) in the package's
        variable order (j, then k < d, then sigma < s_j), error far below
        2^-bits. Used only to place A_0 next to -sum A_i f_i."""
        out = []
        eps = Fraction(1, 1 << (bits + 16))
        for alpha, s in self.points:
            for k in range(self.d):
                z = alpha * self.q ** k
                for sigma in range(s):
                    total, prod, n = Fraction(0), Fraction(1), 0
                    while True:
                        if n >= 1:
                            prod *= sum(c * self.q ** (n * i) for i, c in enumerate(self.P))
                        if n >= sigma:
                            term = math.perm(n, sigma) * z ** (n - sigma) / prod
                            total += term
                            if n > 2 * sigma + 4 and abs(term) < eps:
                                break
                        n += 1
                    out.append(total)
        return out


def _rational(rng: random.Random) -> str:
    return str(Fraction(rng.randint(-100, 100), rng.randint(1, 100)))


def _int_vector(rng: random.Random, length: int, bound: int) -> list[int]:
    while True:
        vec = [rng.randint(-bound, bound) for _ in range(length)]
        if any(vec):
            return vec


def _strata(rng: random.Random, sizes: list[int]):
    """Endless sizes that visit every stratum once per len(sizes) draws, each
    jittered by up to 3% so that seeds differ without changing the load."""
    while True:
        order = list(sizes)
        rng.shuffle(order)
        for size in order:
            yield size + rng.randint(-(size // 33), size // 33)


# Low-height certify ops use the criterion-7 box |A_i| <= 50. Deep ops have
# heights 10^10 .. 10^298 with A_0 placed next to -sum A_i f_i, so |Lambda|
# is about 1 and the cross-check ladder has to resolve 1000-bit cancellation.
CERTIFY_LOW_PER_FIXTURE = 6
CERTIFY_DEEP_PER_FIXTURE = 2
CERTIFY_DEEP_DIGITS = [11, 40, 75, 110, 150, 190, 240, 290]
# exhaustive scan cost grows linearly in H_max on the 1 + dS = 2 fixtures; an odd
# number of strata puts op_p50_ms inside the middle one
SCAN_HMAX = [25, 60, 110, 160, 220]
# Functional-equation ops of a verify block, as (fixture, degree, count), in
# three cost bands so that each percentile falls inside one band whatever the
# seed. 4 cheap ops and the bounds report (under 35 ms); 5 FIX-D ops at degree
# 90 (about 50 ms) that hold op_p50_ms; the identity report, FIX-D at degree
# 140 and 2 at degree 200 (about 1 s), enough for op_p90_ms to fall among
# them. The middle band is big-integer work, whose speed drifts less with the
# shared machine's state than that of the cheap ops.
VERIFY_FE = [
    ("A", 110, 1), ("B", 110, 1), ("C", 110, 1), ("D", 30, 1),
    ("D", 90, 5),
    ("D", 140, 1), ("D", 200, 2),
]


def _certify_plan(rng: random.Random, info: dict[str, FixtureInfo]):
    fxs = "ABC"
    f_vals = {fx: info[fx].series_values(1100) for fx in fxs}
    digits = {fx: _strata(rng, CERTIFY_DEEP_DIGITS) for fx in fxs}
    while True:
        block = []
        for fx in fxs:
            n = info[fx].n_vars
            for _ in range(CERTIFY_LOW_PER_FIXTURE):
                block.append({"kind": "certify", "fx": fx, "A": _int_vector(rng, n, 50)})
            for _ in range(CERTIFY_DEEP_PER_FIXTURE):
                digs = next(digits[fx])
                H = rng.randint(10 ** (digs - 1), 10 ** digs)
                rest = [rng.randint(-H, H) for _ in range(n - 1)]
                rest[rng.randrange(n - 1)] = rng.choice((-H, H))
                near = round(sum(a * f for a, f in zip(rest, f_vals[fx])))
                A = [-near + rng.randint(-1, 1)] + rest
                block.append({"kind": "certify", "fx": fx, "A": A})
        rng.shuffle(block)
        yield block


def _scan_plan(rng: random.Random, info: dict[str, FixtureInfo]):
    hmax = {fx: _strata(rng, SCAN_HMAX) for fx in "AB"}
    while True:
        block = [
            {"kind": "scan", "fx": fx, "H_max": next(hmax[fx])}
            for fx in "AB"
            for _ in SCAN_HMAX
        ]
        rng.shuffle(block)
        yield block


def _fe_rational(rng: random.Random) -> str:
    """A rational of fixed size, +-(50..100)/(50..100): the cost of an op
    depends on its degree, not on how small the drawn omega happens to be."""
    return str(Fraction(rng.choice((-1, 1)) * rng.randint(50, 100), rng.randint(50, 100)))


def _fe_op(rng: random.Random, info: FixtureInfo, N: int) -> dict:
    return {
        "kind": "fe",
        "fx": info.fx,
        "N": N,
        "omega0": _fe_rational(rng),
        "rest": [_fe_rational(rng) for _ in range(info.n_vars - 1)],
    }


def _cycle(rng: random.Random, items: str):
    """Endless items, each once per len(items) draws, in seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _verify_plan(rng: random.Random, info: dict[str, FixtureInfo]):
    while True:
        block = [_fe_op(rng, info[fx], N) for fx, N, count in VERIFY_FE for _ in range(count)]
        # both reports on FIX-D, where their cost keeps them out of the middle band
        block.append({
            "kind": "identities",
            "fx": "D",
            "n_max": rng.randint(15, 25),
            "series_N": rng.randint(15, 25),
            "rng_seed": rng.randrange(1 << 30),
        })
        block.append({
            "kind": "bounds",
            "fx": "D",
            "l_list": [1, 2],
            "n_list": sorted(rng.sample(range(2 * info["D"].S, 2 * info["D"].S + 12), 3)),
            "rng_seed": rng.randrange(1 << 30),
        })
        rng.shuffle(block)
        yield block


def _cli_op(fi: FixtureInfo, sub: str, args: list[str], expect: int = 0, refusal=None) -> dict:
    spec = str(spec_path(fi.fx).relative_to(SPEC_DIR.parent.parent))
    return {"kind": "cli", "fx": fi.fx, "sub": sub, "argv": [sub] + args + [spec],
            "expect": expect, "refusal": refusal}


def _cli_block(rng: random.Random, fi: FixtureInfo) -> list[dict]:
    applicable = fi.fx != "D"
    l = rng.randint(1, 3)
    l0 = rng.randint(0, 3)
    omega_rest = ",".join(_rational(rng) for _ in range(fi.n_vars - 1))
    A = ",".join(str(a) for a in _int_vector(rng, fi.n_vars, 50))
    hmax = rng.randint(10, 40) if fi.n_vars == 2 else rng.randint(4, 8)
    # FIX-D has gamma >= 1/M: certify and scan must refuse it (exit 1)
    refusal = () if applicable else (1, "NotApplicable")
    block = [
        _cli_op(fi, "validate", []),
        _cli_op(fi, "params", []),
        _cli_op(fi, "forms", ["--l", str(l), "--n", str(fi.S * l + rng.randint(0, 8))]),
        _cli_op(fi, "verify", ["--n-max", str(rng.randint(10, 30)),
                               "--series-n", str(rng.randint(10, 30)),
                               "--seed", str(rng.randrange(1000))]),
        _cli_op(fi, "bounds", ["--l-list", "1,2", "--n-max", str(rng.randint(8, 14)),
                               "--n-step", str(rng.randint(2, 4)), "--seed", str(rng.randrange(1000))]),
        _cli_op(fi, "nonvanish", ["--l0", str(l0), "--n0", str(fi.S * l0 + rng.randint(0, 8)),
                                  f"--omega-from-f={omega_rest}"]),
        _cli_op(fi, "certify", [f"--A={A}"], *refusal),
        _cli_op(fi, "scan", ["--hmax", str(hmax)], *refusal),
    ]
    rng.shuffle(block)
    return block


def _cli_plan(rng: random.Random, info: dict[str, FixtureInfo]):
    # four blocks make one cycle over the fixtures
    for fx in _cycle(rng, FIXTURES):
        yield _cli_block(rng, info[fx])


def usage_probes(seed: int) -> list[dict]:
    """Wrong-length vectors (``--A``, ``--omega-from-f``): usage errors with
    the documented exit 3. The seed code exits 1 with a ValueError traceback
    instead, so these run after the timed phase of a cli run and are reported
    apart from its ops (see run.py) rather than failing every ninth op."""
    rng = random.Random(f"usage:{seed}")
    fi = FixtureInfo(rng.choice("ABC"))
    bad_A = ",".join(str(a) for a in _int_vector(rng, fi.n_vars + 1, 50))
    bad_omega = ",".join(_rational(rng) for _ in range(fi.n_vars))
    return [
        _cli_op(fi, "certify", [f"--A={bad_A}"], 3),
        _cli_op(fi, "nonvanish", ["--l0", "1", "--n0", str(fi.S + 1), f"--omega-from-f={bad_omega}"], 3),
    ]


PLANS = {
    "certify": _certify_plan,
    "scan": _scan_plan,
    "verify": _verify_plan,
    "cli": _cli_plan,
}


def plan(workload: str, seed: int):
    """Endless iterator of op blocks for a workload; same seed, same ops."""
    rng = random.Random(f"{workload}:{seed}")
    info = {fx: FixtureInfo(fx) for fx in FIXTURES}
    return PLANS[workload](rng, info)


# ---------------------------------------------------------------------------
# running one in-process op
# ---------------------------------------------------------------------------


def run_in_process(qf, op: dict, specs: dict, params: dict, threads: int):
    """Run one op through the package's public functions; returns the payload.

    Functions are looked up on the package at call time so that the traced
    run's wrappers apply.
    """
    spec = specs[op["fx"]]
    kind = op["kind"]
    if kind == "certify":
        return qf.certify_lower_bound(spec, op["A"], params=params[op["fx"]]).to_json()
    if kind == "scan":
        return qf.exponent_scan(
            spec, op["H_max"], threads=threads, params=params[op["fx"]]
        ).to_json()
    if kind == "fe":
        residuals = qf.functional_equation_residual(
            spec, [Fraction(c) for c in op["rest"]], Fraction(op["omega0"]), op["N"]
        )
        return {"residuals": [str(r) for r in residuals]}
    if kind == "identities":
        return qf.check_identities(
            spec, n_max=op["n_max"], series_N=op["series_N"], rng_seed=op["rng_seed"]
        ).to_json()
    if kind == "bounds":
        return qf.bounds_report(
            spec, op["l_list"], op["n_list"], precision_bits=512, rng_seed=op["rng_seed"]
        ).to_json()
    raise ValueError(f"unknown op kind {kind!r}")
