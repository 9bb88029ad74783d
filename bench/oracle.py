"""Independent correctness oracle for benchmark outputs (mpmath, no qforms).

Series values come from mpmath summation at a working precision chosen
from the height of the vector, with an explicit error allowance, and the
comparisons are made exactly on rationals. A comparison that the allowance
cannot decide is retried at doubled precision.

``check(op, error, out)`` returns None when the op's output is right, or a
reason string. Reasons starting with ``wrong:`` mean an output disagreed
with the oracle; the others are robustness failures (an undocumented
error, a wrong exit code, a traceback).
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

import mpmath

from workloads import spec_path

MAX_BITS = 1 << 15


def _fraction(x: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
    val = Fraction(int(man)) * Fraction(2) ** exp
    return -val if sign else val


@lru_cache(maxsize=None)
def _spec(fx: str):
    raw = json.loads(spec_path(fx).read_text())
    q = Fraction(int(raw["q"]["num"]), int(raw["q"]["den"]))
    P = [Fraction(c) for c in raw["P"]]
    points = [(Fraction(p["alpha"]), int(p["s"])) for p in raw["points"]]
    return q, P, points


def _mpq(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


@lru_cache(maxsize=None)
def _f_values(fx: str, bits: int) -> tuple[mpmath.mpf, ...]:
    """f^(sigma)(alpha_j q^k), each within 2^-bits, in the package's
    variable order; computed at bits + 40 working bits."""
    q, P, points = _spec(fx)
    d = len(P) - 1
    out = []
    with mpmath.workprec(bits + 40):
        qm = _mpq(q)
        Pm = [_mpq(c) for c in P]
        eps = mpmath.ldexp(1, -(bits + 8))
        for alpha, s in points:
            for k in range(d):
                z = _mpq(alpha) * qm ** k
                for sigma in range(s):
                    total, prod, n = mpmath.mpf(0), mpmath.mpf(1), 0
                    while True:
                        if n >= 1:
                            x = qm ** n
                            prod *= mpmath.polyval(Pm[::-1], x)
                        if n >= sigma:
                            term = mpmath.ff(n, sigma) * z ** (n - sigma) / prod
                            total += term
                            # past the dominance point terms shrink super-
                            # geometrically, so the tail is below the last term
                            if n > 2 * sigma + 4 and abs(term) < eps:
                                break
                        n += 1
                    out.append(+total)
    return tuple(out)


def _lambda_abs(fx: str, A: list[int], bits: int) -> tuple[Fraction, Fraction]:
    """(approximation of |A_0 + sum A_i f_i|, error allowance)."""
    f = _f_values(fx, bits)
    with mpmath.workprec(bits + 40):
        acc = mpmath.mpf(A[0])
        for a, v in zip(A[1:], f):
            acc += a * v
        value = _fraction(abs(acc))
    weight = sum(abs(a) for a in A) + 1
    return value, Fraction(weight, 1 << (bits - 4))


def _start_bits(A: list[int], floor: int = 256) -> int:
    """Working bits: twice the height's bits covers the cancellation in
    Lambda; rounded up to a multiple of 256 so series values are reused."""
    bits = max(floor, 2 * max(abs(a) for a in A).bit_length() + 128)
    return -(-bits // 256) * 256


def certificate_ok(fx: str, A: list[int], bound: Fraction) -> bool | None:
    """True if 0 < bound <= |Lambda(A)|, False if not, None if undecided."""
    if bound <= 0:
        return False
    bits = _start_bits(A)
    while bits <= MAX_BITS:
        value, err = _lambda_abs(fx, A, bits)
        if bound <= value - err:
            return True
        if bound > value + err:
            return False
        bits *= 2
    return None


def enclosure_contains(fx: str, A: list[int], lo: Fraction, hi: Fraction) -> bool | None:
    bits = _start_bits(A, 2 * max(lo.denominator.bit_length(), hi.denominator.bit_length()))
    while bits <= MAX_BITS:
        value, err = _lambda_abs(fx, A, bits)
        if lo <= value - err and value + err <= hi:
            return True
        if value + err < lo or value - err > hi:
            return False
        bits *= 2
    return None


@lru_cache(maxsize=None)
def mu_value(fx: str) -> Fraction:
    """mu = (M - 1) / (1 - M gamma) of the spec, to 200 bits."""
    q, P, points = _spec(fx)
    d = len(P) - 1
    S = sum(s for _, s in points)
    ds = d * S
    monomial = all(c == 0 for c in P[:-1])
    with mpmath.workprec(200):
        gamma = mpmath.log(abs(q.denominator)) / mpmath.log(abs(q.numerator))
        if monomial:
            M = ds + mpmath.mpf(1) / 2 + mpmath.sqrt(ds * ds + mpmath.mpf(1) / 4)
        else:
            M = ds + 1 + mpmath.sqrt(ds * (ds + 1))
        return _fraction((M - 1) / (1 - M * gamma))


def _check_certificate(fx: str, payload: dict) -> str | None:
    A = [int(a) for a in payload["A"]]
    verdict = certificate_ok(fx, A, Fraction(payload["bound"]))
    if verdict is None:
        return "wrong: certificate bound undecided at the oracle's precision cap"
    if not verdict:
        return f"wrong: certificate bound {payload['bound']} exceeds |Lambda(A)|"
    return None


def _check_scan(fx: str, payload: dict, H_max: int) -> str | None:
    rows = payload["rows"]
    if [r["H"] for r in rows] != list(range(2, H_max + 1)):
        return "wrong: scan rows do not cover H = 2 .. H_max"
    mu = mu_value(fx)
    mu_enc = payload["mu"]
    if not Fraction(mu_enc["lo"]) - Fraction(1, 1 << 60) <= mu <= Fraction(mu_enc["hi"]) + Fraction(1, 1 << 60):
        return "wrong: reported mu does not contain the oracle's mu"
    for row in rows:
        A = [int(a) for a in row["best_A"]]
        enc = row["lambda_abs"]
        inside = enclosure_contains(fx, A, Fraction(enc["lo"]), Fraction(enc["hi"]))
        if not inside:
            return f"wrong: lambda_abs at H = {row['H']} misses |Lambda(best_A)|"
    # criterion 8's ceiling, stated for FIX-A and FIX-B; FIX-C exceeds it at
    # H = 2 (exponent about 5.99 against mu + 1 of about 4.56)
    if fx in "AB" and Fraction(payload["max_observed_exponent"]["hi"]) > mu + 1:
        return "wrong: maximum exponent exceeds mu + 1"
    return None


def _check_in_process(op: dict, out) -> str | None:
    kind = op["kind"]
    if kind == "certify":
        return _check_certificate(op["fx"], out)
    if kind == "scan":
        return _check_scan(op["fx"], out, op["H_max"])
    if kind == "fe":
        if len(out["residuals"]) != op["N"] + 1:
            return "wrong: residual count is not N + 1"
        if any(r != "0" for r in out["residuals"]):
            return "wrong: nonzero functional-equation residual"
        return None
    if kind == "identities":
        return None if out["all_passed"] else "wrong: identity check failed"
    if kind == "bounds":
        if out["undecided_rows"]:
            return "wrong: undecided smallness rows"
        return None
    return f"unknown op kind {kind!r}"


def _check_cli(op: dict, out: dict) -> str | None:
    if out.get("timeout"):
        return "cli op timed out"
    if out["traceback"]:
        return f"traceback on stderr (exit {out['code']})"
    if out["code"] != op["expect"]:
        return f"exit code {out['code']}, documented {op['expect']}"
    report = out["report"]
    if not isinstance(report, dict) or report.get("schema") != "qforms/1":
        return "stdout is not a qforms/1 report"
    if op["expect"] == 3:
        return None
    payload = report["payload"]
    if op["refusal"] is not None:
        if payload.get("error", {}).get("type") != op["refusal"]:
            return f"expected a {op['refusal']} refusal"
        return None
    sub = op["sub"]
    if sub == "certify":
        return _check_certificate(op["fx"], payload)
    if sub == "scan":
        return _check_scan(op["fx"], payload, int(op["argv"][op["argv"].index("--hmax") + 1]))
    if sub == "verify" and not payload["all_passed"]:
        return "wrong: identity check failed"
    return None


def check(op: dict, error: str | None, out) -> str | None:
    if error is not None:
        return f"undocumented error {error}"
    if op["kind"] == "cli":
        return _check_cli(op, out)
    return _check_in_process(op, out)

