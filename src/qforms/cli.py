"""Command-line front end.

Subcommands map one-to-one onto the library operations and emit a versioned
JSON report (schema "qforms/1"). Exit codes: 0 pass, 1 fail, 2 undecided,
3 usage or spec error. Payloads are deterministic for identical invocations
(timing lives outside the payload).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import measure, verifier
from .errors import (
    DomainViolation,
    InvalidSpec,
    PrecisionCapExceeded,
    QFormsError,
    UndecidableAtCap,
)
from .forms import form_height, form_to_json, u_form, v_form, vl_form, w_form
from .problem import (
    ProblemSpec,
    gamma_enclosure,
    measure_params,
    validate_spec,
)
from .util import DEFAULT_PRECISION_CAP, DEFAULT_RETRY_CAP, DEFAULT_START_BITS, PrecisionPolicy

SCHEMA = "qforms/1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 3


class SpecFileError(Exception):
    pass


def load_spec_file(path: str) -> tuple[ProblemSpec, int, dict]:
    """Parse a spec file into (spec, precision_bits, caps)."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"spec file {path} is not valid JSON: {exc}") from exc
    try:
        q = raw["q"]
        if not isinstance(raw["P"], list):
            raise TypeError(f"P must be a list, got {raw['P']!r}")
        spec = validate_spec(
            _integer(q["num"], "q.num"),
            _integer(q["den"], "q.den"),
            [Fraction(c) for c in raw["P"]],
            [(Fraction(p["alpha"]), _positive_int(p["s"], "points[].s")) for p in raw["points"]],
        )
        caps = dict(raw.get("caps", {}))
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SpecFileError(f"malformed spec file {path}: {exc}") from exc
    precision_bits = _positive_int(raw.get("precision_bits", DEFAULT_START_BITS), "precision_bits")
    caps.setdefault("precision_cap", DEFAULT_PRECISION_CAP)
    caps.setdefault("retry_cap", DEFAULT_RETRY_CAP)
    env_cap = os.environ.get("QFORMS_PRECISION_CAP")
    if env_cap is not None:
        caps["precision_cap"] = env_cap
    for key in ("precision_cap", "retry_cap"):
        caps[key] = _positive_int(caps[key], f"caps.{key}")
    if precision_bits > caps["precision_cap"]:  # refused rather than silently run at the cap
        raise SpecFileError(
            f"precision_bits {precision_bits} exceeds the precision cap {caps['precision_cap']}"
        )
    return spec, precision_bits, caps


def _integer(value, name: str, kind: str = "an integer") -> int:
    """A JSON integer (not a bool) or an integer string such as "-3"; a
    float is refused rather than truncated."""
    if isinstance(value, str) and value.strip().removeprefix("-").isdecimal():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFileError(f"{name} must be {kind}, got {value!r}")
    return value


def _positive_int(value, name: str) -> int:
    """A JSON integer (not a bool) or a decimal string, at least 1."""
    number = _integer(value, name, "a positive integer")
    if number < 1:
        raise SpecFileError(f"{name} must be a positive integer, got {value!r}")
    return number


def _parse_vector(text: str, parse, flag: str, length: Optional[int] = None) -> list:
    """Comma-separated entries of flag; a non-empty list of the given length."""
    try:
        vec = [parse(tok.strip()) for tok in text.split(",") if tok.strip() != ""]
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFileError(f"{flag}: cannot parse {text!r}: {exc}") from exc
    if not vec or (length is not None and len(vec) != length):
        want = "at least 1" if length is None else str(length)
        raise SpecFileError(f"{flag} needs {want} entries, got {len(vec)}")
    return vec


def _at_least(value: int, low: int, flag: str) -> int:
    if value < low:
        raise SpecFileError(f"{flag} must be at least {low}, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Report/output flags, valid before or after the subcommand.

    The subcommand copies use SUPPRESS defaults so they never clobber a
    value parsed at the top level.
    """
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--out", default=default, help="write the JSON report here (default stdout)")
    parser.add_argument("--csv", default=default, help="CSV sidecar for grid reports (bounds, scan)")
    parser.add_argument(
        "--threads", type=int, default=default,
        help="accepted for compatibility; has no effect (scans run serially)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qforms",
        description="Exact auxiliary linear forms and certified lower bounds "
        "for q-hypergeometric series values.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_common(p, suppress=True)
        p.add_argument("specfile")
        return p

    command("validate", "validate a spec file")
    command("params", "gamma, S, eps0, M, mu, D, applicability")

    p = command("forms", "print u_n, v_n, v_(l,n), w_(l,n) and heights")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = command("verify", "run the exact identity suite")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--l-max", type=int, default=None)
    p.add_argument("--series-n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = command("bounds", "height growth and smallness report")
    p.add_argument("--l-list", default="1,2,3,4,5")
    p.add_argument("--n-list", default=None, help="comma list; default derived")
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--n-step", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = command("nonvanish", "non-vanishing window scan")
    p.add_argument("--l0", type=int, required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--omega", help="rational vector 'w0,w1,...' (exact path)")
    p.add_argument(
        "--omega-from-f",
        help="rest coefficients 'c1,...'; omega_0 taken from the series values",
    )

    p = command("certify", "certified lower bound for a vector A")
    p.add_argument("--A", required=True, help="integer vector 'a0,a1,...'; --A=-23,14 if a0 < 0")
    p.add_argument("--l-override", type=int, default=None)

    p = command("scan", "exponent scan over height classes")
    p.add_argument("--hmax", type=int, required=True)
    p.add_argument("--random", type=int, default=None, metavar="K",
                   help="random strategy with K samples per shell")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _dispatch(args, spec: ProblemSpec, precision_bits: int, caps: dict):
    """Returns (payload_dict, verdict, csv_rows_or_None)."""
    policy = PrecisionPolicy(precision_bits, caps["precision_cap"])
    if args.command == "validate":
        return {"valid": True, "spec": spec.to_json()}, "pass", None

    if args.command == "params":
        params = measure_params(spec, precision_bits, caps["precision_cap"])
        gamma = gamma_enclosure(spec, precision_bits)
        return {
            "params": params.to_json(),
            "gamma": gamma.to_json(),
            "D": spec.clearing_D,
        }, "pass", None

    if args.command == "forms":
        forms = {
            "u": u_form(spec, args.n),
            "v": v_form(spec, args.n),
            "vl": vl_form(spec, args.l, args.n),
            "w": w_form(spec, args.l, args.n),
        }
        return {
            "l": args.l,
            "n": args.n,
            **{name: form_to_json(spec, form) for name, form in forms.items()},
            "heights": {name: str(form_height(form)) for name, form in forms.items()},
        }, "pass", None

    if args.command == "verify":
        report = verifier.check_identities(
            spec,
            n_max=args.n_max,
            l_max=args.l_max,
            series_N=_at_least(args.series_n, 0, "--series-n"),
            rng_seed=args.seed,
        )
        return report.to_json(), "pass" if report.all_passed else "fail", None

    if args.command == "bounds":
        l_list = _parse_vector(args.l_list, int, "--l-list")
        n_step = _at_least(args.n_step, 1, "--n-step")
        if args.n_list:
            n_list = _parse_vector(args.n_list, int, "--n-list")
        else:
            n_list = sorted(
                set(range(spec.S * min(l_list), args.n_max + 1, n_step))
                | {args.n_max}
            )
        report = verifier.bounds_report(
            spec,
            l_list,
            n_list,
            precision_bits=max(precision_bits, 512),
            rng_seed=args.seed,
            precision_cap=caps["precision_cap"],
        )
        verdict = "undecided" if report.undecided_rows else "pass"
        return report.to_json(), verdict, report.csv_rows()

    if args.command == "nonvanish":
        if (args.omega is None) == (args.omega_from_f is None):
            raise SpecFileError("provide exactly one of --omega / --omega-from-f")
        if args.omega is not None:
            omega = _parse_vector(args.omega, Fraction, "--omega", spec.n_vars)
        else:
            omega = _parse_vector(
                args.omega_from_f, Fraction, "--omega-from-f", spec.n_vars - 1
            )
        verdict_obj = verifier.nonvanishing_scan(spec, omega, args.l0, args.n0, policy)
        verdict = "undecided" if verdict_obj.undecided else "pass"
        return verdict_obj.to_json(), verdict, None

    if args.command == "certify":
        A = _parse_vector(args.A, int, "--A", spec.n_vars)
        cert = measure.certify_lower_bound(
            spec,
            A,
            l_override=args.l_override,
            policy=policy,
            retry_cap=caps["retry_cap"],
        )
        return cert.to_json(), "pass", None

    if args.command == "scan":
        _at_least(args.hmax, 2, "--hmax")
        if args.random is not None:
            _at_least(args.random, 1, "--random")
        report = measure.exponent_scan(
            spec,
            args.hmax,
            strategy="exhaustive" if args.random is None else "random",
            sample_count=64 if args.random is None else args.random,
            seed=args.seed,
            precision_bits=precision_bits,
            precision_cap=caps["precision_cap"],
        )
        return report.to_json(), "pass", report.csv_rows()

    raise SpecFileError(f"unknown command {args.command}")


def _emit(args, report: dict) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(args, csv_rows: Optional[list]) -> None:
    if not args.csv or not csv_rows:
        return
    with open(args.csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(csv_rows[0].keys()))
        writer.writeheader()
        writer.writerows(csv_rows)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EXIT_USAGE if exc.code else EXIT_PASS

    started = time.perf_counter()
    csv_rows = None
    try:
        spec, precision_bits, caps = load_spec_file(args.specfile)
        payload, verdict, csv_rows = _dispatch(args, spec, precision_bits, caps)
    except (SpecFileError, InvalidSpec, DomainViolation) as exc:
        # a DomainViolation is reachable from the CLI only through a flag value
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "verdict": "spec-error",
        }
        _emit(args, report)
        return EXIT_USAGE
    except (UndecidableAtCap, PrecisionCapExceeded) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        verdict = "undecided"
    except QFormsError as exc:  # NotApplicable, RetryCapExceeded, ZeroOmega, ZeroVector
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        verdict = "fail"

    elapsed = time.perf_counter() - started
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "spec": spec.to_json(),
        "timing": {"seconds": round(elapsed, 6)},
        "payload": payload,
        "verdict": verdict,
    }
    _emit(args, report)
    _write_csv(args, csv_rows)
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "undecided": EXIT_UNDECIDED}[verdict]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
