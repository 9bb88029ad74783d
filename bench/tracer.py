"""Span tracing for the traced benchmark run, installed from outside the package.

``install`` wraps the listed public functions of each qforms module and
rebinds every name in ``qforms.*`` that refers to one of them, because the
modules import each other's functions by name. Each call becomes a span
(id, parent id, name, start, end, op index). Span stacks are kept per
thread; a span opened on a worker thread with an empty stack (the thread
pool inside ``exponent_scan``) takes the main thread's open span as its
parent. Spans stay in memory and are written out when the process ends.

Untraced runs never call ``install``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "problem": ("validate_spec", "measure_params"),
    "enclosure": ("log_enclosure", "sqrt_enclosure"),
    "forms": ("u_form", "v_form", "vl_form", "w_form", "operator_poly", "evaluate_exact"),
    "series": ("f_derivative_enclosure", "value_table", "lambda_enclosure",
               "omega_from_vector", "evaluate_form", "functional_equation_residual"),
    "verifier": ("check_identities", "bounds_report", "nonvanishing_scan", "log_of_enclosure"),
    "measure": ("choose_parameters", "certify_lower_bound", "exponent_scan"),
    "cli": ("load_spec_file", "main"),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, names in LAYERS.items() for f in names)
# calls whose arguments repeat an earlier call are counted for these
KEYED = ("forms.w_form", "series.value_table")
# work units of a call, read from its result
UNITS = {"measure.exponent_scan": lambda report: len(report.rows)}
CERTIFY = "measure.certify_lower_bound"
SCAN = "measure.exponent_scan"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._seen = {name: set() for name in KEYED}
        self._seen_lock = threading.Lock()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn) if name in KEYED else None
        units_of = UNITS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            repeat = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments.values())
                with self._seen_lock:
                    seen = self._seen[name]
                    repeat = key in seen
                    seen.add(key)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            units = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if units_of is not None:
                    units = units_of(result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, self.op, repeat, units))

        return traced

    def dump(self, path, import_s: float) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"import_s": import_s}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install() -> Tracer:
    """Wrap every binding of the listed functions in the loaded qforms modules."""
    tracer = Tracer()
    wrapped = {}
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"qforms.{module}")
        for fname in names:
            fn = getattr(mod, fname)
            wrapped[id(fn)] = (fn, tracer.wrap(f"{module}.{fname}", fn))
    for modname, mod in list(sys.modules.items()):
        if modname != "qforms" and not modname.startswith("qforms."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return tracer


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Summary:
    """Per-function counts, self and total times, summed over traced processes."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # outermost calls only
        self.repeats = defaultdict(int)
        self.under = defaultdict(int)  # (ancestor, name) -> calls below it
        self.scan_heights = 0
        self.import_s: list[float] = []

    def add_file(self, path) -> None:
        with open(path) as fh:
            header = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh]
        self.import_s.append(header["import_s"])
        self.add_spans(spans)

    def add_spans(self, spans) -> None:
        name_of = {s[0]: s[2] for s in spans}
        parent_of = {s[0]: s[1] for s in spans}
        children = defaultdict(list)
        for sid, parent, name, t0, t1, *_ in spans:
            children[parent].append((t0, t1))
        for sid, parent, name, t0, t1, _op, repeat, units in spans:
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - _covered(children.get(sid, []), t0, t1)
            if repeat:
                self.repeats[name] += 1
            if name == SCAN and units is not None:
                self.scan_heights += units
            nested, owner = False, None
            anc = parent
            while anc in name_of:
                nested = nested or name_of[anc] == name
                if owner is None and name_of[anc] in (CERTIFY, SCAN):
                    owner = name_of[anc]
                anc = parent_of[anc]
            if not nested:
                self.total_s[name] += t1 - t0
            if owner is not None:
                self.under[(owner, name)] += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
            out[f"{name}.total_s"] = (self.total_s[name], "s")

        def ratio(num, den):
            return num / den if den else 0.0

        certs = self.calls[CERTIFY]
        out["measure.certify.attempts_per_cert"] = (
            ratio(self.under[(CERTIFY, "series.evaluate_form")], certs), "call/cert")
        out["measure.certify.ladder_steps_per_cert"] = (
            ratio(self.under[(CERTIFY, "series.omega_from_vector")], certs), "call/cert")
        out["measure.certify.cross_checks_per_cert"] = (
            ratio(self.under[(CERTIFY, "series.lambda_enclosure")], certs), "call/cert")
        out["measure.scan.log_calls_per_height"] = (
            ratio(self.under[(SCAN, "enclosure.log_enclosure")], self.scan_heights),
            "call/height")
        for name in KEYED:
            out[f"{name}.repeat_share"] = (ratio(self.repeats[name], self.calls[name]), "ratio")
        out["cli.import_s"] = (
            statistics.median(self.import_s) if self.import_s else 0.0, "s")
        return out
