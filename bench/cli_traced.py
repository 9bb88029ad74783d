"""``python -m qforms.cli`` with span tracing, for the traced cli workload.

Usage: python3 bench/cli_traced.py TRACE_DIR <qforms cli arguments...>

Imports the CLI (timing the import), installs the span wrappers, runs
``qforms.cli.main`` with the given arguments and writes the spans to
TRACE_DIR/spans-<pid>.jsonl, also when the CLI raises.
"""

import os
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tracing  # noqa: E402

trace_dir, argv = sys.argv[1], sys.argv[2:]
t0 = perf_counter()
import qforms.cli  # noqa: E402

import_s = perf_counter() - t0
tracer = tracing.install()
try:
    code = qforms.cli.main(argv)
finally:
    tracer.dump(Path(trace_dir) / f"spans-{os.getpid()}.jsonl", import_s)
raise SystemExit(code)
