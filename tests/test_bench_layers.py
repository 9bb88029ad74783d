"""Every function the traced benchmark wraps exists in its qforms module.

bench/tracer.py's install() calls getattr on each name in its LAYERS, so a
package function renamed or deleted would otherwise fail only the traced
benchmark runs, which tier-1 does not make.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracer  # noqa: E402


def test_every_traced_name_is_a_function_of_its_module():
    missing = [
        f"{module}.{name}"
        for module, names in tracer.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qforms.{module}"), name, None))
    ]
    assert tracer.FUNCTIONS and not missing, missing
