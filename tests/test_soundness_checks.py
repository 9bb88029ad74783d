"""Soundness checks must not depend on assert, which python -O strips."""

import ast
import subprocess
import sys

from conftest import SRC, subprocess_env

CORRUPTED_W_FORM = """
from fractions import Fraction as F
from qforms import validate_spec
from qforms.forms import w_form

spec = validate_spec(3, 2, [0, F(1, 3), 1], [(F(5, 7), 2)])  # FIX-D
spec.__dict__["clearing_D"] = 1  # plant the memo; the true clearing denominator is 42
try:
    w_form(spec, 1, 2)
except AssertionError as exc:
    print(exc)
    raise SystemExit(0)
raise SystemExit("w_form returned a non-integral form without raising")
"""


def test_w_form_integrality_check_survives_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_W_FORM],
        capture_output=True, text=True, env=subprocess_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "is not integral" in proc.stdout


def test_package_has_no_assert_statements():
    offenders = []
    for path in sorted((SRC / "qforms").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == [], f"assert statements vanish under python -O: {offenders}"


def test_package_imports_no_private_names_across_modules():
    offenders = []
    for path in sorted((SRC / "qforms").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            internal = isinstance(node, ast.ImportFrom) and (
                node.level or node.module.startswith("qforms")
            )
            if internal:
                offenders += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == [], f"private names imported from another qforms module: {offenders}"


def _calls_by_function(path):
    """(qualified name of the enclosing def, call node) for every call in path."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from walk(child, f"{scope}.{child.name}")
            else:
                if isinstance(child, ast.Call):
                    yield scope, child
                yield from walk(child, scope)

    return walk(ast.parse(path.read_text(), filename=str(path)), path.stem)


def test_only_refine_climbs_the_ladder():
    callers = {
        scope
        for path in sorted((SRC / "qforms").rglob("*.py"))
        for scope, call in _calls_by_function(path)
        if isinstance(call.func, ast.Attribute) and call.func.attr == "ladder"
    }
    assert callers == {"util.PrecisionPolicy.refine"}


def test_every_identity_check_reads_the_spec():
    # a check that takes no spec tests nothing the spec builds
    tree = ast.parse((SRC / "qforms" / "verifier.py").read_text())
    firsts = {
        node.name: node.args.args[0].arg if node.args.args else None
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_")
    }
    assert firsts, "no _check_* functions found in verifier.py"
    assert {name: arg for name, arg in firsts.items() if arg != "spec"} == {}


def test_every_public_name_is_read_in_the_package_or_exported():
    # a public function or class member that no module reads and __all__
    # does not export is API that only tests keep alive
    import qforms

    defined, read = [], set()
    for path in sorted((SRC / "qforms").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((node.name, f"{path.stem}.{node.name}"))
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        names = [member.name]
                    elif isinstance(member, ast.AnnAssign):
                        names = [member.target.id]
                    elif isinstance(member, ast.Assign):
                        names = [t.id for t in member.targets if isinstance(t, ast.Name)]
                    else:
                        names = []
                    defined += [(name, f"{path.stem}.{node.name}.{name}") for name in names]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.asname or node.name)
    unread = [
        where for name, where in defined
        if not name.startswith("_") and name not in read and name not in qforms.__all__
    ]
    assert unread == [], f"public names nothing in src/qforms reads: {unread}"


def test_every_mutant_record_applies_once_and_names_existing_tests():
    # tests/mutants.py plants each fault by one text substitution; a record
    # whose old text moved or multiplied, or whose tests were renamed, would
    # silently stop guarding anything
    from mutants import MUTANTS

    tests_dir = SRC.parent / "tests"
    for file, old, new, test_ids in MUTANTS:
        assert old != new and (SRC / "qforms" / file).read_text().count(old) == 1, (file, old)
        for test_id in test_ids:
            path, *names = test_id.split("::")
            text = (SRC.parent / path).read_text()
            assert (SRC.parent / path).parent == tests_dir, test_id
            for name in names:
                assert f"def {name}(" in text or f"class {name}" in text, test_id
