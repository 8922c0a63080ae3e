"""Module boundaries: tlrsim modules talk to each other through public names."""

import ast
import importlib
from pathlib import Path

import tlrsim

PACKAGE = Path(tlrsim.__file__).parent
LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def private_imports(source: str) -> list[tuple[int, str, str]]:
    """(line, module, name) of each underscore name imported from a tlrsim module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "tlrsim"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append((node.lineno, node.module or ".", alias.name))
    return found


def test_detector_sees_private_imports():
    source = "from .protocols import _cphase_schedule, cphase_space\nfrom os import _exit\n"
    assert private_imports(source) == [(1, "protocols", "_cphase_schedule")]
    assert private_imports("from tlrsim.lindblad import _pade\n") == [
        (1, "tlrsim.lindblad", "_pade")
    ]


def test_no_module_imports_private_names_of_another():
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if (hits := private_imports(path.read_text()))
    }
    assert offenders == {}


def test_perfbench_targets_resolve():
    # the benchmark tracer patches these names; read them without importing it
    tree = ast.parse(LAYERS.read_text())
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    )
    assert targets
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
