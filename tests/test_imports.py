"""Module boundaries: tlrsim modules talk to each other through public names,
and each subcommand imports only what it runs."""

import ast
import copy
import importlib
import io
import json
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import tlrsim
from tlrsim.config import DEFAULT_CONFIG

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


def layers_value(name: str):
    """A literal assigned at the top of perfbench/layers.py, read without importing it."""
    tree = ast.parse(LAYERS.read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    )


def modules_after(code: str) -> set[str]:
    """tlrsim modules loaded after running ``code`` in a fresh interpreter."""
    report = "import sys, json; print(json.dumps([m for m in sys.modules if m.startswith('tlrsim')]))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_perfbench_targets_resolve():
    # the benchmark tracer patches these names
    targets = layers_value("TARGETS")
    assert targets
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def propagator_calls_off_contract(source: str) -> list[int]:
    """Lines of ``propagator(...)`` calls that do not pass exactly two positional arguments."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "propagator"
        and (
            len(node.args) != 2
            or node.keywords
            or any(isinstance(arg, ast.Starred) for arg in node.args)
        )
    ]


def test_contract_check_sees_keyword_and_starred_calls():
    assert propagator_calls_off_contract("propagator(liou, t)\n") == []
    source = "propagator(liou, duration=t)\npropagator(*args)\nlindblad.propagator(liou)\n"
    assert propagator_calls_off_contract(source) == [1, 2, 3]


def test_propagator_calls_pass_liouvillian_and_duration_positionally():
    # the benchmark tracer reads args[0] and args[1] of every propagator call
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := propagator_calls_off_contract(path.read_text()))
    }
    assert offenders == {}


ROOT = PACKAGE.parents[1]

# public functions that no other module, script or benchmark layer calls,
# each kept on purpose
TEST_ONLY_EXPORTS = {
    "sweeps.read_config_comment": "documented re-ingestion of a CSV's embedded config",
}


def exported_functions(source: str) -> list[str]:
    """Names in a module's ``__all__`` that the module defines as functions."""
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [n.name for n in tree.body if isinstance(n, ast.FunctionDef) and n.name in exported]


def without_comments(source: str) -> str:
    """``source``'s code and string literals, its comments dropped."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return " ".join(t.string for t in tokens if t.type != tokenize.COMMENT)


def unused_exports(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function`` of each exported function that no other source names.

    ``modules`` maps a tlrsim module's name to its source; ``callers`` are
    the other sources (scripts, the benchmark tracer) that may name it.  A
    name counts in code or in a string literal (the tracer names its
    targets in strings), never in a comment.
    """
    found = []
    code = {name: without_comments(text) for name, text in modules.items()}
    callers = [without_comments(text) for text in callers]
    for module, source in modules.items():
        others = [text for name, text in code.items() if name != module] + callers
        for function in exported_functions(source):
            word = re.compile(rf"\b{function}\b")
            if not any(word.search(text) for text in others):
                found.append(f"{module}.{function}")
    return found


def package_sources() -> tuple[dict[str, str], list[str]]:
    modules = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    callers = [path.read_text() for path in [*(ROOT / "scripts").glob("*.py"), LAYERS]]
    return modules, callers


def test_unused_export_check_flags_a_test_only_function():
    modules, callers = package_sources()
    modules["planted"] = '__all__ = ["planted_helper"]\n\n\ndef planted_helper():\n    pass\n'
    assert "planted.planted_helper" in unused_exports(modules, callers)
    # a comment that names it is no caller; a string literal, as in the tracer's targets, is
    commented = callers + ["x = 1  # planted_helper against RK4\n"]
    assert "planted.planted_helper" in unused_exports(modules, commented)
    named = callers + ['TARGETS = (("tlrsim.planted", "planted_helper"),)\n']
    assert "planted.planted_helper" not in unused_exports(modules, named)


def test_no_public_function_only_tests_use():
    assert sorted(unused_exports(*package_sources())) == sorted(TEST_ONLY_EXPORTS)


def column_stacking_modules(modules: dict[str, str]) -> list[str]:
    """Names of the modules that pass ``order="F"``, the column-stacking reshape."""
    return sorted(
        name
        for name, source in modules.items()
        if any(
            isinstance(node, ast.keyword)
            and node.arg == "order"
            and getattr(node.value, "value", None) == "F"
            for node in ast.walk(ast.parse(source))
        )
    )


def test_column_stacking_check_flags_a_planted_module():
    modules = package_sources()[0]
    modules["planted"] = "import numpy as np\n\nv = np.eye(2).reshape(-1, order='F')\n"
    assert column_stacking_modules(modules) == ["lindblad", "planted"]


def test_only_lindblad_stacks_columns():
    # other modules apply a superoperator through lindblad.apply_superoperator
    assert column_stacking_modules(package_sources()[0]) == ["lindblad"]


def blas_pinning_files(sources: dict[str, str]) -> list[str]:
    """Names of the sources that name ``OPENBLAS_NUM_THREADS``, the BLAS thread pin."""
    return sorted(name for name, source in sources.items() if "OPENBLAS_NUM_THREADS" in source)


def front_end_sources() -> dict[str, str]:
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    return {path.relative_to(ROOT).as_posix(): path.read_text() for path in paths}


def test_blas_pin_check_flags_a_planted_script():
    sources = front_end_sources()
    sources["scripts/planted.py"] = 'import os\n\nos.environ["OPENBLAS_NUM_THREADS"] = "1"\n'
    assert blas_pinning_files(sources) == ["scripts/planted.py", "src/tlrsim/cli.py"]


def test_only_the_cli_pins_blas_threads():
    # the figure script imports tlrsim.cli first and runs on its pin
    assert blas_pinning_files(front_end_sources()) == ["src/tlrsim/cli.py"]


def test_cli_import_loads_every_module_perfbench_times():
    # the benchmark reads each module's cumulative time from `-X importtime -c "import tlrsim.cli"`
    timed = set(layers_value("IMPORT_MODULES").values())
    assert timed
    assert timed - modules_after("import tlrsim.cli") == set()


@pytest.mark.parametrize(
    "command, unused",
    [
        ("params", {"tlrsim.sweeps", "tlrsim.protocols", "tlrsim.validate"}),
        ("detector", {"tlrsim.protocols", "tlrsim.validate"}),
        ("transfer-error", {"tlrsim.validate"}),
        ("cphase-error", {"tlrsim.validate"}),
    ],
)
def test_subcommand_loads_only_what_it_runs(tmp_path, command, unused):
    out = tmp_path / "out.txt"
    loaded = modules_after(
        f"import tlrsim.cli\nassert tlrsim.cli.main([{command!r}, '--out', {str(out)!r}]) == 0"
    )
    assert out.read_text()
    assert loaded & unused == set()


# defaulted parameters and dataclass fields that no src/, scripts/ or
# benchmark-layer call passes, each kept on purpose (cli.main's argv needs
# no entry: perfbench/layers.py passes it)
UNPASSED_OPTIONS: dict[str, str] = {}

# the default device is written once, in the rows of config._LEAVES
NO_DEFAULT_FIELDS = {"TlrParams", "FjsParams", "DetectorParams", "CphaseSpec"}

ALL = 1 << 30  # positional count of a call with a starred argument


def decorated(node, name: str) -> bool:
    """Whether ``node`` carries the decorator ``name`` or ``name(...)``."""
    return any(getattr(getattr(d, "func", d), "id", None) == name for d in node.decorator_list)


def defaulted_options(source: str) -> list[tuple[str, str, int | None]]:
    """(callee, name, position) of each defaulted parameter or dataclass field.

    ``callee`` is the name a call uses: the function's, or the class's for
    a dataclass field or an ``__init__`` parameter.  ``position`` counts
    positional arguments (self and cls excluded); None marks keyword-only.
    """
    found = []
    owners = {}  # method node -> its class
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            owners.update((item, node) for item in node.body)
            if decorated(node, "dataclass"):
                fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
                found += [
                    (node.name, f.target.id, i) for i, f in enumerate(fields) if f.value is not None
                ]
        elif isinstance(node, ast.FunctionDef):
            owner = owners.get(node)
            callee = owner.name if owner and node.name == "__init__" else node.name
            positional = [*node.args.posonlyargs, *node.args.args]
            if owner and not decorated(node, "staticmethod"):
                positional = positional[1:]
            first = len(positional) - len(node.args.defaults)
            found += [(callee, a.arg, i) for i, a in enumerate(positional) if i >= first]
            found += [
                (callee, a.arg, None)
                for a, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None
            ]
    return found


def passed_arguments(sources: list[str]) -> dict[str, tuple[int, set[str]]]:
    """Per callee name, the most positional arguments any call passes and every keyword.

    ``cls(...)`` inside a classmethod is a call to its class.  A starred
    argument passes every position, and ``**mapping`` every keyword ("**").
    """
    calls: dict[str, tuple[int, set[str]]] = {}
    for source in sources:
        tree = ast.parse(source)
        classes = {}  # cls(...) call node -> the class of its classmethod
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and decorated(item, "classmethod"):
                        cls = item.args.args[0].arg
                        for call in ast.walk(item):
                            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == cls:
                                classes[call] = node.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = classes.get(node) or getattr(node.func, "id", getattr(node.func, "attr", None))
            count = ALL if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            keywords = {"**" if k.arg is None else k.arg for k in node.keywords}
            most, names = calls.get(name, (0, set()))
            calls[name] = (max(most, count), names | keywords)
    return calls


def unpassed_options(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.callee.name`` of each defaulted option that no source passes."""
    calls = passed_arguments([*modules.values(), *callers])
    found = []
    for module, source in modules.items():
        for callee, name, position in defaulted_options(source):
            most, keywords = calls.get(callee, (0, set()))
            if not ((position is not None and most > position) or keywords & {name, "**"}):
                found.append(f"{module}.{callee}.{name}")
    return found


def test_option_check_counts_positions_keywords_and_cls():
    source = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2):\n    pass\n"
        "@dataclass\nclass Spec:\n    x: float\n    y: float = 0.0\n"
        "    @classmethod\n    def make(cls):\n        return cls(1.0, 2.0)\n"
        "f(0, 1)\n"
    )
    assert unpassed_options({"m": source}, []) == ["m.f.c"]
    assert unpassed_options({"m": source}, ["f(0, c=3)\n"]) == []
    assert unpassed_options({"m": source}, ["f(**options)\n"]) == []


def test_option_check_flags_a_test_only_option():
    modules, callers = package_sources()
    # the module's own call passes x alone; only a test would set verbose
    planted = "def planted_helper(x, verbose=False):\n    return x\n\n\nplanted_helper(1)\n"
    modules["planted"] = planted
    assert "planted.planted_helper.verbose" in unpassed_options(modules, callers)


def test_no_option_only_tests_set():
    assert sorted(unpassed_options(*package_sources())) == sorted(UNPASSED_OPTIONS)


def test_default_device_records_declare_no_field_defaults():
    modules = package_sources()[0]
    defaulted = {callee for source in modules.values() for callee, *_ in defaulted_options(source)}
    assert defaulted & NO_DEFAULT_FIELDS == set()


def config_leaves(tree: dict, prefix: tuple = ()):
    """Key path of each leaf of a config tree."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from config_leaves(value, (*prefix, key))
        else:
            yield (*prefix, key)


def string_literals(source: str) -> set[str]:
    """String constants of ``source``, except inside a literal ``DEFAULT_CONFIG`` definition.

    ``config._LEAVES`` names each default by its dotted path, one string
    that names no key and section on its own, so the table reads no leaf.
    """
    tree = ast.parse(source)
    skipped = {
        id(inner)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "DEFAULT_CONFIG" for t in node.targets)
        for inner in ast.walk(node)
    }
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in skipped
    }


def unread_leaves(defaults: dict, sources: list[str]) -> list[str]:
    """Dotted path of each leaf whose key and section no one source names.

    A read names both, as ``config["noise"]["seed"]`` or ``sec =
    config["device"]["tlr"]; sec["inductance_h"]`` do; the defaults'
    own definition and dotted range paths such as ``"noise.seed"`` do not.
    """
    names = [string_literals(source) for source in sources]
    return [
        ".".join(path)
        for path in config_leaves(defaults)
        if not any(set(path[-2:]) <= found for found in names)
    ]


def config_readers() -> list[str]:
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    return [path.read_text() for path in paths]


def test_unread_leaf_check_flags_a_planted_knob():
    defaults = copy.deepcopy(DEFAULT_CONFIG)
    defaults["noise"]["planted_knob_hz"] = 1.0
    assert unread_leaves(defaults, config_readers()) == ["noise.planted_knob_hz"]


def test_every_config_leaf_is_read():
    assert unread_leaves(DEFAULT_CONFIG, config_readers()) == []
