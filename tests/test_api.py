"""Public API guard: every exported name resolves, and the public entry
points that callers, tests and the benchmark's span tracer reach by name
stay exported."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import extlift

MODULES = sorted(m.name for m in pkgutil.iter_modules(extlift.__path__))

# reached by name: tests import them, the tracer wraps the cocycle and
# witness names, and the command line builds its reports from these
WELLS_NAMES = ("wells_cocycle_theta", "wells_cocycle_phi", "wells_cocycle_pair",
               "lambda1", "lambda2", "lambda_pair", "extend_automorphism",
               "lift_automorphism", "lift_pair", "triple_of",
               "automorphism_from_triple", "verify_exactness")
REPORT_NAMES = ("extend_report", "lift_report", "pair_report", "split_report",
                "sylow_mode_report", "verify_report")


def _module(name):
    # the package re-exports the function catalog() under its module's name
    return importlib.import_module(f"extlift.{name}")


def test_package_exports_resolve():
    assert len(extlift.__all__) == len(set(extlift.__all__))
    missing = [n for n in extlift.__all__ if not hasattr(extlift, n)]
    assert missing == []
    namespace: dict = {}
    exec("from extlift import *", namespace)
    assert set(extlift.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = _module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(module, n)] == [], name


def test_wrapped_entry_points_stay_exported():
    wells = _module("wells")
    for name in WELLS_NAMES:
        assert name in wells.__all__ and name in extlift.__all__, name
        assert callable(getattr(extlift, name)), name
        assert getattr(extlift, name) is getattr(wells, name), name
    reports = _module("reports")
    for name in REPORT_NAMES:
        assert callable(getattr(reports, name)), name
    assert "generating_set" in extlift.__all__


def _span_targets():
    """TARGETS of the benchmark's span tracer, loaded from its file alone."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_traced_names_resolve():
    """Every (layer, module, attribute) the tracer wraps names a callable of
    extlift, so dropping a traced name fails here and not only in a traced
    benchmark run."""
    targets = _span_targets()
    assert targets
    for layer, module, attr in targets:
        owner = _module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), (layer, module, attr)


def test_no_check_option_and_one_cochain_class():
    """Automorphisms and homomorphisms are always checked (a proven image
    goes through GroupAutomorphism._trusted), and the commutator form is a
    2-cochain, not a second cochain class."""
    groups, splitting = _module("groups"), _module("splitting")
    for cls in (groups.GroupAutomorphism, groups.GroupHomomorphism):
        assert "check" not in inspect.signature(cls).parameters, cls
    assert issubclass(splitting.CommutatorForm, _module("cohomology").TwoCochain)


def _unused_imports(path: Path) -> list[str]:
    """Names the module at path imports but neither uses nor lists in
    __all__ (a star import binds no name and is not checked)."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = extlift if path.stem == "__init__" else _module(path.stem)
    exported = set(getattr(module, "__all__", ()))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used | exported]


@pytest.mark.parametrize("path", sorted(Path(extlift.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_no_stale_imports(path):
    """Every name a module imports is used there or re-exported."""
    assert _unused_imports(path) == []
