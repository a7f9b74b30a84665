"""Every exported name and every function the benchmark traces resolves."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import stackstokes

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(stackstokes.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"stackstokes.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"stackstokes.{name}.__all__ names undefined {missing}"


def test_traced_functions_resolve():
    # the benchmark's tracer wraps these by name; a missing one breaks --trace 1
    targets = runpy.run_path(str(SPANS))["TARGETS"]
    assert targets
    for module_name, attr, *_ in targets:
        obj = importlib.import_module(f"stackstokes.{module_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"stackstokes.{module_name}.{attr} does not resolve"
            obj = getattr(obj, part)
        assert callable(obj)
