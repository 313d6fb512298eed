"""Every package name the benchmark tracer patches still exists.

perfbench/layers.py wraps functions by name from outside the package, and a
missing name makes the traced benchmark run fail; this reads its tables
without installing the tracer."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, name: str):
    obj = importlib.import_module(f"ffmoments.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def test_traced_names_resolve():
    layers = load_layers()
    names = [(m, n) for m, fns, _ in layers.SPANNED.values() for n in fns]
    names += list(layers.COUNTED.values())
    assert len(names) > 20
    for module, name in names:
        assert callable(resolve(module, name)), f"ffmoments.{module}.{name}"
