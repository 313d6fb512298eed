"""Every package name the benchmark uses from outside the package still exists.

perfbench/layers.py wraps functions by name, and a missing name makes the
traced benchmark run fail; this reads its tables without installing the
tracer.  perfbench/launch.py runs every benchmark command, traced or not,
through ``cli.main``, records ``ffmoments.BACKEND``, and counts fixture
lookups by wrapping ``report.FixtureChecker.check`` and reading the checker's
``fixtures`` dict."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import ffmoments
from ffmoments import cli, report

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ROOT / "perfbench" / "layers.py"


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


def test_untraced_names_resolve(tmp_path, monkeypatch):
    assert isinstance(ffmoments.BACKEND, str)
    check = report.FixtureChecker.check
    assert list(inspect.signature(check).parameters)[:3] == ["self", "key", "value"]
    lookups = []

    # the shape of launch.py's wrapper: tolerances by keyword only
    def counting_check(self, key, value, **tol):
        lookups.append(key in self.fixtures)
        return check(self, key, value, **tol)

    monkeypatch.setattr(report.FixtureChecker, "check", counting_check)
    config = str(ROOT / "configs" / "smoke_q3_d2.json")
    assert cli.main(["all", "--config", config, "--out", str(tmp_path)]) == 0
    assert len(lookups) > 10 and all(lookups)
