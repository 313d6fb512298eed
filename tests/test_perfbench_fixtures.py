"""Every regression row of the lfun-q3 and moments-q3 benchmark workloads
meets a recorded fixture, for the shipped input set and one variant.

A lookup of an unrecorded key passes its row with a blank constant, and the
benchmark reports it only as a drop in checks_recorded_ratio; this runs the
same configs in process, built by perfbench/run.py's variant_config."""

import importlib.util
import json
from pathlib import Path

import pytest

from ffmoments import cli
from ffmoments.report import FixtureChecker

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("variant", [0, 1])
@pytest.mark.parametrize("workload", ["lfun-q3", "moments-q3"])
def test_every_fixture_lookup_is_recorded(workload, variant, tmp_path, monkeypatch):
    run = load_run()
    [(command, name)] = run.WORKLOADS[workload]
    cfg, path = run.variant_config(workload, variant), run.INPUTS / name
    if cfg is not None:
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
    lookups, missing = [], []
    check = FixtureChecker.check

    def recording(self, key, value, *args, **kwargs):
        lookups.append(key)
        if key not in self.fixtures:
            missing.append(key)
        return check(self, key, value, *args, **kwargs)

    monkeypatch.setattr(FixtureChecker, "check", recording)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    assert lookups and missing == []
