"""Every regression row of the lfun-q3 and moments-q3 benchmark workloads
meets a recorded fixture, for the shipped input set and one variant.

A row whose fixture key is not recorded fails, so the run exits 0 only when
every lookup met a recorded constant; this runs the same configs in process,
built by perfbench/run.py's variant_config."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from ffmoments import cli

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
REPORTS = {"lfun": "lfun.csv", "moments": "moments_checks.csv"}


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("variant", [0, 1])
@pytest.mark.parametrize("workload", ["lfun-q3", "moments-q3"])
def test_every_fixture_lookup_is_recorded(workload, variant, tmp_path):
    run = load_run()
    [(command, name)] = run.WORKLOADS[workload]
    cfg, path = run.variant_config(workload, variant), run.INPUTS / name
    if cfg is not None:
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    # the family rows, subject "q=.., d(Q)=..", are the fixture rows
    with (out / REPORTS[command]).open() as fh:
        family = [r for r in csv.DictReader(fh) if r["subject"].startswith("q=")]
    assert family and all(r["constant"] for r in family)
