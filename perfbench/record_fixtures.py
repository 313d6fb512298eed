#!/usr/bin/env python3
"""Record the regression fixtures of the benchmark's non-default input sets.

    python3 perfbench/record_fixtures.py

Runs every non-default input set of lfun-q3 and moments-q3 once with
``--record`` and writes the measured constants to ``perfbench/fixtures.json``;
the package's own fixtures are never written. The benchmark points those input
sets at this file, so none of their regression rows goes unrecorded. Rerun it
only when the workload inputs change, on the commit whose results should
become the reference.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import FIXTURES, ROOT, VARIANTS, WORKLOADS, child_env, variant_config


def main() -> int:
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
    try:
        recorded = work / "fixtures.json"
        for workload in ("lfun-q3", "moments-q3"):
            command = WORKLOADS[workload][0][0]
            for variant in range(1, VARIANTS):
                cfg = variant_config(workload, variant)
                cfg["fixtures"] = str(recorded)
                config = work / f"{workload}-{variant}.json"
                config.write_text(json.dumps(cfg, indent=1))
                proc = subprocess.run(
                    [
                        sys.executable, "-m", "ffmoments.cli", command,
                        "--config", str(config), "--out", str(work / "out"),
                        "--jobs", "1", "--record",
                    ],
                    cwd=ROOT,
                    env=child_env(),
                )
                print(f"{workload} input set {variant}: exit {proc.returncode}", flush=True)
                if proc.returncode != 0:
                    return 1
        shutil.copyfile(recorded, FIXTURES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
