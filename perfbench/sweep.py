#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric by name.

    python3 perfbench/sweep.py [--out RESULTS_JSON]

For each workload of BENCHMARK.json it runs ``run.py`` untraced once per seed
0-9, then traced once on seed 0, all with BENCHMARK.json's ``run_seconds``. It
prints each end-to-end metric with its unit, median, quartiles, sample count
and spread (quartile distance over the median, against the metric's bound),
and each per-layer metric of the traced runs, with the tracing overhead:
traced wall time minus the median untraced ``wall_s``. ``--out`` writes the same figures and
the machine block as JSON. The exit code is 1 when any run fails its
correctness gate, exits non-zero or prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(10))
TRACE_SEEDS = [0]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict | None, dict | None]:
    """(result, machine block) of one benchmark run; result None on failure."""
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    machine = next(
        (json.loads(line[len("machine: "):]) for line in lines if line.startswith("machine: ")),
        None,
    )
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, machine
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
    return result, machine


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layer_names = [m["name"] for m in spec["per_layer"]]
    failures = 0
    machine = None
    report: dict = {"run_seconds": seconds, "workloads": {}}

    for workload in workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in SEEDS:
            result, machine = run_once(workload, seed, seconds, 0)
            if result is None or not result["correct"]:
                failures += 1
                print(f"{workload} seed {seed}: FAILED", flush=True)
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        e2e = {}
        print(f"\n{workload}: end-to-end over seeds {SEEDS[0]}-{SEEDS[-1]}")
        print(f"  {'metric':<24}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}{'spread':>9}{'bound':>7}")
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            e2e[name] = {
                "unit": units[name], "median": med, "q1": q1, "q3": q3,
                "n": len(vals), "spread": spread, "values": vals,
            }
            print(
                f"  {name:<24}{units[name]:<7}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                f"{len(vals):>4}{spread:>9.4f}{bounds.get(name, float('nan')):>7}"
            )
        layers = []
        for seed in TRACE_SEEDS:
            result, machine = run_once(workload, seed, seconds, 1)
            if result is None or not result["correct"]:
                failures += 1
                print(f"{workload} traced seed {seed}: FAILED", flush=True)
                continue
            missing = set(layer_names) ^ set(result["metrics"])
            if missing:
                failures += 1
                print(f"{workload} traced seed {seed}: metric names differ from BENCHMARK.json: {sorted(missing)}")
            overhead = None
            if "wall_s" in e2e and "trace.wall_s" in result["metrics"]:
                overhead = result["metrics"]["trace.wall_s"]["value"] - e2e["wall_s"]["median"]
            layers.append({"seed": seed, "metrics": result["metrics"], "trace.overhead_s": overhead})
            print(f"\n{workload}: per-layer, traced seed {seed}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<36}{metric['unit']:<7}{metric['value']:>16.6g}")
            if overhead is not None:
                print(f"  {'trace.overhead_s':<36}{'s':<7}{overhead:>16.6g}")
        report["workloads"][workload] = {"seeds": SEEDS, "end_to_end": e2e, "traced": layers}
        sys.stdout.flush()

    report["machine"] = machine
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if failures:
        print(f"\n{failures} run(s) failed their correctness gate")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
