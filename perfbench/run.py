#!/usr/bin/env python3
"""End-to-end benchmark of the ffmoments CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the package from ``src/``
and needs no build. A workload run is a fixed sequence of fresh, serial
``ffmoments`` processes (``--jobs 1``, the caller's environment, BLAS threads
unpinned) that write their reports to a temporary directory under the
checkout; it is removed when the benchmark exits.

With ``--trace 0`` the workload runs at least once, and again while the next
run is expected to end within ``--seconds`` of the first start and before the
kill deadline (see ``RUN_LIMIT_S``). It reports the end-to-end metrics:
medians of wall time, CPU time and peak RSS per workload run, the median of
several fresh-interpreter set-up probes, the check-row pass ratio and the
share of regression rows that met a recorded fixture. With ``--trace 1`` it runs the workload once, traced, and reports
the per-layer metrics (see ``layers.py``).

Every run is gated: each process exits 0, writes its check report, every
check row passes, and the package's regression fixtures are byte-identical
afterwards. ``--record`` is never passed. The last line of standard output
is the JSON result; the machine block is printed on the line before it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "workloads"
FIXTURES = HERE / "fixtures.json"
SHIPPED_FIXTURES = ROOT / "src" / "ffmoments" / "fixtures" / "regression.json"

# Each workload is a sequence of (subcommand, config file in INPUTS).
WORKLOADS = {
    "lfun-q3": [("lfun", "lfun_q3_d3.json")],
    "moments-q3": [("moments", "moments_q3.json")],
    "primes": [
        ("enumerate", "primes_q2.json"),
        ("enumerate", "primes_q3.json"),
        ("enumerate", "primes_q5.json"),
        ("primesums", "primesums_all.json"),
    ],
}
# The seed picks one of this many input sets; set 0 is the shipped config
# and the others have their regression fixtures recorded in FIXTURES.
VARIANTS = 8
SETUP_SAMPLES = 9
# Every process is killed this long after the benchmark started, or
# --seconds plus RUN_MARGIN_S after it if that is later.
RUN_LIMIT_S = 170.0
RUN_MARGIN_S = 60.0

CHECK_COLUMNS = ["anchor", "subject", "params", "value", "constant", "status"]
SETUP_PROBE = (
    "import sys\n"
    "import ffmoments.cli\n"
    "from ffmoments.config import load_config\n"
    "for path in sys.argv[1:]:\n"
    "    load_config(path)\n"
)

# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def variant_config(workload: str, variant: int) -> dict | None:
    """The config of input set ``variant``, or None for the shipped config.

    lfun-q3 redraws the t-values of its second shift spec; moments-q3 moves
    its shift-spec and Perron seeds. primes has no seeded input."""
    if variant == 0 or workload == "primes":
        return None
    cfg = json.loads((INPUTS / WORKLOADS[workload][0][1]).read_text())
    if workload == "lfun-q3":
        rng = random.Random(variant)
        period = 2 * math.pi / math.log(cfg["q"])
        cfg["shift_specs"][1]["t"] = [round(rng.uniform(0.0, period), 4) for _ in range(4)]
    else:
        cfg["shift_specs"]["random"]["seed"] += variant
        cfg["perron"]["seed"] += variant
    cfg["fixtures"] = str(FIXTURES)
    return cfg


def workload_steps(workload: str, seed: int, work: Path) -> list[tuple[str, Path]]:
    cfg = variant_config(workload, seed % VARIANTS)
    if cfg is None:
        return [(command, INPUTS / name) for command, name in WORKLOADS[workload]]
    path = work / WORKLOADS[workload][0][1]
    path.write_text(json.dumps(cfg, indent=1))
    return [(WORKLOADS[workload][0][0], path)]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


class TimeLimit(Exception):
    """A process was killed at the deadline; it says nothing of correctness."""


def wait_usage(proc: subprocess.Popen, deadline: float):
    """Reap proc, killing it at the deadline; (exit code, rusage).

    Raises TimeLimit if the deadline killed it."""
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed.is_set():
        raise TimeLimit("a benchmark process was killed at the time limit")
    return proc.returncode, usage


def setup_seconds(configs: list[Path], deadline: float) -> float:
    """Wall time of a fresh interpreter importing the CLI and loading the
    workload's configs."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, *map(str, configs)],
        cwd=ROOT,
        env=child_env(),
    )
    code, _ = wait_usage(proc, deadline)
    elapsed = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed


def check_rows(out: Path) -> tuple[int, int]:
    """(check rows, failed check rows) over the check CSVs in out."""
    attempted = failed = 0
    for path in sorted(out.glob("*.csv")):
        with path.open(newline="") as fh:
            rows = csv.reader(fh)
            if next(rows, None) != CHECK_COLUMNS:
                continue
            for row in rows:
                attempted += 1
                failed += row[-1] != "pass"
    return attempted, failed


def workload_run(steps, work: Path, deadline: float, trace: bool = False) -> dict:
    """One run of every step of a workload, each in a fresh process."""
    work.mkdir(parents=True)
    run = {
        "wall_s": 0.0,
        "cpu_s": 0.0,
        "peak_rss_mb": 0.0,
        "attempted": 0,
        "failed": 0,
        "ok": True,
        "fixture_lookups": 0,
        "fixture_unrecorded": 0,
        "spans": [],
    }
    for i, (command, config) in enumerate(steps):
        out, stats = work / f"out{i}", work / f"stats{i}.json"
        argv = [sys.executable, str(HERE / "launch.py")]
        if trace:
            run["spans"].append(work / f"spans{i}.npz")
            argv += ["--spans", str(run["spans"][-1])]
        argv += [str(stats), "--", command, "--config", str(config), "--out", str(out), "--jobs", "1"]
        with (work / f"log{i}.txt").open("wb") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT
            )
            code, usage = wait_usage(proc, deadline)
            run["wall_s"] += time.perf_counter() - started
        run["cpu_s"] += usage.ru_utime + usage.ru_stime
        run["peak_rss_mb"] = max(run["peak_rss_mb"], usage.ru_maxrss / 1024)
        attempted, failed = check_rows(out)
        if code != 0 or attempted == 0 or not stats.exists():
            run["ok"] = False
            failed = attempted = max(attempted, 1)
            tail = (work / f"log{i}.txt").read_text(errors="replace")[-2000:]
            print(f"step {i} ({command}) failed with exit {code}:\n{tail}", file=sys.stderr)
        else:
            info = json.loads(stats.read_text())
            run["fixture_lookups"] += info["fixture_lookups"]
            run["fixture_unrecorded"] += info["fixture_unrecorded"]
        run["attempted"] += attempted
        run["failed"] += failed
        shutil.rmtree(out, ignore_errors=True)
    return run


def machine(deadline: float) -> dict | None:
    """The machine block, from a separate process so no run pays for it."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), "--machine"],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
    )
    out = proc.stdout.read()
    code, _ = wait_usage(proc, deadline)
    proc.stdout.close()
    return json.loads(out) if code == 0 else None


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(runs: list[dict], setup: list[float]) -> dict:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    lookups = sum(r["fixture_lookups"] for r in runs)
    unrecorded = sum(r["fixture_unrecorded"] for r in runs)
    all_ok = all(r["ok"] for r in runs)
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "check_pass_ratio": ((attempted - failed) / attempted if all_ok else 0.0, "ratio"),
        "checks_recorded_ratio": ((lookups - unrecorded) / lookups if lookups else 0.0, "ratio"),
    }


def per_layer(traced: dict) -> dict:
    from layers import summarize

    metrics, top_s, main_s = summarize(traced["spans"])
    metrics["report.fixture_checks"] = (traced["fixture_lookups"], "count")
    metrics["report.fixture_unrecorded"] = (traced["fixture_unrecorded"], "count")
    metrics["cli.glue_s"] = (main_s - top_s, "s")
    metrics["cli.startup_s"] = (traced["wall_s"] - main_s, "s")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ffmoments" / "cli.py").is_file():
        print(f"no ffmoments source tree under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + max(RUN_LIMIT_S, args.seconds + RUN_MARGIN_S)
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        guarded = {p: digest(p) for p in (SHIPPED_FIXTURES, FIXTURES)}
        steps = workload_steps(args.workload, args.seed, work)
        if args.trace:
            runs = [workload_run(steps, work / "traced", deadline, trace=True)]
            metrics = per_layer(runs[0]) if runs[0]["ok"] else {}
        else:
            setup = [
                setup_seconds([c for _, c in steps], deadline)
                for _ in range(SETUP_SAMPLES)
            ]
            runs = []
            started = time.monotonic()
            while True:
                try:
                    runs.append(workload_run(steps, work / f"run{len(runs)}", deadline))
                except TimeLimit:
                    # A repeat ran longer than the one before it; keep the
                    # finished runs.
                    if not runs:
                        raise
                    break
                last = runs[-1]
                now = time.monotonic()
                if (
                    not last["ok"]
                    or now - started + last["wall_s"] > args.seconds
                    or now + last["wall_s"] > deadline
                ):
                    break
            metrics = end_to_end(runs, setup)
        machine_block = machine(deadline)
        fixtures_intact = all(digest(p) == d for p, d in guarded.items())
        if not fixtures_intact:
            print("regression fixtures changed during the run", file=sys.stderr)
    except TimeLimit as exc:
        print(f"no result: {exc} before a measurement finished", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    correct = fixtures_intact and all(r["ok"] for r in runs)
    print(
        f"workload={args.workload} seed={args.seed} input_set={args.seed % VARIANTS} "
        f"runs={len(runs)} setup_samples={0 if args.trace else SETUP_SAMPLES}"
    )
    print("machine: " + json.dumps(machine_block, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
