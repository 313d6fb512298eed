"""One OpenBLAS thread per CLI process (see the top of ffmoments.cli).

OpenBLAS starts its worker threads when numpy loads, and an idle worker
busy-polls before it sleeps, so a second thread shows as CPU time above wall
time.  Each test runs a fresh interpreter, since this one loaded numpy long
ago.  The thread count is read as perfbench/launch.py reads it, through the
``*_get_num_threads*`` symbol of the OpenBLAS in ``numpy.libs``."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = ROOT / "perfbench" / "launch.py"
SMOKE = ROOT / "configs" / "smoke_q3_d2.json"


def load_launch():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pytestmark = pytest.mark.skipif(
    load_launch()._blas()["threads"] is None,
    reason="numpy's BLAS is not an OpenBLAS in numpy.libs",
)

# Imports the package, then the CLI, then runs enumerate with --jobs 2 while
# each pool task logs its worker's pid and thread count.
PROBE = """
import importlib.util, json, os, sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("perfbench_launch", {launch!r})
launch = importlib.util.module_from_spec(spec)
spec.loader.exec_module(launch)
log = {log!r}


def reporting_task(payload):
    with open(log, "a") as fh:
        fh.write(f"{{os.getpid()}} {{launch._blas()['threads']}}\\n")
    return task(payload)


if __name__ == "__main__":
    import ffmoments

    numpy_after_package = "numpy" in sys.modules
    from ffmoments import cli

    task = cli._modulus_task
    cli._modulus_task = reporting_task
    argv = ["enumerate", "--config", {smoke!r}, "--out", {out!r}, "--jobs", "2"]
    code = cli.main(argv)
    workers = [line.split() for line in Path(log).read_text().splitlines()]
    print(json.dumps({{
        "numpy_after_package": numpy_after_package,
        "threads": launch._blas()["threads"],
        "code": code,
        "workers": {{pid: int(n) for pid, n in workers if int(pid) != os.getpid()}},
    }}))
"""


def fresh_env(**extra) -> dict:
    """This environment without a caller's thread pin, plus extra."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return {**env, **extra}


@pytest.mark.parametrize(
    "caller, threads",
    [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
    ids=["default", "caller-2"],
)
def test_cli_pins_one_blas_thread_unless_the_caller_sets_one(tmp_path, caller, threads):
    script, log = tmp_path / "probe.py", tmp_path / "workers.log"
    paths = {"launch": LAUNCH, "log": log, "smoke": SMOKE, "out": tmp_path / "out"}
    script.write_text(PROBE.format(**{k: str(v) for k, v in paths.items()}))
    done = subprocess.run(
        [sys.executable, str(script)],
        env=fresh_env(**caller),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout.splitlines()[-1])
    # the package stays free of numpy, so the CLI's pin runs before it loads
    assert probe["numpy_after_package"] is False
    assert probe["code"] == 0
    assert probe["threads"] == threads
    # the pool workers fork from the CLI and keep its thread count
    assert probe["workers"]
    assert set(probe["workers"].values()) == {threads}


def test_cli_process_uses_no_more_cpu_than_wall(tmp_path):
    # one thread cannot use more CPU than wall time; an OpenBLAS worker
    # spinning on a second core adds about 0.12 s to a run this short
    argv = [sys.executable, "-m", "ffmoments.cli", "enumerate"]
    argv += ["--config", str(SMOKE), "--out", str(tmp_path)]
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    started = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, fresh_env(), file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    assert os.waitstatus_to_exitcode(status) == 0
    assert usage.ru_utime + usage.ru_stime <= wall + 0.02
