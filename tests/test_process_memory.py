"""Peak resident memory of a whole CLI process, read with os.wait4.

A process's ru_maxrss holds the interpreter, numpy and the package as well
as the work, so a deep run is compared with a shallow run of the same
command in a fresh process: the difference is what the work itself adds."""

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRIMES_Q2 = ROOT / "perfbench" / "workloads" / "primes_q2.json"


def peak_rss_kib(argv: list[str]) -> int:
    """ru_maxrss (KiB) of a fresh python running argv; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss


def test_enumerate_sieve_adds_little_to_the_process_peak(tmp_path):
    # enumerate at q = 2 counts the primes of every degree up to log2
    # max_enum by sieving: to degree 21 the sieve may add at most 1.5 MB
    # (1536 KiB) to the peak of the same run to degree 10.  Steps of 2^17
    # products and segments of 2^20 monics added about 4.2 MB.
    cfg = json.loads(PRIMES_Q2.read_text())
    peaks = []
    for max_enum in (1 << 21, 1 << 10):
        path = tmp_path / f"primes_{max_enum}.json"
        path.write_text(json.dumps({**cfg, "budget": {**cfg["budget"], "max_enum": max_enum}}))
        argv = ["-m", "ffmoments.cli", "enumerate", "--config", str(path)]
        peaks.append(peak_rss_kib(argv + ["--out", str(tmp_path / f"out_{max_enum}")]))
    deep, shallow = peaks
    assert deep - shallow <= 1536
