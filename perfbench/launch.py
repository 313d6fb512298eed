"""Run one ffmoments CLI command in this process and write its run statistics.

    python3 launch.py [--spans SPANS_NPZ] STATS_JSON -- <ffmoments arguments>
    python3 launch.py --machine

The command runs through ``ffmoments.cli.main`` exactly as the ``ffmoments``
entry point runs it. Regression-fixture lookups are always counted, by
wrapping ``report.FixtureChecker.check``, so that a row compared against no
recorded fixture shows. With ``--spans`` the layer tracer is installed too
and its spans are written out after the command returns. The exit code is
the command's. ``--machine`` prints the machine block instead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
import time
from pathlib import Path

# Environment variables that pin BLAS threads or the kernel backend.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FFMOMENTS_KERNELS")


def _blas() -> dict:
    """Name, version and thread count of the BLAS numpy loaded."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        handle = ctypes.CDLL(libs[0])
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def machine() -> dict:
    import numpy as np

    import ffmoments

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "backend": ffmoments.BACKEND,
        "package": os.path.relpath(Path(ffmoments.__file__).parent),
        "env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def main() -> int:
    if sys.argv[1:] == ["--machine"]:
        print(json.dumps(machine(), sort_keys=True))
        return 0
    parser = argparse.ArgumentParser()
    parser.add_argument("stats", type=Path)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from ffmoments import cli, report

    lookups = unrecorded = 0
    check = report.FixtureChecker.check

    def counting_check(self, key, value, *rest, **kwargs):
        nonlocal lookups, unrecorded
        lookups += 1
        unrecorded += key not in self.fixtures
        return check(self, key, value, *rest, **kwargs)

    report.FixtureChecker.check = counting_check

    tracer = None
    if args.spans is not None:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    started = time.perf_counter()
    code = cli.main(argv)
    if tracer is not None:
        tracer.dump(args.spans, time.perf_counter() - started)
    args.stats.write_text(
        json.dumps({"fixture_lookups": lookups, "fixture_unrecorded": unrecorded})
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
