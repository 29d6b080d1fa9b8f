"""Peak memory of ``nlops selftest`` in fresh processes, printed as one JSON object.

    python3 tools/bench_footprint.py

Measures the checkout this file is in; to measure another, copy this file
into that checkout's ``tools/`` and run it there.  Each of RUNS fresh
processes imports ``nlops.cli``, runs the warm-up ``selftest --max-total-dim
8`` and then the full battery, both through ``cli.main`` with stdout
captured, and reads ``ru_maxrss`` after each of the three steps.  During the
battery it also reads ``ru_maxrss`` after every check and lists each check
that raised it by more than GROWTH_MB, with the growth; a check's work is done
before it is yielded, so the growth of building a sweep set is listed under
its count check.  The record also holds the wall time of the battery, its
summary line, and whether ``numpy.random`` was imported.  BLAS runs on one
thread, as in perfbench.  A fresh process imports only this file's
top-level modules before ``nlops.cli``.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

RUNS = 5
GROWTH_MB = 0.1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parents[1]
STEPS = ("after_import_mb", "after_warmup_mb", "after_battery_mb", "battery_s")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure() -> dict:
    """One process's footprint: the body of every fresh process."""
    from nlops import cli

    record = {"after_import_mb": _peak_mb()}
    with redirect_stdout(io.StringIO()):
        cli.main(["selftest", "--max-total-dim", "8"])
    record["after_warmup_mb"] = _peak_mb()

    growth = []
    checks = cli._selftest_checks

    def traced(*args):
        last = _peak_mb()
        for check in checks(*args):
            now = _peak_mb()
            if now - last > GROWTH_MB:
                growth.append([check[0], round(now - last, 3)])
            last = now
            yield check

    cli._selftest_checks = traced
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(["selftest"])
    record["battery_s"] = time.perf_counter() - start
    record["after_battery_mb"] = _peak_mb()
    record.update(exit_code=code, summary=out.getvalue().splitlines()[-1],
                  numpy_random_imported="numpy.random" in sys.modules, growth=growth)
    return record


def main() -> int:
    # Imported here, not at the top, so that no fresh process carries them.
    import platform
    import statistics
    import subprocess

    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **dict.fromkeys(THREAD_VARS, "1")}
    child = f"import json, sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); " \
            "import bench_footprint; print(json.dumps(bench_footprint.measure()))"
    runs = [json.loads(subprocess.run([sys.executable, "-c", child], env=env, check=True,
                                      capture_output=True, text=True).stdout)
            for _ in range(RUNS)]
    import numpy as np

    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    print(json.dumps({
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": 1,
        "cpus": os.cpu_count(),
        "median": {step: statistics.median(run[step] for run in runs) for step in STEPS},
        "runs": runs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
