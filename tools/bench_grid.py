"""Fixed-grid timings of one nlops checkout, printed as one JSON object.

    python3 tools/bench_grid.py                      # the checkout this file is in
    python3 tools/bench_grid.py --src OTHER/src      # another checkout's source

It times ``certify_nonlocal`` on the ``theorem1_set`` grid and on each
grid set with every local vector of every state rescaled by its own complex
scalar, so that no vector repeats and no two parties share a solve (best of
REPEAT runs, each with the cached pair-overlap table cleared first, so every
run builds it as a first certificate does; a case stops repeating once it has
used CASE_BUDGET_S seconds),
``nlops selftest`` end to end in-process (best of REPEAT),
and the time spent inside ``nullspace_real`` and ``brute_force_constraints``
during one more selftest.  Both functions call no other nlops function that
does real work, so that time is their self time.  It also times
``loads_state_set`` (best of LOAD_REPEAT) on three files per grid case: the
set as ``dump_state_set`` writes it, the same document re-encoded compactly
by ``json.dumps``, and the rescaled set.  For each
grid case and each set of ADVERSARIAL it times a cold
``check_pairwise_orthogonality`` (best of REPEAT, the cached pair-overlap
table cleared first) and records its tracemalloc peak and the share of pairs
left out of the table.  Every certificate's verdict and per-party
``(solution_dim, trivial, active_pairs)`` go into the record, so two records
can be checked for equal results.  BLAS runs on one thread, as in perfbench,
set before numpy is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

GRID = [(6, 6), (40, 4), (8, 16), (20, 16), (4, 32)]
REPEAT = 3
LOAD_REPEAT = 15
CASE_BUDGET_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Sets whose orthogonality check is large for their size, as nlops expressions.
ADVERSARIAL = [
    "product_basis((64, 64))",
    "product_basis((2,) * 11)",
    "StateSet((2, 2), (ProductState((basis_vector(2, 0), basis_vector(2, 1))),) * 2000)",
]


def _timed(func, totals, key):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - start
    return wrapper


def _best_load_s(loads, text):
    times = []
    for _ in range(LOAD_REPEAT):
        start = time.perf_counter()
        loads(text)
        times.append(time.perf_counter() - start)
    return min(times)


def _rescaled(state_set):
    """The set with every local vector of every state times its own complex scalar."""
    import numpy as np
    from nlops import ProductState, StateSet

    rng = np.random.default_rng(len(state_set))
    return StateSet(state_set.dims, tuple(
        ProductState(tuple(f * rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
                           for f in s.factors))
        for s in state_set.states))


def _certify_record(case, state_set):
    """Cold certify_nonlocal of one set: best time, verdict and per-party results."""
    from nlops import certifier

    times = []
    while len(times) < REPEAT and sum(times) < CASE_BUDGET_S:
        certifier._pair_overlaps.cache_clear()
        start = time.perf_counter()
        cert = certifier.certify_nonlocal(state_set)
        times.append(time.perf_counter() - start)
    return {"case": case, "m": len(state_set), "best_s": min(times), "runs": len(times),
            "verdict": cert.verdict,
            "parties": [[p.solution_dim, p.trivial, p.active_pairs] for p in cert.parties]}


def _load_record(case, state_set, rescaled):
    """Load times of the written, compact and rescaled files of one set."""
    from nlops import dumps_state_set, loads_state_set

    written = dumps_state_set(state_set)
    files = {"written": written, "compact": json.dumps(json.loads(written)),
             "rescaled": dumps_state_set(rescaled)}
    return {"case": case, "bytes": len(written),
            **{f"{name}_s": _best_load_s(loads_state_set, text) for name, text in files.items()},
            "roundtrip": all(dumps_state_set(loads_state_set(files[name])) == files[name]
                             for name in ("written", "rescaled"))}


def _pairs_record(case, state_set):
    """Cold orthogonality check of one set: best time, tracemalloc peak, pairs left out."""
    import tracemalloc
    from nlops import certifier

    def cold():
        certifier._pair_overlaps.cache_clear()
        report = certifier.check_pairwise_orthogonality(state_set)
        return report.passed, report.max_residual

    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        passed, max_residual = cold()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        cold()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = len(state_set) * (len(state_set) - 1) // 2
    kept = certifier._pair_overlaps(state_set)[0].size
    return {"case": case, "m": len(state_set), "pairs": pairs, "best_s": min(times),
            "peak_mib": peak / 2**20, "dropped_share": 1 - kept / pairs if pairs else 0.0,
            "passed": passed, "max_residual": max_residual}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, args.src)

    import numpy as np
    import nlops
    from nlops import certifier, cli, theorem1_set

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=args.src,
                            capture_output=True, text=True).stdout.strip()
    record = {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **{lib: f"{dep['name']} {dep['version']}"
           for lib, dep in np.show_config(mode="dicts")["Build Dependencies"].items()},
        "blas_threads": 1,
        "cpus": os.cpu_count(),
        "certify": [],
        "load": [],
        "pairs": [],
    }
    for n, d in GRID:
        case, state_set = f"theorem1_set({n}, {d})", theorem1_set(n, d)
        rescaled = _rescaled(state_set)
        record["certify"].append(_certify_record(case, state_set))
        record["certify"].append(_certify_record(f"rescaled {case}", rescaled))
        record["load"].append(_load_record(case, state_set, rescaled))
        record["pairs"].append(_pairs_record(case, state_set))
    for case in ADVERSARIAL:
        record["pairs"].append(_pairs_record(case, eval(case, vars(nlops))))
    certifier._pair_overlaps.cache_clear()

    def selftest():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["selftest"])
        return code, out.getvalue().splitlines()[-1]

    walls = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        code, summary = selftest()
        walls.append(time.perf_counter() - start)
    totals = {"nullspace_real_s": 0.0, "brute_force_constraints_s": 0.0}
    patched = [
        (cli, "nullspace_real", "nullspace_real_s"),
        (certifier, "nullspace_real", "nullspace_real_s"),
        (cli, "brute_force_constraints", "brute_force_constraints_s"),
    ]
    originals = [getattr(mod, name) for mod, name, _ in patched]
    for mod, name, key in patched:
        setattr(mod, name, _timed(getattr(mod, name), totals, key))
    try:
        selftest()
    finally:
        for (mod, name, _), func in zip(patched, originals):
            setattr(mod, name, func)
    record["selftest"] = {"best_wall_s": min(walls), "runs": len(walls), "exit": code,
                          "summary": summary, **totals}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
