"""Fixed-grid timings of one nlops checkout, printed as one JSON object.

    python3 tools/bench_grid.py                      # the checkout this file is in
    python3 tools/bench_grid.py --src OTHER/src      # another checkout's source

Each ``theorem1_set`` grid case is timed in three variants: plain; rescaled,
with every local vector of every state times its own complex scalar, so that
no vector repeats; and rotated, with each party's table turned by its own
seeded Haar unitary, so that no exact zero is left and no two parties share
a table.  For each variant it times a cold ``certify_nonlocal`` (best of
REPEAT runs, each with the certifier's cached per-set tables cleared first, so
every run builds them as a first certificate does; a case stops repeating
once it has used CASE_BUDGET_S seconds) and a cold
``check_pairwise_orthogonality`` (best of REPEAT, cleared the same way), and
records in one more cold check its tracemalloc peak, the memory still
allocated when it returns (its report and the cached table) and the share of
pairs left out of the table; the sets of ADVERSARIAL get the same check.  It
also times ``theorem1_set`` itself and ``loads_state_set`` on three files per
grid case (best of LOAD_REPEAT each): the set as ``dump_state_set`` writes
it, the same document re-encoded compactly by ``json.dumps``, and the
rescaled set.  Every certificate's verdict and per-party ``(solution_dim,
trivial, active_pairs)`` go into the record, so two records can be checked
for equal results.  ``nlops selftest`` is not timed here: perfbench's
selftest workload measures it in alternating runs, which resolve far smaller
changes than a best of a few in-process runs.  BLAS runs on one thread, as in
perfbench, set before numpy is imported.
"""

from __future__ import annotations

import argparse
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
    "product_basis((32, 32))",
    "StateSet((2, 2), (ProductState((basis_vector(2, 0), basis_vector(2, 1))),) * 2000)",
]


def _best_s(func, *args):
    """Best of LOAD_REPEAT timed calls of func(*args)."""
    times = []
    for _ in range(LOAD_REPEAT):
        start = time.perf_counter()
        func(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def _clear_set_caches(certifier):
    """Clear the certifier's caches of the last set: its pair-overlap table and,
    in the checkouts that cache them, its active codes."""
    for cached in (certifier._pair_overlaps, certifier._active_codes):
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


def _rescaled(state_set):
    """The set with every local vector of every state times its own complex scalar."""
    import numpy as np
    from nlops import ProductState, StateSet

    rng = np.random.default_rng(len(state_set))
    return StateSet(state_set.dims, tuple(
        ProductState(tuple(f * rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
                           for f in s.factors))
        for s in state_set.states))


def _rotated(state_set):
    """The set with each party's table turned by its own seeded Haar unitary."""
    import numpy as np
    from nlops import StateSet

    rng = np.random.default_rng(len(state_set))
    tables = []
    for table, d in zip(state_set.vectors, state_set.dims):
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        tables.append(table @ (q * (np.diag(r) / np.abs(np.diag(r)))).T)
    return StateSet.from_table(state_set.dims, tables, state_set.index)


def _certify_record(case, state_set):
    """Cold certify_nonlocal of one set: best time, verdict and per-party results."""
    from nlops import certifier

    times = []
    while len(times) < REPEAT and sum(times) < CASE_BUDGET_S:
        _clear_set_caches(certifier)
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
            **{f"{name}_s": _best_s(loads_state_set, text) for name, text in files.items()},
            "roundtrip": all(dumps_state_set(loads_state_set(files[name])) == files[name]
                             for name in ("written", "rescaled"))}


def _pairs_record(case, state_set):
    """Cold orthogonality check of one set: best time, tracemalloc peak and memory
    held on return, pairs left out."""
    import tracemalloc
    from nlops import certifier

    def cold():
        _clear_set_caches(certifier)
        return certifier.check_pairwise_orthogonality(state_set)

    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        cold()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        report = cold()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = len(state_set) * (len(state_set) - 1) // 2
    kept = certifier._pair_overlaps(state_set)[0].size
    return {"case": case, "m": len(state_set), "pairs": pairs, "best_s": min(times),
            "peak_mib": peak / 2**20, "held_mib": held / 2**20,
            "dropped_share": 1 - kept / pairs if pairs else 0.0,
            "passed": report.passed, "max_residual": report.max_residual}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, args.src)

    import numpy as np
    import nlops
    from nlops import certifier, theorem1_set

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
        for name, variant in (("", state_set), ("rescaled ", rescaled),
                              ("rotated ", _rotated(state_set))):
            record["certify"].append(_certify_record(name + case, variant))
            record["pairs"].append(_pairs_record(name + case, variant))
        record["load"].append({**_load_record(case, state_set, rescaled),
                               "gen_s": _best_s(theorem1_set, n, d)})
    for case in ADVERSARIAL:
        record["pairs"].append(_pairs_record(case, eval(case, vars(nlops))))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
