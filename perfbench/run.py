"""The nlops benchmark: one workload per invocation, end to end or traced.

    python3 perfbench/run.py --workload many-parties --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it imports ``nlops`` from ``src/`` there
and from nowhere else.  Workloads: many-parties and selftest (in
BENCHMARK.json), and high-dim, run by hand (see NOTES.md).  Every request's
output is checked against reference.json.

``--trace 0`` measures the end-to-end metrics.  Set-up runs in
SETUP_SAMPLES fresh worker processes (``setup_s`` is their median); the last
of them goes on to send requests, one client in a closed loop, in whole
passes over the workload's request list until ``--seconds`` have gone by.

``--trace 1`` makes one untraced pass, then traced passes until
``--seconds`` have gone by, and reports the per-layer metrics per pass,
averaged over the traced passes (counts are the same in every pass).

The last line of stdout is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  Every metric is also printed, with its unit, above it, and
the whole record, environment included, goes to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

# BLAS threads pinned in each worker's environment.  One is steadier than two
# on a shared 2-vCPU machine, where a second thread waits on the neighbours.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Fresh processes set up per end-to-end run; setup_s is the median.
SETUP_SAMPLES = 3
# Every worker of a run must have ended by then.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"req_per_s": "1/s", "req_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for time_metric, calls_metric in spans.LAYERS:
        units[time_metric] = "s"
        units[calls_metric] = "count"
    for name in spans.COUNTS:
        units[name] = "count"
    units.update({
        "serialize.bytes": "B",
        "tensor_core.svd_flops": "flop",
        "certifier.row_yield": "ratio",
        "other_s": "s",
        "trace_overhead_s": "s",
    })
    return units


class WorkerError(RuntimeError):
    pass


def spawn(role: str, args, env: dict, deadline: float, extra: list[str]) -> tuple[float, dict | None]:
    """Start one worker; return (seconds from start to READY, its result)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(args.reference)] + extra + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (role == "measure" and result is None):
        raise WorkerError(f"{role} worker exited with code {code}")
    return ready, result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def end_to_end(result: dict, setup_times: list[float]) -> tuple[dict, dict]:
    latencies = result["latencies"]
    metrics = {
        # Closed loop, one client: the time in requests is the run's time.
        "req_per_s": result["ok"] / result["attempted"] * len(latencies) / sum(latencies),
        "req_s.p50": statistics.median(latencies),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup_times),
    }
    extra = {
        "requests": len(latencies),
        "passes": result["passes"],
        "pass_walls_s": result["pass_walls"],
        "failed_frac": result["failed"] / result["attempted"],
        "setup_s.samples": setup_times,
        "latencies_by_case_s": result["latencies_by_case"],
    }
    # A percentile needs ten samples beyond it; no workload's run holds that many.
    if len(latencies) >= 100:
        extra["req_s.p90"] = statistics.quantiles(latencies, n=10)[8]
    return metrics, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small request lists, for the benchmark's own tests")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json",
                        help="expected outputs (default: perfbench/reference.json)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nlops" / "__init__.py").is_file():
        print(f"error: no nlops source under {ROOT / 'src'}; "
              "run the benchmark inside a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: str(BLAS_THREADS) for var in _THREAD_VARS})
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    outdir = BENCH_DIR / "_out"
    outdir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--workdir", str(workdir)]
    if args.trace:
        extra += ["--trace-out", str(outdir / f"{stem}.spans.jsonl")]
    try:
        setup_times = []
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            setup_times.append(spawn("setup", args, env, deadline, extra)[0])
        ready, result = spawn("measure", args, env, deadline, extra)
        setup_times.append(ready)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = per_layer_units()
        metrics = {name: result["layers"][name] for name in units}
        extra_out = {"passes": result["passes"], "counts_repeat": result["counts_repeat"],
                     "pass_wall_s": result["pass_wall_s"], "spans": result["spans"]}
        correct = result["failed"] == 0 and result["counts_repeat"]
    else:
        units = END_TO_END_UNITS
        metrics, extra_out = end_to_end(result, setup_times)
        correct = result["failed"] == 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "env": dict(result["env"], nproc=nproc, cpu=cpu_model()),
        "problems": result["problems"],
        **extra_out,
    }
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    for name, value in extra_out.items():
        print(f"{name:32s} {json.dumps(value)}")
    for name, problem in result["problems"].items():
        print(f"FAILED {name}: {problem}")
    print(f"env {json.dumps(record['env'])}")
    summary = {
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update(summary)
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
