"""One workload process: set up, then send requests and check every output.

Started by ``run.py`` with the BLAS thread count already pinned in its
environment.  It prints ``READY`` once set-up is done (``nlops`` imported,
request list resolved, negative-control files written, one warm-up request
answered).  A ``setup`` worker exits there; a ``measure`` worker goes on,
then prints ``RESULT <json>``.

Requests drive the package the way a user does: ``nlops.cli.main`` with the
same arguments as the command line, stdout and stderr captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from spans import COUNTS, Tracer  # noqa: E402

SELFTEST_LINE = re.compile(r"^selftest: (\d+)/(\d+) checks passed$", re.MULTILINE)


def import_program():
    """Import nlops from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nlops
    import nlops.cli

    if not Path(nlops.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"nlops imported from {nlops.__file__}, not from {src}")
    return nlops


def certificate_summary(doc: dict) -> dict:
    """The part of a certificate the reference table pins down."""
    return {
        "verdict": doc["verdict"],
        "parties": [[p["solution_dim"], p["trivial"], p["active_pairs"]] for p in doc["parties"]],
    }


class Session:
    """Sends requests for one workload and checks them against the reference."""

    def __init__(self, nlops, workdir: Path, reference: dict):
        self.nlops = nlops
        self.workdir = workdir
        self.reference = reference

    def files(self, case) -> tuple[Path, Path]:
        stem = re.sub(r"[^A-Za-z0-9]+", "_", case.name)
        return self.workdir / f"{stem}.json", self.workdir / f"{stem}.cert.json"

    def write_control(self, case) -> None:
        nlops = self.nlops
        nlops.dump_state_set(nlops.product_basis(case.dims), self.files(case)[0])

    def run(self, case, state: Path, cert: Path) -> tuple[int, ...]:
        main = self.nlops.cli.main
        if case.kind == "selftest":
            return (main(["selftest", *case.argv]),)
        codes = (0,)
        if case.kind == "generate":
            dims = ",".join(str(d) for d in case.dims)
            codes = (main(["generate", "--theorem", str(case.theorem), "--dims", dims,
                           "--out", str(state)]),)
            if codes[0] != 0:
                return codes
        return codes + (main(["certify", str(state), "--out", str(cert)]),)

    def send(self, case) -> tuple[float, str | None]:
        """One request: (latency in s, None or why its output is wrong)."""
        state, cert = self.files(case)
        cert.unlink(missing_ok=True)
        captured = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                codes = self.run(case, state, cert)
        except (Exception, SystemExit) as exc:  # a request that raises is a failed request
            return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        return latency, self.check(case, codes, captured.getvalue(), cert)

    def check(self, case, codes, output: str, cert: Path) -> str | None:
        ref = self.reference.get(case.name)
        if ref is None:
            return "no reference entry"
        if case.kind == "selftest":
            found = SELFTEST_LINE.search(output)
            if codes != (0,) or found is None:
                return f"exit codes {codes}, summary line {'found' if found else 'missing'}"
            passed, total = int(found[1]), int(found[2])
            if passed != total or passed < ref["min_checks"]:
                return f"{passed}/{total} checks passed, expected at least {ref['min_checks']}"
            return None
        want = (0, 0 if ref["verdict"] == "CERTIFIED_NONLOCAL" else 1)
        if codes != want:
            return f"exit codes {codes}, expected {want}"
        try:
            got = certificate_summary(json.loads(cert.read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable certificate: {exc}"
        if got != ref:
            return "certificate differs from the reference"
        return None

    def round_trip(self, case) -> str | None:
        """dumps(loads(text)) must give the state-set file back byte for byte."""
        text = self.files(case)[0].read_text(encoding="utf-8")
        again = self.nlops.dumps_state_set(self.nlops.loads_state_set(text))
        return None if again == text else "state-set file does not round-trip"


class Tally:
    """Requests attempted, their latencies, and the failures by case."""

    def __init__(self):
        self.attempted = 0
        self.latencies: list[float] = []
        self.by_case: dict[str, list[float]] = {}
        self.passed: Counter = Counter()
        self.failures: Counter = Counter()
        self.problems: dict[str, str] = {}

    def add(self, case, latency: float, problem: str | None, timed: bool = True) -> None:
        self.attempted += 1
        if timed:
            self.latencies.append(latency)
            self.by_case.setdefault(case.name, []).append(latency)
        if problem is None:
            self.passed[case.name] += 1
        else:
            self.failures[case.name] += 1
            self.problems.setdefault(case.name, problem)

    def fail_case(self, name: str, problem: str) -> None:
        """Count every request of a case as failed, its own checks passed or not."""
        self.failures[name] += self.passed.pop(name, 0)
        self.problems.setdefault(name, problem)


def run_passes(session, cases, seconds: float, tally: Tally) -> list[float]:
    """Whole passes over cases until `seconds` have gone by; wall of each pass."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall = 0.0
        for case in cases:
            latency, problem = session.send(case)
            tally.add(case, latency, problem)
            wall += latency
        walls.append(wall)
    return walls


def check_round_trips(session, cases, tally: Tally) -> None:
    for case in {c.name: c for c in cases if c.kind != "selftest"}.values():
        problem = session.round_trip(case)
        if problem is not None:
            tally.fail_case(case.name, problem)


def measure_untraced(session, cases, seconds: float, tally: Tally) -> dict:
    walls = run_passes(session, cases, seconds, tally)
    check_round_trips(session, cases, tally)
    return {"passes": len(walls), "pass_walls": walls}


def measure_traced(session, cases, seconds: float, trace_out: str | None, tally: Tally) -> dict:
    """One untraced pass, then traced passes until `seconds` have gone by."""
    start = time.perf_counter()
    plain_wall = run_passes(session, cases, 0.0, tally)[0]

    tracer = Tracer()
    per_pass = []
    tracer.install()
    try:
        while not per_pass or time.perf_counter() - start < seconds:
            first_span = len(tracer.spans)
            tracer.counts.clear()
            walls = {}
            for case in cases:
                tracer.request += 1
                latency, problem = session.send(case)
                tally.add(case, latency, problem)
                walls[tracer.request] = latency
                tracer.settle()
            layers = tracer.layer_metrics(first_span, walls)
            counts = {name: tracer.counts[name] for name in COUNTS}
            per_pass.append((sum(walls.values()), layers, counts))
    finally:
        tracer.remove()
    check_round_trips(session, cases, tally)
    if trace_out:
        tracer.write(trace_out)

    passes = len(per_pass)
    metrics = {name: sum(p[1][name] for p in per_pass) / passes for name in per_pass[0][1]}
    metrics.update(per_pass[0][2])
    assembled = metrics["certifier.assemble_rows"]
    metrics["certifier.row_yield"] = (
        metrics["certifier.distinct_rows"] / assembled if assembled else 0.0
    )
    traced_wall = sum(p[0] for p in per_pass) / passes
    metrics["trace_overhead_s"] = traced_wall - plain_wall
    return {
        "passes": passes,
        "layers": metrics,
        "counts_repeat": all(p[2] == per_pass[0][2] for p in per_pass),
        "pass_wall_s": {"untraced": plain_wall, "traced": traced_wall},
        "spans": len(tracer.spans),
    }


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    out = sys.stdout

    nlops = import_program()
    cases = workloads.requests(args.workload, args.seed, args.tiny)
    reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))["cases"]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    session = Session(nlops, workdir, reference)
    for case in cases:
        if case.kind == "control":
            session.write_control(case)
    warm = workloads.warmup(args.workload, args.tiny)
    if warm.kind == "control":
        session.write_control(warm)
    tally = Tally()
    tally.add(warm, *session.send(warm), timed=False)
    print("READY", file=out, flush=True)
    if args.role == "setup":
        return 0

    if args.trace:
        result = measure_traced(session, cases, args.seconds, args.trace_out, tally)
    else:
        result = measure_untraced(session, cases, args.seconds, tally)
    result.update(
        attempted=tally.attempted,
        failed=sum(tally.failures.values()),
        problems=tally.problems,
        latencies=tally.latencies,
        latencies_by_case=tally.by_case,
        ok=sum(tally.passed.values()),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    print("RESULT " + json.dumps(result), file=out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
