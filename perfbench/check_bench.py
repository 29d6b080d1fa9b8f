"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/check_bench.py

They use the small ``--tiny`` request lists, so they take about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCRATCH = BENCH_DIR / "_work" / "check"


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc.returncode, proc.stdout


def result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def tiny(workload: str, trace: int, *extra: str) -> dict:
    code, out = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                          "--trace", str(trace), "--tiny", *extra)
    assert code == 0, out
    return result_line(out)


@pytest.fixture
def scratch():
    SCRATCH.mkdir(parents=True, exist_ok=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_reports_every_metric_finite_and_in_its_unit(workload, trace):
    result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def _corrupt_certificate(cases):
    cases["theorem3:2,3,2"]["parties"][0][2] += 1
    return "theorem3:2,3,2", "many-parties"


def _corrupt_selftest(cases):
    cases["selftest --max-total-dim 8"]["min_checks"] += 1
    return "selftest --max-total-dim 8", "selftest"


@pytest.mark.parametrize("corrupt", [_corrupt_certificate, _corrupt_selftest])
def test_corrupted_reference_entry_fails_the_request(scratch, corrupt):
    doc = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    case, workload = corrupt(doc["cases"])
    path = scratch / "reference.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_bench("--workload", workload, "--seed", "7", "--seconds", "0.2",
                          "--trace", "0", "--tiny", "--reference", str(path))
    assert code == 0, out
    result = result_line(out)
    assert result["correct"] is False and result["failed"] >= 1
    assert f"FAILED {case}:" in out


def test_counts_repeat_across_traced_runs():
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    first = tiny("many-parties", 1)["metrics"]
    second = tiny("many-parties", 1)["metrics"]
    assert {n: first[n]["value"] for n in counted} == {n: second[n]["value"] for n in counted}
    assert first["certifier.assemble_rows"]["value"] > first["certifier.distinct_rows"]["value"] > 0


def test_every_case_a_seed_can_send_has_a_reference_entry():
    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))["cases"]
    names = {case.name for case in workloads.all_cases()}
    assert names <= set(reference)
    for workload in workloads.WORKLOADS:
        for seed in range(64):
            assert {c.name for c in workloads.requests(workload, seed)} <= names
        assert workloads.warmup(workload).name in names


def test_layer_that_gets_no_calls_reports_zero_and_folds_into_its_parent(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import nlops
    from nlops import certifier

    # Stand-in for a later change that inlines assemble_constraints: the
    # certifier keeps calling the same code under a name no module exports.
    inlined = certifier.assemble_constraints
    monkeypatch.setattr(certifier, "assemble_constraints",
                        lambda *args, **kwargs: inlined(*args, **kwargs))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        start = time.perf_counter()
        cert = nlops.certify_nonlocal(nlops.theorem1_set(3, 4))
        wall = time.perf_counter() - start
        tracer.settle()
    finally:
        tracer.remove()
    assert cert.certified_nonlocal
    assert nlops.certify_nonlocal.__name__ == "certify_nonlocal" and not hasattr(
        nlops.certify_nonlocal, "__wrapped__")
    layers = tracer.layer_metrics(0, {0: wall})
    assert layers["certifier.assemble_calls"] == 0 and layers["certifier.assemble_s"] == 0.0
    assert layers["tensor_core.rank_calls"] == 3 and layers["certifier.certify_calls"] == 1
    assert layers["certifier.certify_self_s"] > 0.0
    total = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert total == pytest.approx(wall, rel=1e-6)
    assert tracer.counts["certifier.assemble_rows"] == 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(scratch):
    bare = scratch / "bare"
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, out = run_bench("--workload", "many-parties", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
    assert code != 0
    assert out.strip() == ""
