"""Record reference.json: the expected output of every case a workload can send.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are trusted; the benchmark then counts
any request whose certificate differs from this table as failed.  Each entry
holds the verdict and, per party, [solution_dim, trivial, active_pairs]; a
selftest entry holds the number of checks that must all pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import worker
import workloads


def record(case, session) -> dict:
    state, cert = session.files(case)
    if case.kind == "control":
        session.write_control(case)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        session.run(case, state, cert)
    if case.kind == "selftest":
        passed, total = map(int, worker.SELFTEST_LINE.search(captured.getvalue()).groups())
        if passed != total:
            raise RuntimeError(f"{case.name}: {passed}/{total} checks passed")
        return {"min_checks": total}
    return worker.certificate_summary(json.loads(cert.read_text(encoding="utf-8")))


def main() -> int:
    nlops = worker.import_program()
    workdir = worker.BENCH_DIR / "_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    session = worker.Session(nlops, workdir, {})
    try:
        cases = {case.name: record(case, session) for case in workloads.all_cases()}
    finally:
        shutil.rmtree(workdir)
    entries = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(entry)}"
        for name, entry in sorted(cases.items())
    )
    fields = json.dumps(["solution_dim", "trivial", "active_pairs"])
    path = worker.BENCH_DIR / "reference.json"
    path.write_text(
        f'{{\n "party_fields": {fields},\n "cases": {{\n{entries}\n }}\n}}\n', encoding="utf-8"
    )
    print(f"wrote {len(cases)} cases to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
