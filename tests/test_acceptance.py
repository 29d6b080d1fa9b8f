"""Acceptance suite: every release criterion, one test each, with budgets.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s) and asserts
both the criterion and its runtime budget.
"""

import time
from math import prod

import numpy as np

from nlops import (
    MAX_BRUTE_FORCE_DIM,
    ProductState,
    StateSet,
    assemble_constraints,
    brute_force_constraints,
    canonical_compare,
    certify_nonlocal,
    check_pairwise_orthogonality,
    cramer_solve,
    dump_state_set,
    dumps_state_set,
    load_state_set,
    nullspace_real,
    product_basis,
    proof_determinants_nonzero,
    roots_of_unity,
    theorem1_set,
    theorem2_set,
    theorem3_set,
    theorem4_set,
    vandermonde_det,
)
from nlops.cli import main as cli_main

from sweeps import HETEROGENEOUS_DIMS, HOMOGENEOUS_GRID, sweep_sets


def _finish(num, desc, failures, elapsed, budget):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} "
          f"({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"criterion {num} failed: {failures[:5]}"
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget:g}s)"


def test_criterion_1_homogeneous_cardinalities():
    start = time.perf_counter()
    failures = []
    for n, d in HOMOGENEOUS_GRID:
        if len(theorem1_set(n, d)) != 2 * n * (d - 1):
            failures.append(("theorem1", n, d))
        if len(theorem2_set(n, d)) != n * (2 * d - 3) + 1:
            failures.append(("theorem2", n, d))
    _finish(1, "homogeneous cardinalities 2n(d-1) and n(2d-3)+1",
            failures, time.perf_counter() - start, 1.0)


def test_criterion_2_heterogeneous_cardinalities():
    start = time.perf_counter()
    failures = []
    for dims in HETEROGENEOUS_DIMS:
        if len(theorem3_set(dims)) != sum(2 * (d - 1) for d in dims):
            failures.append(("theorem3", dims))
        if len(theorem4_set(dims)) != sum(2 * d - 3 for d in dims) + 1:
            failures.append(("theorem4", dims))
    _finish(2, "heterogeneous cardinalities sum 2(d_j-1) and sum (2d_j-3)+1",
            failures, time.perf_counter() - start, 1.0)


def test_criterion_3_orthogonality():
    sets = sweep_sets()
    start = time.perf_counter()
    failures = []
    for state_set in sets:
        report = check_pairwise_orthogonality(state_set, tol=1e-10)
        if not report.passed:
            failures.append((state_set.label, report.max_residual))
    _finish(3, "pairwise orthogonality residual <= 1e-10 for all generated sets",
            failures, time.perf_counter() - start, 5.0)


def test_criterion_4_nonlocality_certificates():
    sets = [s for s in sweep_sets() if prod(s.dims) <= MAX_BRUTE_FORCE_DIM]
    start = time.perf_counter()
    failures = []
    for state_set in sets:
        cert = certify_nonlocal(state_set)
        dims = [r.solution_dim for r in cert.parties]
        if cert.verdict != "CERTIFIED_NONLOCAL" or any(x != 1 for x in dims) \
                or not all(r.trivial for r in cert.parties):
            failures.append((state_set.label, cert.verdict, dims))
    _finish(4, f"all {len(sets)} sets certified nonlocal with solution dim 1 per party",
            failures, time.perf_counter() - start, 30.0)


def test_criterion_5_negative_control():
    start = time.perf_counter()
    failures = []
    for dims in [(2, 2), (2, 2, 2)]:
        pb = product_basis(dims)
        cert = certify_nonlocal(pb)
        found = [r.solution_dim for r in cert.parties]
        oracle = [
            nullspace_real(brute_force_constraints(pb, k)).shape[1]
            for k in range(len(dims))
        ]
        if cert.certified_nonlocal or found != list(dims) or oracle != found:
            failures.append((dims, cert.verdict, found, oracle))
    _finish(5, "product bases not certified; per-party dim d matches oracle",
            failures, time.perf_counter() - start, 1.0)


def test_criterion_6_oracle_equivalence():
    sets = [s for s in sweep_sets() if prod(s.dims) <= MAX_BRUTE_FORCE_DIM]
    start = time.perf_counter()
    failures = []
    for state_set in sets:
        for k in range(state_set.n_parties):
            fast = assemble_constraints(state_set, k)
            slow = brute_force_constraints(state_set, k)
            nf = nullspace_real(fast)
            ns = nullspace_real(slow)
            residual = 0.0
            if nf.shape[1]:
                residual = max(residual, float(np.max(np.abs(slow @ nf))))
            if ns.shape[1]:
                residual = max(residual, float(np.max(np.abs(fast @ ns))))
            if nf.shape[1] != ns.shape[1] or residual > 1e-8:
                failures.append((state_set.label, k, nf.shape[1], ns.shape[1], residual))
    _finish(6, "factorized and brute-force null spaces agree (residual <= 1e-8)",
            failures, time.perf_counter() - start, 60.0)


def test_criterion_7_lemma_suite():
    start = time.perf_counter()
    failures = []
    for d in range(2, 17):
        roots = roots_of_unity(d)
        sep = min(abs(roots[i] - roots[j]) for i in range(d) for j in range(i + 1, d))
        if sep <= 1e-9 or np.max(np.abs(roots**d - 1.0)) > 1e-12:
            failures.append(("roots", d))
    for d in range(2, 9):
        if proof_determinants_nonzero(d).min() <= 1e-8:
            failures.append(("leave-one-out determinant", d))
        val = abs(vandermonde_det(roots_of_unity(d)))
        target = d ** (d / 2)
        if abs(val - target) > 1e-9 * target:
            failures.append(("vandermonde magnitude", d, val, target))
    rng = np.random.default_rng(9)
    for trial in range(50):
        n = int(rng.integers(1, 5))
        while True:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if np.linalg.cond(a) < 100:
                break
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        diff = float(np.max(np.abs(cramer_solve(a, b) - np.linalg.solve(a, b))))
        if diff > 1e-9:
            failures.append(("cramer", trial, diff))
    _finish(7, "roots-of-unity, Vandermonde, and Cramer-rule cross-checks",
            failures, time.perf_counter() - start, 5.0)


def test_criterion_8_invariance_suite():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(17)

    def report_fields(cert):
        return [(r.party, r.active_pairs, r.solution_dim, r.trivial) for r in cert.parties]

    for base in (theorem2_set(3, 3), theorem3_set((2, 3, 4)), theorem4_set((3, 2, 2))):
        ref = certify_nonlocal(base)
        scaled = StateSet(
            base.dims,
            tuple(
                s.scaled((10.0 ** rng.uniform(-3, 3)) * np.exp(2j * np.pi * rng.uniform()))
                for s in base.states
            ),
            label=base.label,
        )
        got = certify_nonlocal(scaled)
        if got.verdict != ref.verdict or report_fields(got) != report_fields(ref):
            failures.append(("rescaling", base.label))

        n = base.n_parties
        for shift in range(1, n):
            dims = tuple(base.dims[(j + shift) % n] for j in range(n))
            states = tuple(
                ProductState(tuple(s.factors[(j + shift) % n] for j in range(n)))
                for s in base.states
            )
            got = certify_nonlocal(StateSet(dims, states, label="rotated"))
            for j in range(n):
                a, b = ref.parties[(j + shift) % n], got.parties[j]
                if (a.active_pairs, a.solution_dim, a.trivial) != (
                        b.active_pairs, b.solution_dim, b.trivial):
                    failures.append(("relabeling", base.label, shift, j))

    for n, d in HOMOGENEOUS_GRID:
        if not canonical_compare(theorem1_set(n, d), theorem3_set((d,) * n)):
            failures.append(("t1=t3", n, d))
        if not canonical_compare(theorem2_set(n, d), theorem4_set((d,) * n)):
            failures.append(("t2=t4", n, d))
    _finish(8, "rescaling invariance, relabeling equivariance, homogeneous reductions",
            failures, time.perf_counter() - start, 10.0)


def test_criterion_9_cli_contract(tmp_path, capsys):
    start = time.perf_counter()
    failures = []

    state_file = tmp_path / "t2.json"
    if cli_main(["generate", "--theorem", "2", "--n", "3", "--d", "2",
                 "--out", str(state_file)]) != 0:
        failures.append("generate exit code")
    if cli_main(["certify", str(state_file)]) != 0:
        failures.append("certify exit code on certified set")

    pb_file = tmp_path / "pb.json"
    dump_state_set(product_basis((2, 2)), pb_file)
    if cli_main(["certify", str(pb_file)]) != 1:
        failures.append("certify exit code on product basis")

    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    if cli_main(["certify", str(bad)]) != 2:
        failures.append("certify exit code on malformed file")

    text = state_file.read_text()
    if dumps_state_set(load_state_set(state_file)) != text:
        failures.append("round trip not byte-identical")

    capsys.readouterr()  # swallow CLI output; the criterion line goes below
    _finish(9, "CLI exit codes 0/1/2 and byte-identical round trip",
            failures, time.perf_counter() - start, 1.0)
