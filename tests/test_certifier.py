"""Tests for constraint assembly, solution spaces, and certificates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlops import (
    HermitianCoords,
    ProductState,
    StateSet,
    Tolerances,
    assemble_constraints,
    brute_force_constraints,
    certify_nonlocal,
    check_pairwise_orthogonality,
    coords_to_matrix,
    hermitian_basis,
    nullspace_real,
    product_basis,
    solution_space,
    theorem1_set,
    theorem2_set,
    theorem3_set,
    theorem4_set,
)
from nlops import certifier


def _constraint_rows(u, v):
    """Independent rebuild of one pair's rows via explicit basis matrix products."""
    d = len(u)
    vals = np.array([np.vdot(u, b @ v) for b in hermitian_basis(d)])
    vals /= np.linalg.norm(u) * np.linalg.norm(v)
    return np.stack([vals.real, vals.imag])


def _same_row_space(a, b, atol=1e-12):
    qa, _ = np.linalg.qr(a.T)
    qb, _ = np.linalg.qr(b.T)
    ra = np.linalg.matrix_rank(a, tol=1e-10)
    rb = np.linalg.matrix_rank(b, tol=1e-10)
    if ra != rb:
        return False
    qa, qb = qa[:, :ra], qb[:, :rb]
    return np.allclose(qa @ (qa.T @ qb), qb, atol=atol)


def _identity_direction(dim):
    e = np.zeros(dim * dim)
    e[0] = 1.0
    return e


# ---------------------------------------------------------------------------
# orthogonality check
# ---------------------------------------------------------------------------

def test_orthogonality_report_passes_on_generated_set():
    report = check_pairwise_orthogonality(theorem1_set(3, 3))
    assert report.passed
    assert report.max_residual <= 1e-12


def test_orthogonality_report_catches_duplicates():
    s = theorem1_set(3, 2)
    dup = StateSet(s.dims, s.states + (s.states[0],), label="dup")
    report = check_pairwise_orthogonality(dup)
    assert not report.passed
    assert report.max_residual == pytest.approx(1.0)
    assert (0, 6, 1.0) in [(i, j, round(r, 6)) for i, j, r in report.failing_pairs()]


# ---------------------------------------------------------------------------
# constraint assembly
# ---------------------------------------------------------------------------

def test_assemble_theorem2_3_2_party0():
    # Hand enumeration: only (state0, stopper) and (state1, state2) are active.
    s = theorem2_set(3, 2)
    rows = assemble_constraints(s, 0)
    assert rows.shape == (4, 4)  # two active pairs, two rows each

    expected = np.vstack([
        _constraint_rows(s.states[0].factors[0], s.states[3].factors[0]),
        _constraint_rows(s.states[1].factors[0], s.states[2].factors[0]),
    ])
    assert _same_row_space(rows, expected)

    # the two constraints force E01 = 0 and E00 = E11, leaving only the identity
    basis = nullspace_real(rows)
    assert basis.shape[1] == 1
    assert abs(abs(basis[0, 0]) - 1.0) < 1e-12


def test_assemble_product_basis_party0():
    # Pairs agreeing on party 1 are the only active ones; both force E01 = 0.
    pb = product_basis((2, 2))
    rows = assemble_constraints(pb, 0)
    assert rows.shape == (4, 4)  # two active pairs
    expected = _constraint_rows(pb.states[0].factors[0], pb.states[2].factors[0])
    assert _same_row_space(rows, expected)

    basis = nullspace_real(rows)
    assert basis.shape[1] == 2
    for i in range(2):
        mat = coords_to_matrix(HermitianCoords(2, basis[:, i]))
        assert np.max(np.abs(mat - np.diag(np.diag(mat)))) < 1e-12


def test_constraint_rows_vanish_at_identity():
    for state_set in (theorem1_set(3, 3), theorem2_set(4, 2), theorem4_set((2, 3, 2))):
        for k in range(state_set.n_parties):
            rows = assemble_constraints(state_set, k)
            e = _identity_direction(state_set.dims[k])
            if rows.shape[0]:
                assert np.max(np.abs(rows @ e)) <= 1e-10


# ---------------------------------------------------------------------------
# solution spaces
# ---------------------------------------------------------------------------

def test_solution_space_theorem1_3_3_is_identity_span():
    for k in range(3):
        sols = solution_space(theorem1_set(3, 3), k)
        assert len(sols) == 1
        coords = sols[0].coords
        assert coords[0] ** 2 >= (1 - 1e-9) * float(coords @ coords)


def test_solution_space_theorem2_3_2_party0():
    assert len(solution_space(theorem2_set(3, 2), 0)) == 1


def test_solution_space_product_basis_is_all_diagonals():
    pb = product_basis((2, 2))
    sols = solution_space(pb, 0)
    assert len(sols) == 2
    for h in sols:
        mat = coords_to_matrix(h)
        assert np.max(np.abs(mat - np.diag(np.diag(mat)))) < 1e-12


def test_stopper_removal_only_grows_solution_spaces():
    full = theorem2_set(3, 2)
    without = StateSet(full.dims, full.states[:-1], label="no-stopper")
    for k in range(3):
        dim_full = len(solution_space(full, k))
        dim_without = len(solution_space(without, k))
        assert dim_without >= dim_full
    assert len(solution_space(without, 0)) == 2  # only E01 = 0 remains


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "state_set",
    [theorem1_set(3, 2), theorem4_set((2, 2, 3)), product_basis((2, 2))],
    ids=lambda s: s.label,
)
def test_brute_force_matches_factorized_path(state_set):
    for k in range(state_set.n_parties):
        fast = assemble_constraints(state_set, k)
        slow = brute_force_constraints(state_set, k)
        nf = nullspace_real(fast)
        ns = nullspace_real(slow)
        assert nf.shape[1] == ns.shape[1]
        if nf.shape[1]:
            assert np.max(np.abs(slow @ nf)) <= 1e-8
            assert np.max(np.abs(fast @ ns)) <= 1e-8


def test_brute_force_refuses_large_composites():
    wide = theorem3_set((2,) * 13)  # composite dimension 8192
    with pytest.raises(ValueError, match="too-large"):
        brute_force_constraints(wide, 0)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certify_heterogeneous_set():
    cert = certify_nonlocal(theorem3_set((2, 3, 4)))
    assert cert.verdict == "CERTIFIED_NONLOCAL"
    assert cert.certified_nonlocal
    assert [r.solution_dim for r in cert.parties] == [1, 1, 1]
    assert all(r.witness is None for r in cert.parties)


def test_certify_theorem1_4_2():
    cert = certify_nonlocal(theorem1_set(4, 2))
    assert cert.certified_nonlocal
    assert [r.solution_dim for r in cert.parties] == [1, 1, 1, 1]


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2)])
def test_product_basis_not_certified_with_diagonal_witnesses(dims):
    pb = product_basis(dims)
    cert = certify_nonlocal(pb)
    assert cert.verdict == "NOT_CERTIFIED"
    assert not cert.certified_nonlocal
    for k, rep in enumerate(cert.parties):
        assert rep.solution_dim == dims[k]
        assert not rep.trivial
        assert rep.witness is not None
        # traceless diagonal operator satisfying the constraints
        assert rep.witness.coords[0] == 0.0
        mat = coords_to_matrix(rep.witness)
        assert abs(np.trace(mat)) < 1e-12
        assert np.max(np.abs(mat - np.diag(np.diag(mat)))) < 1e-12
        rows = assemble_constraints(pb, k)
        assert np.max(np.abs(rows @ rep.witness.coords)) <= 1e-8
        oracle_dim = nullspace_real(brute_force_constraints(pb, k)).shape[1]
        assert oracle_dim == rep.solution_dim


def test_duplicate_state_yields_not_orthogonal():
    s = theorem2_set(3, 2)
    dup = StateSet(s.dims, s.states + (s.states[0],), label="dup")
    cert = certify_nonlocal(dup)
    assert cert.verdict == "NOT_ORTHOGONAL"
    assert not cert.certified_nonlocal


def test_certificates_invariant_under_state_rescaling():
    rng = np.random.default_rng(41)
    for base in (theorem2_set(3, 3), theorem3_set((2, 3, 4))):
        scalars = [
            (10.0 ** rng.uniform(-3, 3)) * np.exp(2j * np.pi * rng.uniform())
            for _ in base.states
        ]
        scaled = StateSet(
            base.dims,
            tuple(s.scaled(c) for s, c in zip(base.states, scalars)),
            label=base.label,
        )
        ref = certify_nonlocal(base)
        got = certify_nonlocal(scaled)
        assert got.verdict == ref.verdict
        for a, b in zip(ref.parties, got.parties):
            assert (a.party, a.active_pairs, a.solution_dim, a.trivial) == (
                b.party, b.active_pairs, b.solution_dim, b.trivial)


def test_certificates_equivariant_under_cyclic_party_relabeling():
    base = theorem3_set((2, 3, 4))
    n = base.n_parties
    ref = certify_nonlocal(base)
    for shift in (1, 2):
        dims = tuple(base.dims[(j + shift) % n] for j in range(n))
        states = tuple(
            ProductState(tuple(s.factors[(j + shift) % n] for j in range(n)))
            for s in base.states
        )
        got = certify_nonlocal(StateSet(dims, states, label="rotated"))
        assert got.verdict == ref.verdict
        for j in range(n):
            a, b = ref.parties[(j + shift) % n], got.parties[j]
            assert (a.active_pairs, a.solution_dim, a.trivial) == (
                b.active_pairs, b.solution_dim, b.trivial)


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_homogeneous_sets_look_the_same_to_every_party(n, d):
    for state_set in (theorem1_set(n, d), theorem2_set(n, d)):
        cert = certify_nonlocal(state_set)
        dims = {r.solution_dim for r in cert.parties}
        assert len(dims) == 1


def test_tolerances_threaded_through():
    cert = certify_nonlocal(theorem1_set(3, 2), Tolerances(tol_rank=1e-6))
    assert cert.tolerances.tol_rank == 1e-6
    assert cert.certified_nonlocal


# ---------------------------------------------------------------------------
# the shared pair-overlap table
# ---------------------------------------------------------------------------

def test_certificate_reads_each_party_once(monkeypatch):
    calls = []
    party_vectors = StateSet.party_vectors

    def counting(self, party):
        calls.append(party)
        return party_vectors(self, party)

    monkeypatch.setattr(StateSet, "party_vectors", counting)
    certify_nonlocal(theorem1_set(6, 3))
    assert sorted(calls) == list(range(6))


def test_overlap_table_is_not_shared_between_sets():
    s = theorem2_set(3, 3)
    first = certify_nonlocal(s)
    dup = StateSet(s.dims, s.states + (s.states[0],), label="dup")
    assert certify_nonlocal(dup).verdict == "NOT_ORTHOGONAL"
    again = certify_nonlocal(s)
    assert first.verdict == again.verdict == "CERTIFIED_NONLOCAL"
    assert again.orthogonality.max_residual == first.orthogonality.max_residual
    np.testing.assert_array_equal(again.orthogonality.residuals, first.orthogonality.residuals)
    assert [(p.active_pairs, p.solution_dim, p.trivial) for p in again.parties] == [
        (p.active_pairs, p.solution_dim, p.trivial) for p in first.parties]
    iu, jv, units, g = certifier._pair_overlaps(s)
    assert not any(a.flags.writeable for a in (iu, jv, g, *units))
