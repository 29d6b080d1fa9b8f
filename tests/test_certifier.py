"""Tests for constraint assembly, solution spaces, and certificates."""

import importlib.util
import pathlib
import sys
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from sweeps import sweep_sets

from nlops import (
    HermitianCoords,
    ProductState,
    StateSet,
    Tolerances,
    assemble_constraints,
    basis_vector,
    brute_force_constraints,
    canonical_compare,
    certify_nonlocal,
    check_pairwise_orthogonality,
    coords_to_matrix,
    hermitian_basis,
    hermitian_basis_flat,
    matrix_to_coords,
    nullspace_real,
    partial_inner_excluding,
    product_basis,
    product_inner,
    solution_space,
    theorem1_set,
    theorem2_set,
    theorem3_set,
    theorem4_set,
)
from nlops import certifier
from nlops.cli import _generate_set, _sweep_sets


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
    assert certify_nonlocal(pb).parties[0].active_pairs == 2
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


def test_brute_force_refuses_too_many_states():
    # Within the overlap-table bound, but the oracle's Gram would hold
    # (5800 * 2)**2 entries, more than MAX_OVERLAP_ENTRIES.
    copies = StateSet((2, 2), (ProductState((basis_vector(2, 0), basis_vector(2, 1))),) * 5800)
    with pytest.raises(ValueError, match="too-large: 5800 states of local dimension 2"):
        brute_force_constraints(copies, 0)


def test_brute_force_counts_its_gram_before_building_any_vector(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full vectors must not be built for a refused set")

    # Composite dimension 3072: the Gram holds (3072 * 3)**2 = 84.9M entries, more than
    # MAX_OVERLAP_ENTRIES, though each per-pair array holds only 3072 * 3071 / 2 * 9 = 42.5M.
    monkeypatch.setattr(certifier, "_full_vectors", refuse)
    with pytest.raises(ValueError, match="too-large: 3072 states of local dimension 3"):
        brute_force_constraints(product_basis((3, 32, 32)), 0)


def _per_pair_kron_rows(state_set, party):
    """The oracle's rows rebuilt state by state and pair by pair, with np.kron,
    and for each pair whether its block <phi_a|(|j><p| on the party)|phi_b> is
    exactly zero."""
    d = state_set.dims[party]
    basis = hermitian_basis_flat(d)
    psi = [np.moveaxis(reduce(np.kron, s.factors).reshape(state_set.dims), party, 0).reshape(d, -1)
           for s in state_set]
    rows, zero_blocks = [], []
    for a in range(len(psi)):
        for b in range(a + 1, len(psi)):
            block = psi[a].conj() @ psi[b].T
            zero_blocks.append(not block.any())
            vals = basis @ block.reshape(-1)
            vals /= np.linalg.norm(psi[a]) * np.linalg.norm(psi[b])
            rows += [vals.real, vals.imag]
    return np.array(rows).reshape(-1, d * d), np.array(zero_blocks, bool)


def _rescaled(base, seed):
    """Each state with every local vector multiplied by its own complex scalar."""
    rng = np.random.default_rng(seed)
    return StateSet(base.dims, tuple(
        ProductState(tuple(f * (10.0 ** rng.uniform(-2, 2)) * np.exp(2j * np.pi * rng.uniform())
                           for f in s.factors))
        for s in base.states), label="rescaled")


# The oracle's Gram reads only columns nonzero for two or more states.  In
# |00>, |11> each column is held by one state, so every row is zero;
# theorem2_set(4, 3) keeps 15 of its 27 columns per party, theorem1_set(3, 3) 6 of 9.
_ORACLE_SETS = [theorem1_set(3, 3), theorem4_set((2, 3, 4)), product_basis((2, 2, 2)),
                _rescaled(theorem3_set((2, 3, 4)), 43),
                StateSet((2, 2), [ProductState((basis_vector(2, j), basis_vector(2, j)))
                                  for j in (0, 1)], label="unshared columns"),
                theorem2_set(4, 3)]


@pytest.mark.parametrize("state_set", _ORACLE_SETS, ids=lambda s: s.label)
def test_brute_force_matches_per_pair_kron_reference(state_set):
    n, m = state_set.n_parties, len(state_set)
    for k in (0, n // 2, n - 1):
        got = brute_force_constraints(state_set, k)
        want, zero_blocks = _per_pair_kron_rows(state_set, k)
        assert got.shape == want.shape == (m * (m - 1), state_set.dims[k] ** 2)
        assert np.max(np.abs(got - want)) <= 1e-12
        # a pair with an exactly zero block is listed, as rows of exact zeros
        assert (got[np.repeat(zero_blocks, 2)] == 0.0).all()
    for size in (0, 1):
        small = StateSet(state_set.dims, state_set.states[:size])
        for k in (0, n // 2, n - 1):
            assert brute_force_constraints(small, k).shape == (0, state_set.dims[k] ** 2)


def test_brute_force_does_not_use_the_fast_path(monkeypatch):
    state_set = theorem4_set((2, 3, 4))
    want = [brute_force_constraints(state_set, k) for k in range(state_set.n_parties)]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not read the fast path's tables")

    monkeypatch.setattr(certifier, "_pair_overlaps", refuse)
    monkeypatch.setattr(StateSet, "party_vectors", refuse)
    certifier._full_vectors.cache_clear()  # the patched calls build the full vectors again
    for k, rows in enumerate(want):
        assert_array_equal(brute_force_constraints(state_set, k), rows)


@pytest.mark.parametrize("state_set", _ORACLE_SETS, ids=lambda s: s.label)
def test_full_vectors_are_the_kron_of_each_states_factors(state_set):
    full, _ = certifier._full_vectors(state_set)
    assert full.tobytes() == np.array([reduce(np.kron, s.factors) for s in state_set]).tobytes()


def test_brute_force_builds_each_sets_full_vectors_once():
    certifier._full_vectors.cache_clear()
    state_set = theorem4_set((2, 3, 4))
    for k in range(state_set.n_parties):
        brute_force_constraints(state_set, k)
    assert certifier._full_vectors.cache_info().misses == 1
    full, norms = certifier._full_vectors(state_set)
    assert full.shape == (len(state_set), 24) and norms.shape == (len(state_set),)
    assert not full.flags.writeable and not norms.flags.writeable


def test_brute_force_builds_each_sets_pair_indices_once():
    certifier._pair_indices.cache_clear()
    state_set = theorem4_set((2, 3, 4))
    for k in range(state_set.n_parties):
        brute_force_constraints(state_set, k)
    assert certifier._pair_indices.cache_info().misses == 1
    iu, jv = certifier._pair_indices(len(state_set))
    assert_array_equal(np.stack([iu, jv]), np.triu_indices(len(state_set), 1))
    assert not iu.flags.writeable and not jv.flags.writeable


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


def _truncated(base, cut):
    return StateSet(base.dims, base.states[:-cut], label=f"{base.label} minus {cut}")


@pytest.mark.parametrize("state_set", [
    product_basis((2, 2)), product_basis((2, 3)), product_basis((3, 2, 2)),
    _truncated(theorem1_set(3, 3), 4), _truncated(theorem4_set((2, 3, 4)), 6),
    _truncated(_rescaled(theorem2_set(3, 2), 7), 2),
], ids=lambda s: s.label)
def test_every_witness_is_a_unit_identity_orthogonal_solution(state_set):
    # A degenerate solution space leaves LAPACK free to pick any witness in
    # it; whichever it picks must still be a valid one.
    parties = certify_nonlocal(state_set).parties
    for rep in parties:
        s, d = rep.solution, state_set.dims[rep.party]
        assert not s.flags.writeable
        assert s.shape == (d * d, rep.solution_dim)
        assert_allclose(s.T @ s, np.eye(rep.solution_dim), rtol=0, atol=1e-12)
        assert np.max(np.abs(assemble_constraints(state_set, rep.party) @ s), initial=0.0) <= 1e-8
        space = np.stack([h.coords for h in solution_space(state_set, rep.party)], axis=1)
        assert_array_equal(space, s)
    reports = [rep for rep in parties if rep.witness is not None]
    assert reports
    for rep in reports:
        w = rep.witness.coords
        assert rep.witness.dim == state_set.dims[rep.party]
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        assert w[0] == 0.0  # no component along the identity
        for rows in (assemble_constraints(state_set, rep.party),
                     brute_force_constraints(state_set, rep.party)):
            assert np.max(np.abs(rows @ w), initial=0.0) <= 1e-10
        assert np.linalg.norm(w - rep.solution @ (rep.solution.T @ w)) <= 1e-10


def test_duplicate_state_yields_not_orthogonal():
    s = theorem2_set(3, 2)
    dup = StateSet(s.dims, s.states + (s.states[0],), label="dup")
    cert = certify_nonlocal(dup)
    assert cert.verdict == "NOT_ORTHOGONAL"
    assert not cert.certified_nonlocal


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda v: Tolerances(tol_rank=v),
    lambda v: nullspace_real(np.eye(3), v),
    lambda v: assemble_constraints(theorem1_set(3, 2), 0, tol_active=v),
    lambda v: check_pairwise_orthogonality(theorem1_set(3, 2), tol=v),
    lambda v: matrix_to_coords(np.eye(2), tol=v),
    lambda v: canonical_compare(theorem1_set(3, 2), theorem1_set(3, 2), tol=v),
], ids=["Tolerances", "nullspace_real", "assemble_constraints", "check_pairwise_orthogonality",
        "matrix_to_coords", "canonical_compare"])
def test_every_tolerance_must_be_finite_and_positive(call, value):
    with pytest.raises(ValueError, match="bad-tolerance: .* must be finite and > 0"):
        call(value)


def test_certify_refuses_a_too_large_local_dimension():
    big = StateSet((65, 2, 2), tuple(
        ProductState((basis_vector(65, j), basis_vector(2, 0), basis_vector(2, 0)))
        for j in range(2)))
    with pytest.raises(ValueError, match="too-large: local dimension 65 exceeds 64"):
        certify_nonlocal(big)


def test_brute_force_refuses_a_too_large_local_dimension():
    # (2048, 2) passes the composite-dimension guard, but its basis would take about 560 TB.
    one = StateSet((2048, 2), (ProductState((basis_vector(2048, 0), basis_vector(2, 0))),))
    with pytest.raises(ValueError, match="too-large: local dimension 2048"):
        brute_force_constraints(one, 0)


def test_orthogonality_refuses_too_many_states():
    copies = StateSet((2, 2), (ProductState((basis_vector(2, 0), basis_vector(2, 1))),) * 8200)
    with pytest.raises(ValueError, match="too-large: 8200 states on 2 parties"):
        check_pairwise_orthogonality(copies)


# ---------------------------------------------------------------------------
# the shared pair-overlap table
# ---------------------------------------------------------------------------

def test_certificate_reads_each_party_once(monkeypatch):
    def refuse(self, party):
        raise AssertionError("the fast path reads the table, not party_vectors")

    monkeypatch.setattr(StateSet, "party_vectors", refuse)
    certifier._pair_overlaps.cache_clear()
    certify_nonlocal(theorem1_set(6, 3))
    assert certifier._pair_overlaps.cache_info().misses == 1


def _norm_without(state, party):
    return state.norm / np.linalg.norm(state.factors[party])


def _with_duplicate(s):
    return StateSet(s.dims, s.states + s.states[:1], label="dup")


@pytest.mark.parametrize(
    "state_set",
    [theorem1_set(6, 3), theorem4_set((3, 2, 4, 5, 4)), theorem4_set((2, 3, 4)),
     product_basis((2, 2, 2)), _with_duplicate(theorem2_set(3, 2))],
    ids=lambda s: s.label,
)
def test_assembly_matches_scalar_activity_and_residuals(state_set):
    tol = Tolerances()
    states, n = state_set.states, state_set.n_parties
    pairs = [(a, b) for a in range(len(states)) for b in range(a + 1, len(states))]
    report = check_pairwise_orthogonality(state_set, tol.tol_orth)
    listed = dict(zip(map(tuple, report.pairs.tolist()), report.residuals.tolist()))
    for a, b in pairs:
        want = abs(product_inner(states[a], states[b])) / (states[a].norm * states[b].norm)
        if (a, b) in listed:
            assert abs(listed[a, b] - want) <= 1e-15
        else:
            assert want == 0.0
    for k in (0, n // 2, n - 1):
        active = [(a, b) for a, b in pairs
                  if abs(partial_inner_excluding(states[a], states[b], k))
                  / (_norm_without(states[a], k) * _norm_without(states[b], k)) > tol.tol_active]
        d = state_set.dims[k]
        want = np.concatenate([np.zeros((0, d * d))] + [
            _constraint_rows(states[a].factors[k], states[b].factors[k]) for a, b in active])
        got = assemble_constraints(state_set, k, tol.tol_active)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
        assert certify_nonlocal(state_set, tol).parties[k].active_pairs == len(active)


def test_overlap_table_is_not_shared_between_sets():
    s = theorem2_set(3, 3)
    first = certify_nonlocal(s)
    dup = StateSet(s.dims, s.states + (s.states[0],), label="dup")
    assert certify_nonlocal(dup).verdict == "NOT_ORTHOGONAL"
    again = certify_nonlocal(s)
    assert first.verdict == again.verdict == "CERTIFIED_NONLOCAL"
    assert again.orthogonality.max_residual == first.orthogonality.max_residual
    assert_array_equal(again.orthogonality.pairs, first.orthogonality.pairs)
    assert_array_equal(again.orthogonality.residuals, first.orthogonality.residuals)
    assert [(p.active_pairs, p.solution_dim, p.trivial) for p in again.parties] == [
        (p.active_pairs, p.solution_dim, p.trivial) for p in first.parties]
    iu, jv, units, g = certifier._pair_overlaps(s)
    assert not any(a.flags.writeable for a in (iu, jv, g, *units))


def _dense_residuals(state_set):
    """Every pair's residual as an m x m matrix: one Gram product per party over
    its normalized table, gathered for all pairs and multiplied party by party."""
    units = certifier._pair_overlaps(state_set)[2]
    dense = np.ones((len(state_set),) * 2)
    for j, u in enumerate(units):
        column = state_set.index[:, j]
        dense = dense * np.abs(u.conj() @ u.T)[np.ix_(column, column)]
    return np.triu(dense, 1)


@pytest.mark.parametrize(
    "state_set",
    [*sweep_sets(), _with_duplicate(theorem2_set(3, 2)),
     StateSet((2, 3), (ProductState((basis_vector(2, 1), np.ones(3))),) * 6, label="copies"),
     product_basis((2, 3, 4)), product_basis((32, 32))],
    ids=lambda s: s.label,
)
def test_orthogonality_report_lists_every_nonzero_residual(state_set):
    tol = 1e-10
    report = check_pairwise_orthogonality(state_set, tol)
    dense = _dense_residuals(state_set)
    assert report.max_residual == float(dense.max())
    assert report.passed == (dense.max() <= tol)
    assert report.failing_pairs() == [
        (int(a), int(b), float(dense[a, b])) for a, b in np.argwhere(dense > tol)]
    m = len(state_set)
    assert report.pairs.dtype == np.int32 and report.pairs.shape == (report.residuals.size, 2)
    a, b = report.pairs.T
    assert (a < b).all() and (np.diff(a.astype(np.int64) * m + b) > 0).all()
    assert report.residuals.tobytes() == dense[a, b].tobytes()
    assert (report.residuals != 0).all()
    assert np.count_nonzero(dense) == report.residuals.size
    assert not report.pairs.flags.writeable and not report.residuals.flags.writeable


def _jittered(s, seed=7):
    """s with every local vector times its own complex scalar of modulus 0.5 to 2."""
    rng = np.random.default_rng(seed)
    return StateSet(s.dims, tuple(
        ProductState(tuple(f * rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
                           for f in state.factors))
        for state in s.states), label="rescaled " + s.label)


@pytest.mark.parametrize(
    "state_set",
    [*sweep_sets(), product_basis((2, 2, 2)), product_basis((3, 2, 2)),
     _with_duplicate(theorem2_set(3, 2)), _jittered(theorem1_set(4, 3))],
    ids=lambda s: s.label,
)
def test_table_keeps_exactly_the_pairs_orthogonal_on_at_most_one_party(state_set):
    iu, jv, units, others = certifier._pair_overlaps(state_set)
    assert iu.dtype == jv.dtype == np.int32 and not (iu.flags.writeable or jv.flags.writeable)
    m, n = len(state_set), state_set.n_parties
    kept = iu * m + jv
    assert (iu < jv).all() and (np.diff(kept) > 0).all()
    # exactly-zero local overlaps per pair, one scalar vdot at a time
    vecs = [[u[i] for i in state_set.index[:, j]] for j, u in enumerate(units)]
    zeros = {(a, b): sum(np.vdot(v[a], v[b]) == 0 for v in vecs)
             for a in range(m) for b in range(a + 1, m)}
    kept_set = set(zip(iu.tolist(), jv.tolist()))
    assert all((zeros[pair] <= 1) == (pair in kept_set) for pair in zeros)
    # others over every pair, by a dense prefix x suffix product, restricted to the kept ones
    all_iu, all_jv = np.triu_indices(m, 1)
    mags = [np.abs(u.conj() @ u.T)[state_set.index[all_iu, j], state_set.index[all_jv, j]]
            for j, u in enumerate(units)]
    prefix, suffix = [np.ones(all_iu.size)], [np.ones(all_iu.size)]
    for j in range(n):
        prefix.append(prefix[-1] * mags[j])
        suffix.insert(0, mags[n - 1 - j] * suffix[0])
    dense = np.stack([prefix[j] * suffix[j + 1] for j in range(n)] + [prefix[n]])
    restricted = dense[:, np.searchsorted(all_iu * m + all_jv, kept)]
    assert restricted.tobytes() == others.tobytes()


@pytest.mark.parametrize("state_set, limit_mib", [
    (theorem1_set(40, 4), 4),  # a table over all pairs peaks at about 18 MiB
    (product_basis((2,) * 9), 6),  # and here at about 21 MiB
    (product_basis((32, 32)), 7),  # a dense m x m report peaks at about 9.3 MiB
], ids=["theorem1_set(40, 4)", "product_basis((2,) * 9)", "product_basis((32, 32))"])
def test_cold_orthogonality_check_allocates_little_for_exactly_orthogonal_pairs(
        state_set, limit_mib):
    certifier._pair_overlaps.cache_clear()
    tracemalloc.start()
    try:
        check_pairwise_orthogonality(state_set)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


# ---------------------------------------------------------------------------
# parties that pose the same system share one solve
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, *names):
    """Count the calls the certifier makes to each named function of its module."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _func=getattr(certifier, name), **kwargs):
            counts[_name] += 1
            return _func(*args, **kwargs)
        monkeypatch.setattr(certifier, name, counted)
    return counts


@pytest.mark.parametrize("n", [20, 3])
def test_homogeneous_family_solves_three_distinct_parties(monkeypatch, n):
    # Parties 2..n-1 of theorem 1 pose one system; parties 0 and 1 each their own.
    counts = _count_calls(monkeypatch, "assemble_constraints", "nullspace_real")
    cert = certify_nonlocal(theorem1_set(n, 4))
    assert counts == {"assemble_constraints": 3, "nullspace_real": 3}
    assert [rep.party for rep in cert.parties] == list(range(n))
    assert cert.verdict == "CERTIFIED_NONLOCAL"


def test_active_codes_are_read_only():
    ia, jb = certifier._active_codes(theorem1_set(3, 4), 0, Tolerances().tol_active)
    assert not ia.flags.writeable and not jb.flags.writeable


def _assert_reports_equal_own_solves(state_set):
    """Every PartyReport of the certificate is, to the byte, the party's own solve."""
    tol = Tolerances()
    for k, got in enumerate(certify_nonlocal(state_set, tol).parties):
        want = certifier._party_report(state_set, k, tol)
        assert got.party == want.party == k
        assert ((got.active_pairs, got.solution_dim, got.trivial)
                == (want.active_pairs, want.solution_dim, want.trivial))
        assert got.solution.shape == want.solution.shape
        assert got.solution.tobytes() == want.solution.tobytes()
        assert (got.witness is None) == (want.witness is None)
        if want.witness is not None:
            assert got.witness.dim == want.witness.dim
            assert got.witness.coords.tobytes() == want.witness.coords.tobytes()


def _perfbench_sets():
    """The set of every case the benchmark in perfbench/workloads.py can send."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks its module up there
    spec.loader.exec_module(workloads)
    cases = workloads.all_cases()
    assert {c.kind for c in cases} == {"generate", "control", "selftest"}
    return ([_generate_set(c.theorem, c.dims) for c in cases if c.kind == "generate"]
            + [product_basis(c.dims) for c in cases if c.kind == "control"])


_SHARING_GROUPS = {
    "test-sweep": sweep_sets,
    "selftest-sweep": lambda: [s for s, _ in _sweep_sets()],
    "perfbench": _perfbench_sets,
    "controls": lambda: [product_basis((2, 2)), product_basis((2, 2, 2)),
                         product_basis((3, 2, 2)), _jittered(theorem1_set(40, 4)),
                         _jittered(theorem2_set(5, 3))],
}


@pytest.mark.parametrize("group", list(_SHARING_GROUPS))
def test_every_shared_report_is_the_partys_own_solve(group):
    for state_set in _SHARING_GROUPS[group]():
        _assert_reports_equal_own_solves(state_set)


def test_equal_tables_with_different_active_pairs_are_solved_apart(monkeypatch):
    # Every party's table is (|0>, |1>); only party 0 has an active pair, (0, 1).
    e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
    s = StateSet((2, 2, 2), [ProductState(f) for f in
                             [(e0, e0, e0), (e1, e0, e0), (e0, e1, e1)]])
    assert s.vectors[0].tobytes() == s.vectors[1].tobytes() == s.vectors[2].tobytes()
    counts = _count_calls(monkeypatch, "assemble_constraints")
    assert [rep.active_pairs for rep in certify_nonlocal(s).parties] == [1, 0, 0]
    assert counts == {"assemble_constraints": 2}
    _assert_reports_equal_own_solves(s)


def test_different_tables_with_equal_active_rows_are_solved_apart(monkeypatch):
    # Party 0's table is (|0>, |1>) and party 1's (|+>, |->); each party's one
    # active pair holds its table rows 0 and 1, so only the vectors differ.
    # Party 2 poses party 0's system.
    e0, e1 = basis_vector(2, 0), basis_vector(2, 1)
    plus, minus = (e0 + e1) / np.sqrt(2), (e0 - e1) / np.sqrt(2)
    s = StateSet((2, 2, 2), [ProductState(f) for f in [
        (e0, plus, e0), (e1, plus, e0), (e0, plus, e1), (e0, minus, e1)]])
    counts = _count_calls(monkeypatch, "assemble_constraints")
    assert [rep.active_pairs for rep in certify_nonlocal(s).parties] == [1, 1, 1]
    assert counts == {"assemble_constraints": 2}
    _assert_reports_equal_own_solves(s)


def test_equal_table_bytes_in_different_shapes_are_solved_apart(monkeypatch):
    # Party 0's (2, 4) table and party 1's (4, 2) table hold the same eight
    # amplitudes, and each party's one active pair holds its table rows 0 and 1.
    flat = np.array([1, 0, 0, 1, 1, 1, 1, -1], dtype=complex)
    index = [[0, 0, 0], [1, 0, 0], [0, 0, 1], [0, 1, 1], [0, 2, 2], [1, 3, 3]]
    s = StateSet.from_table((4, 2, 4), [flat.reshape(2, 4), flat.reshape(4, 2), np.eye(4)],
                            index)
    assert s.vectors[0].tobytes() == s.vectors[1].tobytes()
    assert s.vectors[0] is not s.vectors[1]  # equal bytes, different tables
    for k in (0, 1):
        ia, jb = certifier._active_codes(s, k, Tolerances().tol_active)
        assert (ia.tolist(), (ia * len(s.vectors[k]) + jb).tolist()) == ([0], [1])
    counts = _count_calls(monkeypatch, "assemble_constraints")
    assert [rep.solution_dim for rep in certify_nonlocal(s).parties][:2] == [14, 2]
    assert counts == {"assemble_constraints": 3}
    _assert_reports_equal_own_solves(s)


def test_certify_refuses_a_too_large_local_dimension_before_the_pair_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pair table must not be built for a refused set")

    monkeypatch.setattr(certifier, "_pair_overlaps", refuse)
    big = StateSet((2, 65), tuple(
        ProductState((basis_vector(2, 0), basis_vector(65, j))) for j in range(3)))
    with pytest.raises(ValueError, match="too-large: local dimension 65 exceeds 64"):
        certify_nonlocal(big)


@pytest.mark.parametrize("state_set, pairs", [
    (theorem1_set(3, 64), 19845),  # 81.3M entries, a set nlops generate writes
    (product_basis((64, 64)), 129024),  # 528M entries
], ids=["theorem1_set(3, 64)", "product_basis((64, 64))"])
def test_assembly_refuses_too_many_entries_before_the_basis(monkeypatch, state_set, pairs):
    def refuse(*args, **kwargs):
        raise AssertionError("the Hermitian basis must not be built for a refused party")

    monkeypatch.setattr(certifier, "hermitian_basis_flat", refuse)
    message = f"too-large: {pairs} active pairs of local dimension 64 exceed 67108864"
    with pytest.raises(ValueError, match=message):
        assemble_constraints(state_set, 0)
    with pytest.raises(ValueError, match=message):
        certify_nonlocal(state_set)


@pytest.mark.parametrize("slack, refused", [(0, False), (-1, True)])
def test_assembly_bound_admits_exactly_its_entries(monkeypatch, slack, refused):
    state_set = theorem1_set(3, 3)
    rows = assemble_constraints(state_set, 0)
    monkeypatch.setattr(certifier, "MAX_OVERLAP_ENTRIES", rows.shape[0] // 2 * 9 + slack)
    if refused:
        with pytest.raises(ValueError,
                           match="too-large: 20 active pairs of local dimension 3 exceed 179 "):
            assemble_constraints(state_set, 0)
    else:
        assert_array_equal(assemble_constraints(state_set, 0), rows)
