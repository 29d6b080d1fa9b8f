"""Tests for inner products, the Hermitian basis, and the null-space solver."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from nlops import (
    HermitianCoords,
    ProductState,
    StateSet,
    coords_to_matrix,
    hermitian_basis,
    hermitian_basis_flat,
    inner,
    matrix_to_coords,
    nullspace_real,
    partial_inner_excluding,
    phase_vector,
    product_inner,
    theorem1_set,
)
from nlops.cli import _subspace_gap


def _random_product_state(rng, dims):
    return ProductState(
        tuple(rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in dims)
    )


# ---------------------------------------------------------------------------
# inner / product_inner / partial_inner_excluding
# ---------------------------------------------------------------------------

def test_inner_examples():
    assert inner([1, 0], [1, 0]) == 1
    assert inner([1, 1], [1, -1]) == 0
    # geometric sum of cube roots of unity
    assert abs(inner(phase_vector(3, 1), phase_vector(3, 2))) < 1e-12


def test_inner_conjugates_first_argument():
    val = inner([1j, 0], [1, 0])
    assert_allclose(val, -1j)


def test_inner_self_is_squared_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        val = inner(u, u)
        assert abs(val.imag) < 1e-12
        assert val.real >= 0
        assert_allclose(val.real, np.sum(np.abs(u) ** 2), rtol=1e-12)


def test_inner_dim_mismatch():
    with pytest.raises(ValueError, match="dim-mismatch"):
        inner([1, 0], [1, 0, 0])


def test_product_inner_examples():
    s = ProductState(([1, 0], [1, 0]))
    assert product_inner(s, s) == 1

    a = ProductState(([1, 1], [0, 1], [1, 0]))
    b = ProductState(([1, -1], [0, 1], [1, 0]))
    assert abs(product_inner(a, b)) < 1e-12  # party-0 factor <(1,1)|(1,-1)> = 0

    stopper = ProductState(([1, 1], [1, 1], [1, 1]))
    assert abs(product_inner(stopper, b)) < 1e-12


def test_product_inner_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = _random_product_state(rng, (2, 3, 2))
        b = _random_product_state(rng, (2, 3, 2))
        assert_allclose(product_inner(a, b), np.conj(product_inner(b, a)), atol=1e-12)


def test_product_inner_factorizes_through_every_party():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = _random_product_state(rng, (3, 2, 4))
        b = _random_product_state(rng, (3, 2, 4))
        full = product_inner(a, b)
        scale = a.norm * b.norm
        for k in range(3):
            part = partial_inner_excluding(a, b, k) * inner(a.factors[k], b.factors[k])
            assert abs(full - part) <= 1e-12 * scale


def test_partial_inner_examples():
    s1 = ProductState(([1, -1], [0, 1], [1, 0]))
    s2 = ProductState(([1, 0], [1, -1], [0, 1]))
    s4 = ProductState(([1, 1], [1, 1], [1, 1]))
    assert partial_inner_excluding(s1, s4, 0) == 1  # <(0,1)|(1,1)> * <(1,0)|(1,1)>
    assert partial_inner_excluding(s1, s2, 0) == 0  # party-2 factor <(1,0)|(0,1)> = 0


def test_partial_inner_single_party_empty_product():
    a = ProductState(([1, 2j],))
    b = ProductState(([3, 4],))
    assert partial_inner_excluding(a, b, 0) == 1


def test_partial_inner_bad_party():
    a = ProductState(([1, 0], [0, 1]))
    with pytest.raises(ValueError, match="bad-party"):
        partial_inner_excluding(a, a, 2)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

def test_product_state_rejects_bad_locals():
    with pytest.raises(ValueError, match="bad-local"):
        ProductState(([0, 0], [1, 0]))
    with pytest.raises(ValueError, match="bad-local"):
        ProductState(([np.inf, 0], [1, 0]))


def test_product_state_factors_are_frozen():
    s = ProductState(([1, 0], [0, 1]))
    with pytest.raises(ValueError):
        s.factors[0][0] = 5.0


def test_product_state_owns_its_amplitudes():
    first = np.array([1.0, 2.0j])
    second = np.array([3.0, 0.0, -1.0], dtype=np.complex128)
    s = ProductState((first, second))
    first[:] = 0
    second[0] = np.nan
    assert np.array_equal(s.factors[0], [1.0, 2.0j])
    assert np.array_equal(s.factors[1], [3.0, 0.0, -1.0])
    assert s.dims == (2, 3)
    assert not any(f.flags.writeable for f in s.factors)


def test_product_state_rejects_zero_and_infinite_factors_together():
    with pytest.raises(ValueError, match="bad-local"):
        ProductState(([0, 0], [np.inf, 1]))
    with pytest.raises(ValueError, match="bad-local"):
        ProductState(([1, 1], [0, 0, 0], [1, 0]))
    with pytest.raises(ValueError, match="bad-local"):
        ProductState(([1, 1], [0, 0, 1], [0, 0]))


def test_state_set_validation():
    good = ProductState(([1, 0], [0, 1]))
    with pytest.raises(ValueError, match="dim-mismatch"):
        StateSet((2, 3), (good,))
    with pytest.raises(ValueError, match="bad-dimension"):
        StateSet((2,), (ProductState(([1, 0],)),))
    ss = StateSet((2, 2), (good,), label="x")
    assert len(ss) == 1 and ss.n_parties == 2
    with pytest.raises(AttributeError):
        ss.label = "y"
    with pytest.raises(AttributeError):
        del ss.index


_ONE = np.array([[1.0, 0.0]])
_BOTH = np.array([[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("vectors, index, error", [
    ((_ONE,), [[0, 0]], "bad-table: need one vector table"),
    ((_ONE, _ONE), [[0]], "bad-table: need one vector table"),
    ((_ONE, np.ones((1, 3))), [[0, 0]], "dim-mismatch: party 1 table has shape"),
    ((_ONE, np.zeros((1, 2))), [[0, 0]], "bad-local: a local vector needs"),
    ((_ONE, np.array([[np.nan, 1.0]])), [[0, 0]], "bad-local: amplitudes must be finite"),
    ((_ONE, np.array([[1e200, 0.0]])), [[0, 0]], "bad-local: a local vector's squared norm"),
    ((_ONE, np.array([[1e-200, 0.0]])), [[0, 0]], "bad-local: a local vector's squared norm"),
    ((_ONE, _BOTH), [[0, 2]], "bad-table: party 1 index out of range"),
    ((_ONE, _BOTH), [[0, -1]], "bad-table: party 1 index out of range"),
    ((_ONE, _BOTH), [[0, 1]], "bad-table: party 1 table holds a vector no state uses"),
    ((_ONE, np.vstack([_ONE, _ONE])), [[0, 0], [0, 1]], "bad-table: party 1 table repeats"),
    ((_BOTH, _BOTH), np.array([[0, 1], [1, 0]]) + 0.7, "bad-table: index must be an integer array"),
    ((_BOTH, _BOTH), [[2**70, 0], [1, 1]], "bad-table: index must be an integer array"),
])
def test_state_set_table_is_checked(vectors, index, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}"):
        StateSet.from_table((2, 2), vectors, index)


@pytest.mark.parametrize("label", [5, None, ["x"]])
def test_state_set_refuses_a_label_that_is_no_string(label):
    # A file holds only a string label, so such a set could not be loaded back.
    good = ProductState(([1, 0], [0, 1]))
    with pytest.raises(ValueError, match="^bad-label: "):
        StateSet((2, 2), (good,), label=label)
    with pytest.raises(ValueError, match="^bad-label: "):
        StateSet.from_table((2, 2), (_ONE, _ONE), [[0, 0]], label=label)


def test_state_set_from_table_copies_its_input():
    vectors, index = [_BOTH.copy(), _BOTH.copy()], np.array([[0, 1], [1, 0]])
    ss = StateSet.from_table((2, 2), vectors, index, label="t")
    vectors[0][:] = 5
    index[:] = 0
    assert_array_equal(ss.party_vectors(0), _BOTH)
    assert_array_equal(ss.party_vectors(1), _BOTH[::-1])
    assert not any(f.flags.writeable for f in (ss.index, *ss.vectors))


def test_parties_with_equal_tables_share_one_array():
    vectors = theorem1_set(40, 4).vectors
    assert all(v is vectors[0] for v in vectors)
    assert not vectors[0].flags.writeable


def test_from_table_stores_one_copy_of_a_table_given_twice():
    table = _BOTH.copy()
    ss = StateSet.from_table((2, 2), [table, table], [[0, 1], [1, 0]])
    assert ss.vectors[0] is ss.vectors[1]
    assert not np.shares_memory(ss.vectors[0], table)
    assert not ss.vectors[0].flags.writeable


@pytest.mark.parametrize("vectors, index, error", [
    ((_ONE, np.vstack([_ONE, _ONE]), np.vstack([_ONE, _ONE])), [[0, 0, 0], [0, 1, 1]],
     "bad-table: party 1 table repeats a vector"),
    ((_BOTH, _BOTH, _ONE), [[0, 0, 0], [1, 2, 0]], "bad-table: party 1 index out of range"),
    ((_BOTH, _BOTH, _ONE), [[0, 0, 0], [1, 0, 0]],
     "bad-table: party 1 table holds a vector no state uses"),
], ids=["repeat", "range", "usage"])
def test_a_shared_table_is_refused_at_the_party_at_fault(vectors, index, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        StateSet.from_table((2, 2, 2), vectors, index)


# ---------------------------------------------------------------------------
# hermitian basis and coordinates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", range(1, 7))
def test_hermitian_basis_count(d):
    assert len(hermitian_basis(d)) == d * d


@pytest.mark.parametrize("d", range(1, 6))
def test_hermitian_basis_first_element_is_scaled_identity(d):
    assert_allclose(hermitian_basis(d)[0], np.eye(d) / np.sqrt(d), atol=1e-15)


@pytest.mark.parametrize("d", range(2, 6))
def test_hermitian_basis_gram_is_identity(d):
    flat = hermitian_basis_flat(d)
    gram = (flat.conj() @ flat.T).real
    assert_allclose(gram, np.eye(d * d), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_hermitian_basis_elements_are_hermitian(d):
    for b in hermitian_basis(d):
        assert_allclose(b, b.conj().T, atol=1e-15)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_hermitian_basis_matrices_are_read_only_views_of_the_flat_basis(d):
    flat = hermitian_basis_flat(d)
    assert not flat.flags.writeable
    for i, b in enumerate(hermitian_basis(d)):
        assert np.shares_memory(b, flat)
        assert not b.flags.writeable
        assert_array_equal(b.reshape(-1), flat[i])


def test_coords_to_matrix_identity_example():
    m = coords_to_matrix(HermitianCoords(2, [np.sqrt(2), 0, 0, 0]))
    assert_allclose(m, np.eye(2), atol=1e-15)


def test_matrix_to_coords_identity_example():
    h = matrix_to_coords(np.eye(3))
    expected = np.zeros(9)
    expected[0] = np.sqrt(3)
    assert_allclose(h.coords, expected, atol=1e-14)


def test_coords_roundtrip_random_hermitian():
    rng = np.random.default_rng(23)
    for d in (2, 3, 4):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        back = coords_to_matrix(matrix_to_coords(h))
        assert np.max(np.abs(back - h)) <= 1e-12


def test_matrix_to_coords_rejects_nonhermitian():
    with pytest.raises(ValueError, match="not-hermitian"):
        matrix_to_coords(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# null-space solver
# ---------------------------------------------------------------------------

def test_nullspace_examples():
    b = nullspace_real(np.array([[1.0, 0.0]]))
    assert b.shape == (2, 1)
    assert_allclose(np.abs(b[:, 0]), [0, 1], atol=1e-14)

    assert nullspace_real(np.eye(2)).shape == (2, 0)

    b = nullspace_real(np.array([[1.0, 1.0]]))
    assert_allclose(np.abs(b[:, 0]), [1 / np.sqrt(2)] * 2, atol=1e-14)
    assert abs(b[0, 0] + b[1, 0]) < 1e-14


def test_nullspace_empty_and_zero_matrices():
    full = nullspace_real(np.zeros((0, 3)))
    assert full.shape == (3, 3)
    assert_allclose(full.T @ full, np.eye(3), atol=1e-14)

    full = nullspace_real(np.zeros((2, 3)))
    assert full.shape == (3, 3)

    # Every row of an all-zero matrix is dropped, so it has the full space, tall or not.
    for rows in (2, 3, 9):
        assert_array_equal(nullspace_real(np.zeros((rows, 3))), np.eye(3))


def test_nullspace_of_subnormal_rows():
    # A kept row has a nonzero entry, so even subnormal rows have a positive
    # largest singular value and count toward the rank.
    assert nullspace_real([[5e-324, 0.0]]).shape == (2, 1)
    assert nullspace_real(np.full((3, 4), 1e-310)).shape == (4, 3)


def _low_rank(rng, rows, rank, cols):
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


def test_nullspace_ignores_exactly_zero_rows():
    rng = np.random.default_rng(17)
    for rows, rank, cols in [(4, 2, 9), (12, 5, 9), (40, 7, 16), (3, 3, 3)]:
        a = _low_rank(rng, rows, rank, cols)
        padded = np.zeros((3 * rows + 1, cols))
        padded[1::3] = a  # zero rows before, between and after a's rows
        want = nullspace_real(a)
        got = nullspace_real(padded)
        assert got.shape == want.shape == (cols, cols - rank)
        assert _subspace_gap(got, want) <= 1e-12
    # Only exact zeros go: a small row above the rank tolerance still constrains.
    assert_array_equal(np.abs(nullspace_real(np.diag([1.0, 1e-8, 0.0]))), [[0.0], [0.0], [1.0]])


@pytest.mark.parametrize("cols", [6, 12, 81])
def test_nullspace_agrees_with_thin_svd_around_the_qr_crossover(cols):
    rng = np.random.default_rng(cols)
    crossover = cols * 11 // 6  # LAPACK dgesdd's MNTHR
    rank = cols // 2
    for rows in (crossover - 1, crossover, crossover + 1):
        a = _low_rank(rng, rows, rank, cols)
        _, s, vt = np.linalg.svd(a, full_matrices=False)
        want = vt[np.count_nonzero(s >= 1e-9 * s[0]):].T
        got = nullspace_real(a)
        assert got.shape == want.shape == (cols, cols - rank)
        assert _subspace_gap(got, want) <= 1e-12


def test_nullspace_rank_plus_nullity_and_residuals():
    rng = np.random.default_rng(31)
    tol = 1e-9
    for _ in range(25):
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        basis = nullspace_real(a, tol)
        true_rank = np.linalg.matrix_rank(a)
        assert basis.shape[1] + true_rank == cols
        if basis.shape[1]:
            assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
            smax = np.linalg.norm(a, 2)
            assert np.max(np.abs(a @ basis)) <= 10 * tol * max(smax, 1.0)


def test_nullspace_tall_matrix_allocates_no_square_u():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3000, 5)) @ rng.standard_normal((5, 9))
    tracemalloc.start()
    try:
        basis = nullspace_real(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20  # a full 3000 x 3000 U alone takes 72 MB
    assert basis.shape == (9, 9 - np.linalg.matrix_rank(a))
    assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
    assert np.max(np.abs(a @ basis)) <= 1e-9 * np.linalg.norm(a, 2)

    # A wide matrix still gets the full vt that holds its null space.
    a = rng.standard_normal((3, 9))
    basis = nullspace_real(a)
    assert basis.shape == (9, 6)
    assert_allclose(basis.T @ basis, np.eye(6), atol=1e-12)
    assert np.max(np.abs(a @ basis)) <= 1e-12
