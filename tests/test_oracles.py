"""Tests for the root-of-unity, Vandermonde, and Cramer-rule cross-checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nlops import (
    cramer_solve,
    det_cofactor,
    proof_determinants_nonzero,
    roots_of_unity,
    vandermonde_det,
)


def test_roots_of_unity_examples():
    assert_allclose(roots_of_unity(2), [1, -1], atol=1e-12)
    assert_allclose(roots_of_unity(4), [1, 1j, -1, -1j], atol=1e-12)


def test_roots_of_unity_distinct_and_unimodular():
    for d in range(2, 17):
        roots = roots_of_unity(d)
        sep = min(abs(roots[i] - roots[j]) for i in range(d) for j in range(i + 1, d))
        assert sep > 1e-9
        assert np.max(np.abs(roots**d - 1.0)) <= 1e-12


def test_roots_of_unity_bad_dimension():
    with pytest.raises(ValueError, match="bad-dimension"):
        roots_of_unity(1)


def test_vandermonde_det_examples():
    assert vandermonde_det([1, 2]) == 1
    assert vandermonde_det([0, 1, 2]) == 2  # (1-0)(2-0)(2-1)
    assert vandermonde_det([1, 1]) == 0
    assert vandermonde_det([5]) == 1
    assert vandermonde_det([]) == 1


def test_empty_determinant_is_the_empty_product():
    assert det_cofactor(np.zeros((0, 0))) == vandermonde_det([]) == 1


def test_cramer_solves_the_empty_system():
    assert cramer_solve(np.zeros((0, 0)), []).shape == (0,)


def test_vandermonde_det_matches_cofactor_expansion():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        nodes = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        explicit = det_cofactor(np.vander(nodes, increasing=True))
        product = vandermonde_det(nodes)
        assert abs(product - explicit) <= 1e-10 * max(1.0, abs(explicit))


def test_vandermonde_vanishes_iff_nodes_collide():
    rng = np.random.default_rng(5)
    for _ in range(10):
        nodes = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(vandermonde_det(nodes)) > 0
        dup = np.concatenate([nodes, nodes[:1]])
        assert abs(vandermonde_det(dup)) <= 1e-12


@pytest.mark.parametrize("d", range(2, 9))
def test_vandermonde_on_all_roots_has_magnitude_d_to_the_d_half(d):
    val = abs(vandermonde_det(roots_of_unity(d)))
    target = d ** (d / 2)
    assert abs(val - target) <= 1e-9 * target


def test_proof_determinants_d2():
    assert_allclose(proof_determinants_nonzero(2), [1.0, 1.0], atol=1e-14)


def test_proof_determinants_d3():
    # each leave-one-out pair of cube roots differs by |w - 1| = 2 sin(pi/3)
    assert_allclose(proof_determinants_nonzero(3), [np.sqrt(3)] * 3, rtol=1e-12)


@pytest.mark.parametrize("d", range(2, 9))
def test_proof_determinants_all_nonzero(d):
    assert proof_determinants_nonzero(d).min() > 1e-8


def test_cramer_solve_examples():
    assert_allclose(cramer_solve(np.eye(2), [3, 4]), [3, 4], atol=1e-14)
    assert_allclose(cramer_solve([[2, 0], [0, 4]], [2, 4]), [1, 1], atol=1e-14)


def test_cramer_solve_fourier_system_round_trip():
    # Rows conj(w)^{s j} on the cube roots of unity; the right-hand side
    # conj(w)^{s p} pins the unique solution to the p-th coordinate vector.
    w = np.exp(2j * np.pi / 3)
    rows = np.array([[np.conj(w) ** (s * j) for j in range(3)] for s in range(3)])
    for p in range(2):
        rhs = np.array([np.conj(w) ** (s * p) for s in range(3)])
        x = cramer_solve(rows, rhs)
        expected = np.zeros(3, dtype=complex)
        expected[p] = 1.0
        assert_allclose(x, expected, atol=1e-12)


def test_cramer_solve_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        cramer_solve([[1, 1], [1, 1]], [1, 2])


def test_cramer_solve_rejects_large_systems():
    with pytest.raises(ValueError, match="too-large"):
        cramer_solve(np.eye(7), np.ones(7))


def test_cramer_matches_dense_solver():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        while True:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if np.linalg.cond(a) < 100:
                break
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        worst = max(worst, float(np.max(np.abs(cramer_solve(a, b) - np.linalg.solve(a, b)))))
    assert worst <= 1e-9
