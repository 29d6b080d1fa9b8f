"""Tests for the family generators and their documented layouts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from nlops import (
    ProductState,
    StateSet,
    basis_vector,
    canonical_compare,
    check_pairwise_orthogonality,
    phase_vector,
    product_basis,
    product_inner,
    theorem1_set,
    theorem2_set,
    theorem3_set,
    theorem4_set,
)
from nlops.constructions import _has_perfect_matching

from sweeps import sweep_sets


def test_phase_vector_examples():
    assert_allclose(phase_vector(2, 0), [1, 1], atol=1e-15)
    assert_allclose(phase_vector(2, 1), [1, -1], atol=1e-12)
    assert_allclose(phase_vector(4, 1), [1, 1j, -1, -1j], atol=1e-12)


def test_phase_vector_t_mod_d():
    assert_allclose(phase_vector(3, 4), phase_vector(3, 1), atol=1e-15)
    assert_allclose(phase_vector(3, -1), phase_vector(3, 2), atol=1e-15)


def test_phase_vectors_orthogonal_for_distinct_t():
    for d in (2, 3, 5):
        for t in range(d):
            for s in range(t + 1, d):
                assert abs(np.vdot(phase_vector(d, t), phase_vector(d, s))) < 1e-12


def test_basis_vector_examples():
    assert_allclose(basis_vector(2, 0), [1, 0])
    assert_allclose(basis_vector(3, 2), [0, 0, 1])
    with pytest.raises(ValueError, match="bad-index"):
        basis_vector(2, 2)


def test_theorem1_3_2_exact_state_list():
    expected = [
        ([1, 1], [0, 1], [1, 0]),
        ([1, -1], [0, 1], [1, 0]),
        ([1, 0], [1, 1], [0, 1]),
        ([1, 0], [1, -1], [0, 1]),
        ([0, 1], [1, 0], [1, 1]),
        ([0, 1], [1, 0], [1, -1]),
    ]
    got = theorem1_set(3, 2)
    assert len(got) == 6
    for state, exp in zip(got.states, expected):
        for vec, evec in zip(state.factors, exp):
            assert_allclose(vec, evec, atol=1e-12)


def test_theorem2_3_2_exact_state_list():
    expected = [
        ([1, -1], [0, 1], [1, 0]),
        ([1, 0], [1, -1], [0, 1]),
        ([0, 1], [1, 0], [1, -1]),
        ([1, 1], [1, 1], [1, 1]),
    ]
    got = theorem2_set(3, 2)
    assert len(got) == 4
    for state, exp in zip(got.states, expected):
        for vec, evec in zip(state.factors, exp):
            assert_allclose(vec, evec, atol=1e-12)


def test_theorem3_heterogeneous_first_state():
    got = theorem3_set((2, 3, 4))
    first = got.states[0]
    assert_allclose(first.factors[0], [1, 1], atol=1e-15)
    assert_allclose(first.factors[1], [0, 0, 1])
    assert_allclose(first.factors[2], [1, 0, 0, 0])


def test_theorem4_stopper_is_all_ones():
    got = theorem4_set((2, 3, 2))
    stopper = got.states[-1]
    for vec in stopper.factors:
        assert_allclose(vec, np.ones(len(vec)), atol=1e-15)


@pytest.mark.parametrize(
    "dims,count3,count4",
    [
        ((2, 2, 2), 6, 4),
        ((3, 3, 3), 12, 10),
        ((2, 3, 4), 12, 10),
    ],
)
def test_heterogeneous_counts(dims, count3, count4):
    assert len(theorem3_set(dims)) == count3 == sum(2 * (d - 1) for d in dims)
    assert len(theorem4_set(dims)) == count4 == sum(2 * d - 3 for d in dims) + 1


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 3), (5, 4)])
def test_homogeneous_counts(n, d):
    assert len(theorem1_set(n, d)) == 2 * n * (d - 1)
    assert len(theorem2_set(n, d)) == n * (2 * d - 3) + 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_d2_degeneracy(n):
    assert len(theorem1_set(n, 2)) == 2 * n
    assert len(theorem2_set(n, 2)) == n + 1


def test_two_parties_rejected():
    with pytest.raises(ValueError, match="need-three-parties"):
        theorem1_set(2, 3)
    with pytest.raises(ValueError, match="need-three-parties"):
        theorem3_set((4, 4))


def test_two_party_analog_really_is_non_orthogonal():
    # The would-be family-0 and wrap-family states on two parties overlap:
    # both put a phase vector on one party and the top level on the other.
    d = 3
    a = ProductState((phase_vector(d, 0), basis_vector(d, d - 1)))
    b = ProductState((basis_vector(d, d - 1), phase_vector(d, 1)))
    assert abs(product_inner(a, b)) > 0.5


def test_bad_dimension_rejected():
    with pytest.raises(ValueError, match="bad-dimension"):
        theorem3_set((2, 1, 2))
    with pytest.raises(ValueError, match="bad-dimension"):
        theorem2_set(3, 1)


def test_every_local_is_basis_or_phase_vector():
    for state_set in (theorem1_set(4, 3), theorem4_set((2, 3, 4))):
        for state in state_set:
            for party, vec in enumerate(state.factors):
                d = state_set.dims[party]
                candidates = [basis_vector(d, j) for j in range(d)]
                candidates += [phase_vector(d, t) for t in range(d)]
                assert any(np.array_equal(vec, c) for c in candidates)


@pytest.mark.parametrize(
    "state_set",
    [theorem1_set(3, 3), theorem2_set(4, 2), theorem3_set((2, 3, 4)),
     theorem4_set((3, 2, 2)), theorem4_set((2, 3, 2))],
    ids=lambda s: s.label,
)
def test_generated_sets_are_pairwise_orthogonal(state_set):
    report = check_pairwise_orthogonality(state_set, tol=1e-10)
    assert report.passed, report.max_residual


@pytest.mark.parametrize("dims", [(2, 6, 2), (6, 2, 2), (2, 2, 6), (2, 6, 3, 2)])
def test_strongly_asymmetric_dims_stay_orthogonal(dims):
    # the wrap-around family's marker levels depend on the smallest party
    for fn in (theorem3_set, theorem4_set):
        report = check_pairwise_orthogonality(fn(dims), tol=1e-10)
        assert report.passed, (dims, report.max_residual)


def test_canonical_compare_reductions():
    assert canonical_compare(theorem1_set(3, 2), theorem3_set((2, 2, 2)))
    assert canonical_compare(theorem2_set(3, 3), theorem4_set((3, 3, 3)))
    assert not canonical_compare(theorem1_set(3, 2), theorem2_set(3, 2))


def test_canonical_compare_scalar_equivalence():
    base = theorem2_set(3, 2)
    scaled = type(base)(
        base.dims,
        tuple(s.scaled(2j) for s in base.states),
        label="scaled",
    )
    assert canonical_compare(base, scaled)


def test_canonical_compare_dim_mismatch():
    with pytest.raises(ValueError, match="dim-mismatch"):
        canonical_compare(theorem1_set(3, 2), theorem1_set(3, 3))


@settings(derandomize=True, deadline=None)
@given(st.data())
def test_canonical_compare_ignores_order_and_scalars(data):
    base = data.draw(st.sampled_from(sweep_sets()))
    order = data.draw(st.permutations(range(len(base))))
    scalars = data.draw(st.lists(
        st.tuples(st.floats(0.1, 10.0), st.floats(0.0, 2 * np.pi)),
        min_size=len(base), max_size=len(base)))
    moved = StateSet(base.dims, tuple(
        base.states[i].scaled(r * np.exp(1j * phi)) for i, (r, phi) in zip(order, scalars)))
    assert canonical_compare(base, moved)
    assert canonical_compare(moved, base)


def test_canonical_compare_needs_a_bijection():
    s0, s1, s2 = theorem1_set(3, 2).states[:3]
    dims = (2, 2, 2)
    assert not canonical_compare(StateSet(dims, (s0, s1, s2)), StateSet(dims, (s0, s0, s2)))
    # every state has a parallel partner on the other side, but not one each
    assert not canonical_compare(StateSet(dims, (s0, s0, s1)), StateSet(dims, (s0, s1, s1)))


def test_canonical_compare_empty_sets():
    assert canonical_compare(StateSet((2, 2, 2), ()), StateSet((2, 2, 2), ()))


def test_canonical_compare_many_copies_of_one_state():
    copies = StateSet((2, 2, 2), theorem1_set(3, 2).states[:1] * 2000)
    assert canonical_compare(copies, copies)


@pytest.mark.parametrize("m", range(7))
def test_matching_agrees_with_brute_force(m):
    rng = np.random.default_rng(m)
    perms = np.array(list(itertools.permutations(range(m))), dtype=int)
    for density in np.linspace(0.1, 0.9, 300):
        parallel = rng.random((m, m)) < density
        expected = bool(parallel[np.arange(m), perms].all(axis=1).any())
        assert _has_perfect_matching(parallel) == expected, parallel


def test_product_basis():
    pb = product_basis((2, 3))
    assert len(pb) == 6
    report = check_pairwise_orthogonality(pb)
    assert report.passed
