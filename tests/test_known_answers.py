"""Known answers from the literature: sets whose local (in)distinguishability is published."""

import numpy as np
import pytest
from corpus import KNOWN_NONLOCAL
from hypothesis import given, settings, strategies as st

from nlops import (
    ProductState,
    StateSet,
    brute_force_constraints,
    certify_nonlocal,
    nullspace_real,
    product_basis,
)


@pytest.mark.parametrize("state_set, parties", KNOWN_NONLOCAL,
                         ids=[s.label for s, _ in KNOWN_NONLOCAL])
def test_locally_indistinguishable_sets_are_certified(state_set, parties):
    cert = certify_nonlocal(state_set)
    assert cert.verdict == "CERTIFIED_NONLOCAL"
    assert [(p.solution_dim, p.active_pairs) for p in cert.parties] == parties
    assert all(p.trivial for p in cert.parties)
    # the oracle, from explicit full vectors, leaves only the identity too
    assert [nullspace_real(brute_force_constraints(state_set, k)).shape[1]
            for k in range(state_set.n_parties)] == [1] * state_set.n_parties


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2), (1, 1), (1, 1, 1)])
def test_product_bases_are_not_certified(dims):
    # Each party may measure in its own basis: every diagonal operator is admissible.
    # A one-state basis, every d = 1, has nothing to tell apart.
    state_set = product_basis(dims)
    cert = certify_nonlocal(state_set)
    assert cert.verdict == "NOT_CERTIFIED"
    assert [p.solution_dim for p in cert.parties] == list(dims)
    assert [nullspace_real(brute_force_constraints(state_set, k)).shape[1]
            for k in range(len(dims))] == list(dims)


def _random_vector(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_two_orthogonal_product_states_are_never_certified(data):
    # Any two orthogonal states can be told apart by LOCC (Walgate et al.,
    # PRL 85, 4972 (2000)), so no such pair may be certified nonlocal.
    dims = tuple(data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=4)))
    orthogonal_on = data.draw(st.sets(st.sampled_from(range(len(dims))), min_size=1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = [_random_vector(rng, d) for d in dims]
    b = [_random_vector(rng, d) for d in dims]
    for j in orthogonal_on:
        b[j] = b[j] - a[j] * (np.vdot(a[j], b[j]) / np.vdot(a[j], a[j]))
    cert = certify_nonlocal(StateSet(dims, [ProductState(a), ProductState(b)]))
    assert cert.orthogonality.passed
    assert cert.verdict == "NOT_CERTIFIED"
