"""Metamorphic tests: a certificate is a property of the physical set.

Four changes leave a set physically the same: a local unitary per party, a
nonzero scalar per state, a reordering of the states and a relabeling of the
parties.  Under each, the verdict and every party's solution_dim, trivial and
active_pairs stay equal, permuted with the parties for a relabeling, and each
party's solution projector maps by E -> U E U^dagger: it is unchanged except
under a local unitary.  Reordering and relabeling change which parties share a
table array and a solve; a unitary or a scalar per local vector leaves no
repeated vector to share.  So these tests also check that sharing work between
parties never changes a result.

All four changes are drawn on every fifth sweep set, on theorem2_set(3, 3)
and theorem3_set((2, 3, 4)), on the product bases and on the known-answer
corpus.  A unitary, a reordering and a relabeling are also drawn on sets
sampled from the whole sweep.
"""

from functools import lru_cache

import numpy as np
import pytest
from corpus import KNOWN_NONLOCAL
from hypothesis import example, given, settings, strategies as st
from sweeps import sweep_sets

from nlops import (
    ProductState,
    StateSet,
    certify_nonlocal,
    hermitian_basis,
    hermitian_basis_flat,
    product_basis,
    theorem2_set,
    theorem3_set,
)

# Every fifth sweep set, which takes each of the four families, two small
# three-party family sets, the product bases on two and three parties, and the
# known-answer corpus.
_SETS = [*sweep_sets()[::5], theorem2_set(3, 3), theorem3_set((2, 3, 4)),
         *(product_basis(dims) for dims in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 2, 2)]),
         *(s for s, _ in KNOWN_NONLOCAL)]

PROJECTOR_TOL = 1e-8


def _haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated(base, rng):
    unitaries = [_haar_unitary(rng, d) for d in base.dims]
    moved = StateSet.from_table(base.dims, [t @ u.T for t, u in zip(base.vectors, unitaries)],
                                base.index)
    return moved, range(base.n_parties), unitaries


def _rescaled(base, rng):
    moved = StateSet(base.dims, [
        s.scaled(10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.uniform())) for s in base])
    return moved, range(base.n_parties), None


def _reordered(base, rng):
    order = rng.permutation(len(base))
    return StateSet(base.dims, [base.states[i] for i in order]), range(base.n_parties), None


def _relabeled(base, rng):
    perm = rng.permutation(base.n_parties).tolist()
    moved = StateSet(tuple(base.dims[j] for j in perm),
                     [ProductState(tuple(s.factors[j] for j in perm)) for s in base])
    return moved, perm, None


@lru_cache(maxsize=None)
def _certificate(base):
    return certify_nonlocal(base)


def _conjugation(u):
    """The real orthogonal map of Hermitian coordinates that E -> U E U^dagger is."""
    d = len(u)
    moved = np.array([u @ b @ u.conj().T for b in hermitian_basis(d)])
    # column a: the coordinates of U B_a U^dagger, as matrix_to_coords takes them
    return (hermitian_basis_flat(d) @ moved.transpose(0, 2, 1).reshape(d * d, d * d).T).real


def _assert_follows(change, base, seed):
    moved, perm, unitaries = change(base, np.random.default_rng(seed))
    want, got = _certificate(base), certify_nonlocal(moved)
    assert got.verdict == want.verdict
    for k, rep in enumerate(got.parties):
        ref = want.parties[perm[k]]
        assert (rep.solution_dim, rep.trivial, rep.active_pairs) == (
            ref.solution_dim, ref.trivial, ref.active_pairs)
        projector = ref.solution @ ref.solution.T
        if unitaries is not None:
            r = _conjugation(unitaries[k])
            projector = r @ projector @ r.T
        assert np.linalg.norm(rep.solution @ rep.solution.T - projector) <= PROJECTOR_TOL


def _name(change):
    return change.__name__[1:]


@pytest.mark.parametrize("change", [_rotated, _rescaled, _reordered, _relabeled], ids=_name)
@pytest.mark.parametrize("base", _SETS, ids=lambda s: s.label)
@settings(derandomize=True, deadline=None, max_examples=5)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=5)  # it and seed 0, hypothesis's first draw, relabel 3 parties cyclically
def test_certificate_follows_the_change(change, base, seed):
    _assert_follows(change, base, seed)


@pytest.mark.parametrize("change", [_rotated, _reordered, _relabeled], ids=_name)
@settings(derandomize=True, deadline=None, max_examples=100)
@given(base=st.sampled_from(sweep_sets()), seed=st.integers(0, 2**32 - 1))
def test_sweep_certificate_follows_the_change(change, base, seed):
    _assert_follows(change, base, seed)
