"""Generators for the four built-in families of orthogonal product states.

All four families follow one cyclic rule on n >= 3 parties with local
dimensions d_1..d_n >= 2.  Family i (i = 0..n-1) puts a root-of-unity phase
vector on party i, a marker basis vector on party (i+1) mod n, and |0> on
every other party:

  Block A: marker level d_{i+1}-1 (the top level), one state per phase t.
  Block B: phase t = 1 with marker level q = 1..d_{i+1}-2 (the intermediate
           levels), contributing nothing when d_{i+1} = 2.

theorem1/theorem3 use every phase t = 0..d_i-1 in Block A.  theorem2/theorem4
drop t = 0 and append a single stopper state, the all-ones product.
theorem1/theorem2 are the equal-dimension versions of theorem3/theorem4.

The wrap-around families are what make n = 2 impossible: family 0 and family
n-1 would share both parties and lose pairwise orthogonality, so generation
requires n >= 3.
"""

from __future__ import annotations

import operator
from math import prod

import numpy as np

from .tensor_core import StateSet, _check_local_dim, _check_pair_count, _checked_dims, check_tolerance

__all__ = [
    "phase_vector",
    "basis_vector",
    "product_basis",
    "theorem1_set",
    "theorem2_set",
    "theorem3_set",
    "theorem4_set",
    "canonical_compare",
]


def phase_vector(d: int, t: int) -> np.ndarray:
    """Unnormalized phase vector with amplitudes exp(2*pi*i*t*j/d), j = 0..d-1.

    t is taken mod d; distinct t values give mutually orthogonal vectors.
    """
    d, t = operator.index(d), operator.index(t)
    if d < 1:
        raise ValueError("bad-dimension: d must be >= 1")
    j = np.arange(d)
    return np.exp(2j * np.pi * ((t % d) * j % d) / d)


def basis_vector(d: int, j: int) -> np.ndarray:
    """Unit coordinate vector |j> in C^d."""
    d, j = operator.index(d), operator.index(j)
    if d < 1:
        raise ValueError("bad-dimension: d must be >= 1")
    if not 0 <= j < d:
        raise ValueError(f"bad-index: level {j} out of range for dimension {d}")
    e = np.zeros(d, dtype=np.complex128)
    e[j] = 1.0
    return e


def _validated_dims(dims) -> tuple[int, ...]:
    dims = tuple(map(operator.index, dims))
    if len(dims) < 3:
        raise ValueError(
            "need-three-parties: the wrap-around families are mutually "
            "non-orthogonal on two parties"
        )
    if any(d < 2 for d in dims):
        raise ValueError("bad-dimension: every local dimension must be >= 2")
    return dims


def _dims_label(dims) -> str:
    return "x".join(str(d) for d in dims)


def _cyclic_table(d: int) -> np.ndarray:
    """Every local vector the families put on a party of dimension d, in table
    order: |0> (row 0), phase t (row 1 + t) and marker level q >= 1 (row d + q)."""
    return np.stack([basis_vector(d, 0)] + [phase_vector(d, t) for t in range(d)]
                    + [basis_vector(d, q) for q in range(1, d)])


def _cyclic_family(dims: tuple[int, ...], stopper: bool, label: str) -> StateSet:
    """Block A families 0..n-1 (t ascending, from 1 with a stopper), Block B
    families 0..n-1 (q ascending), then the all-ones stopper if asked for.

    Family i puts phase t on party i, level q on party i+1 and |0> elsewhere.
    Each party's table row is used: |0> by the other families, every phase by
    Block A or the stopper, and every level >= 1 by Block A or B of family i-1.
    """
    n = len(dims)
    _check_local_dim(max(dims))
    _check_pair_count(sum(2 * d - 2 - stopper for d in dims) + stopper, n)
    family = np.array(
        [(i, t, dims[(i + 1) % n] - 1) for i in range(n) for t in range(int(stopper), dims[i])]
        + [(i, 1, q) for i in range(n) for q in range(1, dims[(i + 1) % n] - 1)])
    i, t, q = family.T
    partner = (i + 1) % n
    index = np.zeros((len(family) + stopper, n), dtype=np.intp)  # |0> everywhere
    states = np.arange(len(family))
    index[states, i] = 1 + t
    index[states, partner] = np.array(dims)[partner] + q
    if stopper:
        index[-1] = 1  # phase 0, the all-ones vector, on every party
    tables = {d: _cyclic_table(d) for d in set(dims)}
    return StateSet.from_table(dims, [tables[d] for d in dims], index, label=label)


def theorem3_set(dims) -> StateSet:
    """The sum(2*(d_j - 1)) orthogonal product states on heterogeneous dims.

    Output order: Block A families 0..n-1 with t ascending, then Block B
    families 0..n-1 with the marker level q ascending.
    """
    dims = _validated_dims(dims)
    return _cyclic_family(dims, False, f"theorem3 dims={_dims_label(dims)}")


def theorem4_set(dims) -> StateSet:
    """The sum(2*d_j - 3) + 1 states: Block A without t = 0, plus the stopper.

    The stopper is the all-ones product, i.e. phase t = 0 on every party.
    Output order: Block A families 0..n-1 (t = 1..d_i-1 ascending), Block B
    families 0..n-1 (q ascending), stopper last.
    """
    dims = _validated_dims(dims)
    return _cyclic_family(dims, True, f"theorem4 dims={_dims_label(dims)}")


def _equal_dims(n: int, d: int) -> tuple[int, ...]:
    """(d,) * n, refused as too-large before it is built if n + 1 states on n
    parties already pass the pair-count bound: every family holds more."""
    n = operator.index(n)
    _check_pair_count(n + 1, n)
    return (operator.index(d),) * n


def theorem1_set(n: int, d: int) -> StateSet:
    """The 2n(d-1) states on n parties of equal dimension d."""
    return _cyclic_family(_validated_dims(_equal_dims(n, d)), False, f"theorem1 n={n} d={d}")


def theorem2_set(n: int, d: int) -> StateSet:
    """The n(2d-3)+1 states (stopper included) on n parties of equal dimension d."""
    return _cyclic_family(_validated_dims(_equal_dims(n, d)), True, f"theorem2 n={n} d={d}")


def product_basis(dims) -> StateSet:
    """The full product basis |j_1 .. j_n> of the composite space.

    Locally distinguishable by construction; useful as a negative control
    for certification.
    """
    dims = _checked_dims(dims)
    _check_local_dim(max(dims))
    _check_pair_count(prod(dims), len(dims))
    bases = [np.eye(d, dtype=np.complex128) for d in dims]  # row j is basis_vector(d, j)
    # State r holds level index[r, j] on party j, the last party running fastest.
    index = np.indices(dims).reshape(len(dims), -1).T
    return StateSet.from_table(dims, bases, index, label=f"product-basis dims={_dims_label(dims)}")


# The (n, d) grid of the acceptance sweep that `nlops selftest` and the tests share.
HOMOGENEOUS_GRID = [(n, d) for n in range(3, 7) for d in range(2, 7)]


def heterogeneous_dims(count: int, seed: int) -> list[tuple[int, ...]]:
    """Frozen random dimension tuples: n in 3..5 parties, each d_j in 2..5."""
    rng = np.random.default_rng(seed)
    return [tuple(rng.integers(2, 6, size=rng.integers(3, 6)).tolist()) for _ in range(count)]


def _has_perfect_matching(parallel: np.ndarray) -> bool:
    """True iff every row of a square boolean matrix gets its own True column.

    Kuhn's augmenting paths, grown breadth-first with arrays, not recursion:
    a row takes a free True column when it reaches one, and follows chains
    of already matched rows only when it has none.
    """
    m = len(parallel)
    owner = np.full(m, -1)  # owner[c]: the row holding column c, or -1
    held = np.full(m, -1)  # held[r]: the column row r holds, or -1
    for root in range(m):
        reached_by = np.full(m, -1)  # reached_by[c]: the row whose True reached c
        frontier = np.array([root])
        while frontier.size:
            edges = parallel[frontier]
            cols = np.flatnonzero(edges.any(axis=0) & (reached_by < 0))
            reached_by[cols] = frontier[edges[:, cols].argmax(axis=0)]
            free = cols[owner[cols] < 0]
            if free.size:
                break
            frontier = owner[cols]
        else:
            return False
        col = free[0]
        while col >= 0:  # each row on the path moves to the column it reached
            row = reached_by[col]
            owner[col], held[row], col = row, col, held[row]
    return True


def canonical_compare(a: StateSet, b: StateSet, tol: float = 1e-10) -> bool:
    """True iff the two sets match up to one nonzero complex scalar per state.

    Looks for a bijection between the state lists under which matched states
    are parallel, tested via |<a_i|b_j>|^2 = <a_i|a_i><b_j|b_j> within tol.
    """
    check_tolerance("tol", tol)
    if a.dims != b.dims:
        raise ValueError(f"dim-mismatch: {a.dims} vs {b.dims}")
    if len(a) != len(b):
        return False
    m = len(a)
    overlap = np.ones((m, m), dtype=np.complex128)
    norm_a = np.ones(m)
    norm_b = np.ones(m)
    for party in range(a.n_parties):
        va, vb = a.party_vectors(party), b.party_vectors(party)
        overlap *= va.conj() @ vb.T
        norm_a *= np.linalg.norm(va, axis=1)
        norm_b *= np.linalg.norm(vb, axis=1)
    # |ov - full| <= tol * full, with ov = |overlap|^2 and full = (|a_i| |b_j|)^2,
    # in place and after the complex overlap is freed, so few m x m arrays are alive.
    ov = np.abs(overlap)
    del overlap
    ov **= 2
    full = np.outer(norm_a, norm_b)
    full **= 2
    ov -= full
    np.abs(ov, out=ov)
    full *= tol
    return _has_perfect_matching(ov <= full)
