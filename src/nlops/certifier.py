"""Local-indistinguishability certificates for orthogonal product-state sets.

A measurement element E applied by party k preserves the pairwise
orthogonality of the set exactly when <u_a|E|u_b> = 0 for every pair of
states (a, b) whose overlap on the remaining parties does not vanish.  Those
are linear constraints on the Hermitian coordinates of E, so the admissible
operators form a real linear space that always contains the identity.  A set
is certified nonlocal when, for every party, that space is exactly the span
of the identity: no party can learn anything from any orthogonality-
preserving measurement.  Both checks read one table per state set, built
once: for every pair of states, the magnitude of its normalized overlap over
all parties but one, for each party, and over all parties.

brute_force_constraints recomputes the same constraint rows from explicit
full vectors in the composite space, over all pairs and with no activity
filtering, and serves as the independent cross-check of the factorized path.
A pair whose overlap with the party's factor left open is exactly zero is
still listed, as rows of exact zeros, and never multiplied by the basis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import prod

import numpy as np

from .tensor_core import (
    MAX_OVERLAP_ENTRIES,
    HermitianCoords,
    StateSet,
    _check_local_dim,
    _check_pair_count,
    _check_party,
    check_tolerance,
    hermitian_basis_flat,
    nullspace_real,
)

__all__ = [
    "Tolerances",
    "OrthogonalityReport",
    "PartyReport",
    "Certificate",
    "check_pairwise_orthogonality",
    "assemble_constraints",
    "brute_force_constraints",
    "solution_space",
    "certify_nonlocal",
    "MAX_BRUTE_FORCE_DIM",
]

# Composite dimension above which the explicit full-vector oracle refuses to run.
MAX_BRUTE_FORCE_DIM = 4096

# A one-dimensional solution space counts as trivial only if its basis vector
# is aligned with the identity direction up to this relative shortfall.
IDENTITY_ALIGNMENT_EPS = 1e-9


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout certification."""

    tol_rank: float = 1e-9
    tol_active: float = 1e-10
    tol_orth: float = 1e-10

    def __post_init__(self):
        for name, value in vars(self).items():
            check_tolerance(name, value)


@dataclass(frozen=True, eq=False)
class OrthogonalityReport:
    """Pairwise overlap residuals |<a|b>| / (|a| |b|) for a state set.

    pairs is the read-only (k, 2) int32 array of the pairs a < b, ascending,
    whose residual is nonzero, and residuals the read-only (k,) array of
    those residuals.  Every pair not listed has a residual of exactly 0.
    """

    passed: bool
    max_residual: float
    pairs: np.ndarray
    residuals: np.ndarray
    tol: float

    def failing_pairs(self) -> list[tuple[int, int, float]]:
        fail = self.residuals > self.tol
        return list(zip(*self.pairs[fail].T.tolist(), self.residuals[fail].tolist()))


@dataclass(frozen=True, eq=False)
class PartyReport:
    """Per-party outcome: the admissible-operator space, its size and triviality."""

    party: int
    active_pairs: int
    solution_dim: int
    trivial: bool
    solution: np.ndarray  # read-only orthonormal (d^2, solution_dim) basis of the space
    witness: HermitianCoords | None = None


@dataclass(frozen=True, eq=False)
class Certificate:
    """Joint verdict: orthogonality check plus one PartyReport per party."""

    dims: tuple[int, ...]
    label: str
    tolerances: Tolerances
    orthogonality: OrthogonalityReport
    parties: tuple[PartyReport, ...]
    certified_nonlocal: bool

    @property
    def verdict(self) -> str:
        if not self.orthogonality.passed:
            return "NOT_ORTHOGONAL"
        if self.certified_nonlocal:
            return "CERTIFIED_NONLOCAL"
        return "NOT_CERTIFIED"


@lru_cache(maxsize=1)
def _pair_overlaps(state_set: StateSet):
    """One read-only table per state set: what each pair's overlaps decide.

    Returns (iu, jv, units, others): the kept pairs a < b in ascending order,
    as int32 indices (m <= 8192: _check_pair_count), each party's table of
    distinct local vectors normalized, and for pair p = (iu[p], jv[p]) the
    products of the normalized magnitudes |<u_a|u_b>|, others[j, p] over
    every party except j and others[n, p] over all n parties (the pair's
    orthogonality residual).  Each party's magnitudes come from one Gram
    product of its k distinct vectors, gathered for every pair by index.
    A pair exactly orthogonal on two or more parties has an exact 0.0 factor
    in every product, all of them +0.0, so it is left out: it neither
    constrains any party nor adds to the residual.
    Cached for the last set: its orthogonality check and every party's assembly.
    """
    m, n = len(state_set), state_set.n_parties
    _check_pair_count(m, n)
    units = tuple(v / np.linalg.norm(v, axis=1)[:, None] for v in state_set.vectors)
    iu, jv = _kept_pairs(state_set.index, units)
    mags = np.empty((n, iu.size))
    for j, u in enumerate(units):
        column = state_set.index[:, j]
        np.take(_gram(u), column[iu] * len(u) + column[jv], out=mags[j])
    others = np.empty((n + 1, iu.size))
    others[0] = 1.0
    for j in range(n):  # others[j]: parties before j
        np.multiply(others[j], mags[j], out=others[j + 1])
    for j in range(n - 1, 0, -1):  # mags[j]: parties from j on, in place
        others[j - 1] *= mags[j]
        mags[j - 1] *= mags[j]
    for a in (iu, jv, others, *units):
        a.flags.writeable = False
    return iu, jv, units, others


def _gram(u: np.ndarray) -> np.ndarray:
    """|<u_p|u_q>| of a party's k normalized vectors, flat at p * k + q."""
    return np.abs(u.conj() @ u.T).ravel()


def _kept_pairs(index: np.ndarray, units) -> tuple[np.ndarray, np.ndarray]:
    """The pairs a < b, ascending, that are exactly orthogonal on at most one party.

    Each party's exact Gram zeros are expanded through its index column to
    the m x m mask of the state pairs they hit.
    """
    # [a, b]: a and b exactly orthogonal on at least one, two parties
    once = np.zeros((len(index),) * 2, bool)
    twice = np.zeros_like(once)
    for j, u in enumerate(units):
        zero = _gram(u).reshape(len(u), len(u)) == 0
        column = index[:, j]
        hit = zero[:, column][column]  # rows gathered last: C-contiguous, fast to or
        twice |= once & hit
        once |= hit
    del once
    keep = np.triu(~twice, 1)
    ids = np.arange(len(index), dtype=np.int32)  # masked in C order, as np.nonzero lists
    return np.broadcast_to(ids[:, None], keep.shape)[keep], np.broadcast_to(ids, keep.shape)[keep]


def check_pairwise_orthogonality(state_set: StateSet, tol: float = 1e-10) -> OrthogonalityReport:
    """Relative overlap residual for every unordered pair; pass iff all are <= tol.

    The report lists the table's pairs with a nonzero residual.  A pair the
    table leaves out, or whose residual product has an exact 0.0 factor, has
    a residual of exactly 0.
    """
    check_tolerance("tol", tol)
    iu, jv, _, others = _pair_overlaps(state_set)
    nonzero = others[-1] != 0
    pairs = np.empty((np.count_nonzero(nonzero), 2), np.int32)  # m < 2**31: _check_pair_count
    pairs[:, 0] = iu[nonzero]  # each gather freed before the next array is allocated
    pairs[:, 1] = jv[nonzero]
    residuals = others[-1][nonzero]
    pairs.flags.writeable = residuals.flags.writeable = False
    max_residual = float(residuals.max(initial=0.0))
    return OrthogonalityReport(max_residual <= tol, max_residual, pairs, residuals, tol)


def _active_codes(state_set: StateSet, party: int, tol_active: float):
    """Table rows (ia, jb) the party's local vectors take in each pair a < b
    whose normalized overlap product over the other parties exceeds tol_active.

    Both arrays are read-only.
    """
    iu, jv, _, others = _pair_overlaps(state_set)
    active = others[party] > tol_active
    column = state_set.index[:, party]
    ia, jb = column[iu[active]], column[jv[active]]
    ia.flags.writeable = jb.flags.writeable = False
    return ia, jb


def assemble_constraints(state_set: StateSet, party: int, tol_active: float = 1e-10) -> np.ndarray:
    """Real constraint matrix on the party's Hermitian coordinates.

    Each unordered pair (a, b) whose normalized overlap product over the
    other parties exceeds tol_active contributes two rows, the real and
    imaginary parts of the functional x -> <u_a|E(x)|u_b> on the party's
    normalized local vectors.  Inactive pairs contribute nothing.  Refuses
    a local dimension above MAX_LOCAL_DIM before the pair table is built, and
    more than MAX_OVERLAP_ENTRIES entries, active pairs times d^2, before the
    Hermitian basis or any per-pair array: each of the per-pair arrays takes
    16 bytes per entry.
    """
    party = _check_party(state_set.n_parties, party)
    check_tolerance("tol_active", tol_active)
    d = state_set.dims[party]
    _check_local_dim(d)
    ia, jb = _active_codes(state_set, party, tol_active)
    if ia.size * d * d > MAX_OVERLAP_ENTRIES:
        raise ValueError(f"too-large: {ia.size} active pairs of local dimension {d} exceed "
                         f"{MAX_OVERLAP_ENTRIES} constraint entries")
    basis = hermitian_basis_flat(d)
    u = _pair_overlaps(state_set)[2][party]  # the party's normalized table
    # <u_a|B_x|u_b> = sum_{j,p} B_x[j,p] * conj(u_a[j]) u_b[p]
    w = (u[ia].conj()[:, :, None] * u[jb][:, None, :]).reshape(ia.size, d * d)
    values = w @ basis.T
    rows = np.empty((2 * ia.size, d * d))
    rows[0::2] = values.real
    rows[1::2] = values.imag
    return rows


def brute_force_constraints(state_set: StateSet, party: int) -> np.ndarray:
    """Constraint rows recomputed from explicit vectors in the composite space.

    Builds every state as a full vector of length prod(dims), takes the
    overlaps of all pairs with the party's tensor factor left open in one
    Gram product over the columns that two or more states share, applies
    each basis operator to that factor, and keeps ALL unordered pairs with
    no activity filtering.  A pair whose open-factor block of the Gram is
    exactly zero is still listed, as two rows of exact zeros: it is never
    multiplied by the basis.  Refuses composite dimensions above
    MAX_BRUTE_FORCE_DIM, local dimensions above MAX_LOCAL_DIM, and more than
    MAX_OVERLAP_ENTRIES entries (m d)^2 in its Gram, which is always at least
    twice as large as each per-pair array, m(m-1)/2 * d^2 entries.
    """
    party = _check_party(state_set.n_parties, party)
    total = prod(state_set.dims)
    if total > MAX_BRUTE_FORCE_DIM:
        raise ValueError(
            f"too-large: composite dimension {total} exceeds {MAX_BRUTE_FORCE_DIM}"
        )
    d = state_set.dims[party]
    basis = hermitian_basis_flat(d)
    m = len(state_set)
    if (m * d) ** 2 > MAX_OVERLAP_ENTRIES:
        raise ValueError(f"too-large: {m} states of local dimension {d} exceed "
                         f"{MAX_OVERLAP_ENTRIES} oracle Gram entries")
    if m < 2:
        return np.zeros((0, d * d))
    full, norms, (iu, jv) = _full_vectors(state_set)
    # Column (l, j, r) of a full vector, with the party's factor at j, sits at
    # (l d + j) right + r.  A column (l, r) nonzero for at most one state adds
    # only to that state's own block c[a, :, a, :], which no pair a < b reads.
    left, right = prod(state_set.dims[:party]), prod(state_set.dims[party + 1:])
    shared = np.count_nonzero(full.reshape(m, left, d, right).any(axis=2), axis=0).ravel() >= 2
    columns = np.arange(total).reshape(left, d, right).transpose(1, 0, 2).reshape(d, -1)
    psi = full[:, columns[:, shared]].reshape(m * d, -1)
    # c[a, j, b, p] = <phi_a| (|j><p| on the party factor) |phi_b>
    c = (psi.conj() @ psi.T).reshape(m, d, m, d)
    live = np.flatnonzero(c.any(axis=1).any(axis=-1)[iu, jv])  # the rest stay rows of +0.0
    a, b = iu[live], jv[live]
    values = c[a, :, b, :].reshape(live.size, d * d) @ basis.T
    values /= (norms[a] * norms[b])[:, None]
    rows = np.zeros((2 * iu.size, d * d))
    rows[2 * live] = values.real
    rows[2 * live + 1] = values.imag
    return rows


@lru_cache(maxsize=1)
def _full_vectors(state_set: StateSet) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Every state's full vector, one per row, its norm, and every pair a < b.

    Row a starts as state a's factors, vectors[j][index[a, j]] for each party
    j, side by side, and is then built party by party, left to right, as
    reduce(np.kron, factors) of state a.  The pairs are np.triu_indices(m, 1).
    All arrays are read-only.  Cached for the last set, whose oracle runs
    once per party.
    """
    m = len(state_set)
    flat = np.concatenate([table[column] for table, column
                           in zip(state_set.vectors, state_set.index.T)], axis=1)
    ends = np.cumsum(state_set.dims)
    full = flat[:, :ends[0]]
    for start, end in zip(ends[:-1], ends[1:]):
        full = (full[:, :, None] * flat[:, None, start:end]).reshape(m, -1)
    norms = np.linalg.norm(full, axis=1)
    pairs = np.triu_indices(m, 1)
    for a in (full, norms, *pairs):
        a.flags.writeable = False
    return full, norms, pairs


def solution_space(
    state_set: StateSet,
    party: int,
    tol_rank: float = 1e-9,
    tol_active: float = 1e-10,
) -> list[HermitianCoords]:
    """Orthonormal basis of Hermitian operators satisfying all constraints."""
    rep = _party_report(state_set, party, Tolerances(tol_rank, tol_active))
    return [HermitianCoords(state_set.dims[party], c) for c in rep.solution.T]


def _party_report(state_set: StateSet, party: int, tol: Tolerances) -> PartyReport:
    rows = assemble_constraints(state_set, party, tol.tol_active)
    basis = nullspace_real(rows, tol.tol_rank)
    basis.flags.writeable = False
    dim = basis.shape[1]
    # Each solution's component orthogonal to the identity direction.
    off = basis.copy()
    off[0] = 0.0
    lengths = np.linalg.norm(off, axis=0)
    trivial = dim == 1 and bool(
        lengths[0] ** 2 <= IDENTITY_ALIGNMENT_EPS * float(basis[:, 0] @ basis[:, 0]))
    witness = None
    if not trivial and dim:
        # lengths[best] > 0: above 3e-5 when dim == 1, at least sqrt(1/2) when dim >= 2.
        best = int(np.argmax(lengths))
        witness = HermitianCoords(state_set.dims[party], off[:, best] / lengths[best])
    return PartyReport(
        party=party,
        active_pairs=rows.shape[0] // 2,
        solution_dim=dim,
        trivial=trivial,
        solution=basis,
        witness=witness,
    )


def certify_nonlocal(state_set: StateSet, tolerances: Tolerances | None = None) -> Certificate:
    """Run the orthogonality check and every party's solution space.

    The set is certified nonlocal iff it holds at least two states, is
    pairwise orthogonal and every party's space of admissible operators is
    the span of the identity.
    Failures are encoded in the certificate, never raised.  Parties that
    hold one table array, as StateSet gives every party whose table equals
    another's, and whose active pairs hold the same table rows get
    byte-identical constraint rows, so the first of them is solved and the
    others take its report.  A party too large to assemble is refused as
    assemble_constraints refuses it.
    """
    tol = tolerances if tolerances is not None else Tolerances()
    _check_local_dim(max(state_set.dims))
    orth = check_pairwise_orthogonality(state_set, tol.tol_orth)
    solved: dict[tuple, PartyReport] = {}
    parties = []
    for k, table in enumerate(state_set.vectors):
        ia, jb = _active_codes(state_set, k, tol.tol_active)
        key = (id(table), (ia * len(table) + jb).tobytes())  # state_set keeps table alive
        rep = solved.get(key)
        if rep is None:
            rep = solved[key] = _party_report(state_set, k, tol)
        parties.append(rep if rep.party == k else replace(rep, party=k))
    certified = bool(len(state_set) >= 2 and orth.passed and all(p.trivial for p in parties))
    return Certificate(
        dims=state_set.dims,
        label=state_set.label,
        tolerances=tol,
        orthogonality=orth,
        parties=tuple(parties),
        certified_nonlocal=certified,
    )
