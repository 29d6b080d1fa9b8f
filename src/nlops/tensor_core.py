"""Complex product-state primitives and Hermitian-operator coordinates.

Everything here is a pure function over immutable values: local vectors are
read-only 1-D complex arrays, product states hold one local vector per party,
and Hermitian operators are represented by real coordinate vectors in a fixed
Hilbert-Schmidt-orthonormal basis whose first element is the scaled identity.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import isfinite

import numpy as np

__all__ = [
    "ProductState",
    "StateSet",
    "HermitianCoords",
    "inner",
    "product_inner",
    "partial_inner_excluding",
    "hermitian_basis",
    "hermitian_basis_flat",
    "coords_to_matrix",
    "matrix_to_coords",
    "nullspace_real",
    "MAX_LOCAL_DIM",
    "MAX_OVERLAP_ENTRIES",
]

# Smallest normal float: a local vector's squared norm may not fall below it.
_TINY = float(np.finfo(float).tiny)

# Largest local dimension with a Hermitian basis: 16 * d^4 bytes, 268 MB at 64.
MAX_LOCAL_DIM = 64

# Most pair-overlap entries a set's table may have, n_parties * m(m-1)/2, which
# generation checks too: the real table and its build rows take 16 bytes per
# entry together, 1 GiB at the bound.  No m x m Gram product is formed; the
# pair indices, the gathered codes and the report's list of nonzero residuals
# come on top, so when no pair drops the orthogonality check peaks at about 25
# bytes per entry (2000 copies of one (2, 2) state: 4M entries, max RSS
# +96 MiB).  Pairs exactly orthogonal on two parties are left out of the
# table; the boolean m x m masks that find them are most of what is left:
# product_basis((64, 64)) peaks at 5.0 bytes per entry (16.8M entries,
# +81 MiB), product_basis((2,) * 11) at 0.9 (23.1M, +20 MiB).
# The same bound caps the (m d)^2 entries of the oracle's Gram, and the active
# pairs times d^2 entries of each of a party's per-pair constraint arrays.
MAX_OVERLAP_ENTRIES = 2**26


def _check_local_dim(d: int) -> None:
    """Refuse a local dimension above MAX_LOCAL_DIM, too large for its Hermitian basis."""
    if d > MAX_LOCAL_DIM:
        raise ValueError(f"too-large: local dimension {d} exceeds {MAX_LOCAL_DIM}")


def _check_pair_count(m: int, n: int) -> None:
    """Refuse m states on n parties whose overlap table would pass MAX_OVERLAP_ENTRIES."""
    if n * (m * (m - 1) // 2) > MAX_OVERLAP_ENTRIES:
        raise ValueError(f"too-large: {m} states on {n} parties exceed "
                         f"{MAX_OVERLAP_ENTRIES} pair overlaps")


def _check_party(n_parties: int, party) -> int:
    """party as an int, refused as bad-party unless it is in range(n_parties)."""
    party = operator.index(party)
    if not 0 <= party < n_parties:
        raise ValueError(f"bad-party: party {party} out of range")
    return party


def _check_local_vectors(flat: np.ndarray, starts) -> None:
    """Raise bad-local unless every local vector, the run of flat from one entry
    of starts to the next, has finite amplitudes, a nonzero one, and a squared
    norm that is a finite normal float, so that it can be normalized without
    overflow or underflow."""
    with np.errstate(over="ignore", under="ignore"):
        squared = np.add.reduceat(np.square(np.abs(flat)), starts)
    if ((squared >= _TINY) & (squared < np.inf)).all():  # NaN fails both
        return
    if not np.isfinite(flat).all():
        raise ValueError("bad-local: amplitudes must be finite")
    if not np.logical_or.reduceat(flat != 0, starts).all():
        raise ValueError("bad-local: a local vector needs at least one nonzero amplitude")
    raise ValueError("bad-local: a local vector's squared norm must be a finite "
                     f"float of at least {_TINY}")


@dataclass(frozen=True, eq=False)
class ProductState:
    """Unnormalized tensor product, stored as one local vector per party.

    The factors are read-only views of a private buffer, so later changes
    to the caller's arrays do not reach the state.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        parts = [np.asarray(f, dtype=np.complex128) for f in self.factors]
        if not parts:
            raise ValueError("bad-state: a product state needs at least one party")
        if any(p.ndim != 1 or p.size == 0 for p in parts):
            raise ValueError("bad-local: amplitudes must be a nonempty 1-D sequence")
        flat = np.concatenate(parts)
        ends = list(accumulate(p.size for p in parts))
        starts = [0] + ends[:-1]
        _check_local_vectors(flat, starts)
        flat.flags.writeable = False
        object.__setattr__(
            self, "factors", tuple(flat[a:b] for a, b in zip(starts, ends))
        )

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.factors)

    @property
    def n_parties(self) -> int:
        return len(self.factors)

    @property
    def norm(self) -> float:
        """Norm of the tensor product = product of the local norms."""
        out = 1.0
        for f in self.factors:
            out *= float(np.linalg.norm(f))
        return out

    def scaled(self, scalar: complex) -> "ProductState":
        """Same ray, with the scalar absorbed into the first party's vector."""
        if scalar == 0:
            raise ValueError("bad-scalar: scalar must be nonzero")
        return ProductState((self.factors[0] * scalar,) + self.factors[1:])


def _state_of_checked(factors: tuple[np.ndarray, ...]) -> ProductState:
    """A ProductState over factors that are already read-only, checked local vectors."""
    state = object.__new__(ProductState)
    object.__setattr__(state, "factors", factors)
    return state


def _checked_dims(dims) -> tuple[int, ...]:
    dims = tuple(map(operator.index, dims))
    if len(dims) < 2:
        raise ValueError("bad-dimension: a state set needs at least two parties")
    if any(d < 1 for d in dims):
        raise ValueError("bad-dimension: local dimensions must be positive")
    return dims


class StateSet:
    """Ordered collection of product states on fixed local dimensions.

    A set is stored as one table per party: vectors[j] is a read-only
    (k_j, d_j) array of the byte-distinct local vectors that some state holds
    at party j, and the read-only (m, n) array index says which one each
    state holds: vectors[j][index[i, j]].  The families reuse a few local
    vectors many times, so the table is much smaller than the states, which
    are built from it only when first asked for.  Parties whose tables are
    equal, shape included, share one array, checked once.  Instances are
    immutable.
    """

    def __init__(self, dims, states, label: str = ""):
        dims = _checked_dims(dims)
        states = tuple(states)
        seen = [{} for _ in dims]  # per party: a factor's bytes -> its table row
        index = np.empty((len(states), len(dims)), dtype=np.intp)
        for i, s in enumerate(states):
            if s.dims != dims:
                raise ValueError(
                    f"dim-mismatch: state dims {s.dims} do not match set dims {dims}"
                )
            index[i] = [rows.setdefault(f.tobytes(), len(rows))
                        for rows, f in zip(seen, s.factors)]
        vectors = [np.frombuffer(b"".join(rows), dtype=np.complex128).reshape(len(rows), d)
                   for rows, d in zip(seen, dims)]
        self._set_table(dims, vectors, index, label)

    @classmethod
    def from_table(cls, dims, vectors, index, label: str = "") -> "StateSet":
        """The set whose state i holds vectors[j][index[i, j]] at party j.

        The arrays are copied and checked as every set's table is: per party
        one (k_j, d_j) array of finite local vectors with a nonzero amplitude
        each, pairwise byte-distinct, each held by some state.  Equal tables
        are copied once and their parties share the copy.
        """
        state_set = object.__new__(cls)
        state_set._set_table(_checked_dims(dims), vectors, index, label)
        return state_set

    def _set_table(self, dims, vectors, index, label) -> None:
        if not isinstance(label, str):  # a file holds only a string label
            raise ValueError(f"bad-label: label must be a string, not {type(label).__name__}")
        if np.size(index) and np.asarray(index).dtype.kind not in "biu":  # else truncated
            raise ValueError("bad-table: index must be an integer array")
        index = np.array(index, dtype=np.intp)
        if len(vectors) != len(dims) or index.ndim != 2 or index.shape[1] != len(dims):
            raise ValueError(f"bad-table: need one vector table and one index column "
                             f"per party of {dims}")
        tables, checked = [], {}  # a table's (shape, bytes) -> its first holder's array
        for j, (table, d) in enumerate(zip(vectors, dims)):
            table = np.array(table, dtype=np.complex128)
            if table.ndim != 2 or table.shape[1] != d:
                raise ValueError(f"dim-mismatch: party {j} table has shape {table.shape}, "
                                 f"not (k, {d})")
            key = (table.shape, table.tobytes())
            first = checked.get(key)
            if first is None:
                _check_local_vectors(table.ravel(), np.arange(0, table.size, d))
            column, k = index[:, j], len(table)
            if not ((column >= 0) & (column < k)).all():
                raise ValueError(f"bad-table: party {j} index out of range")
            if not np.bincount(column, minlength=k).all():
                raise ValueError(f"bad-table: party {j} table holds a vector no state uses")
            if first is None:
                if len({row.tobytes() for row in table}) != k:
                    raise ValueError(f"bad-table: party {j} table repeats a vector")
                table.flags.writeable = False
                first = checked[key] = table
            tables.append(first)
        index.flags.writeable = False
        for name, value in (("dims", dims), ("vectors", tuple(tables)), ("index", index),
                            ("label", label), ("_states", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"StateSet is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"StateSet is immutable: cannot delete {name!r}")

    @property
    def states(self) -> tuple[ProductState, ...]:
        """The product states; their factors are read-only views of the table's rows."""
        if self._states is None:
            rows = [list(table) for table in self.vectors]
            object.__setattr__(self, "_states", tuple(
                _state_of_checked(tuple(r[i] for r, i in zip(rows, line)))
                for line in self.index.tolist()))
        return self._states

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self):
        return iter(self.states)

    def party_vectors(self, party: int) -> np.ndarray:
        """All states' local vectors at one party, stacked into an (m, d) array."""
        party = _check_party(self.n_parties, party)
        return self.vectors[party][self.index[:, party]]


@dataclass(frozen=True, eq=False)
class HermitianCoords:
    """Real coordinates of a Hermitian operator in the hermitian_basis(dim) basis."""

    dim: int
    coords: np.ndarray

    def __post_init__(self):
        dim = operator.index(self.dim)
        if dim < 1:
            raise ValueError("bad-dimension: dim must be >= 1")
        c = np.asarray(self.coords, dtype=np.float64)
        if c.shape != (dim * dim,):
            raise ValueError(
                f"dim-mismatch: expected {dim * dim} coordinates, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("bad-local: coordinates must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coords", c)


def inner(u, v) -> complex:
    """Bra-ket inner product <u|v>, conjugating the first argument."""
    ua = np.asarray(u, dtype=np.complex128)
    va = np.asarray(v, dtype=np.complex128)
    if ua.ndim != 1 or ua.shape != va.shape:
        raise ValueError(f"dim-mismatch: {ua.shape} vs {va.shape}")
    return complex(np.vdot(ua, va))


def product_inner(a: ProductState, b: ProductState) -> complex:
    """<a|b> for product states: the product of per-party inner products."""
    if a.dims != b.dims:
        raise ValueError(f"dim-mismatch: {a.dims} vs {b.dims}")
    out = 1.0 + 0.0j
    for ua, ub in zip(a.factors, b.factors):
        out *= np.vdot(ua, ub)
    return complex(out)


def partial_inner_excluding(a: ProductState, b: ProductState, party: int) -> complex:
    """Product of per-party inner products over every party except one.

    With a single party the product is empty and equals 1, so that
    product_inner(a, b) == partial_inner_excluding(a, b, k) * inner(a_k, b_k)
    holds uniformly.
    """
    if a.dims != b.dims:
        raise ValueError(f"dim-mismatch: {a.dims} vs {b.dims}")
    party = _check_party(a.n_parties, party)
    out = 1.0 + 0.0j
    for j, (ua, ub) in enumerate(zip(a.factors, b.factors)):
        if j != party:
            out *= np.vdot(ua, ub)
    return complex(out)


@lru_cache(maxsize=None)
def hermitian_basis_flat(d: int) -> np.ndarray:
    """Hilbert-Schmidt-orthonormal Hermitian operator basis for C^d, one element per row.

    Row a of the read-only (d^2, d^2) array is element a flattened row-major.
    Element 0 is I/sqrt(d).  Then come the d-1 traceless diagonal elements
    diag(1,..,1,-k,0,..)/sqrt(k(k+1)), the symmetric off-diagonal elements
    (|j><k| + |k><j|)/sqrt(2), and the antisymmetric ones
    (-i|j><k| + i|k><j|)/sqrt(2), each in lexicographic (j, k) order.
    """
    if d < 1:
        raise ValueError("bad-dimension: d must be >= 1")
    _check_local_dim(d)
    mats = np.zeros((d * d, d, d), dtype=np.complex128)
    diag = np.arange(d)
    mats[0, diag, diag] = 1.0 / np.sqrt(d)
    for k in range(1, d):
        inv = 1.0 / np.sqrt(k * (k + 1))
        mats[k, diag[:k], diag[:k]] = inv
        mats[k, k, k] = -k * inv
    j, k = np.triu_indices(d, 1)
    sym = np.arange(d, d + j.size)
    anti = sym + j.size
    mats[sym, j, k] = mats[sym, k, j] = 1.0 / np.sqrt(2)
    mats[anti, j, k] = -1.0j / np.sqrt(2)
    mats[anti, k, j] = 1.0j / np.sqrt(2)
    flat = mats.reshape(d * d, d * d)
    flat.flags.writeable = False
    return flat


def hermitian_basis(d: int) -> tuple[np.ndarray, ...]:
    """hermitian_basis_flat(d) as d x d matrices: read-only views of its rows."""
    return tuple(row.reshape(d, d) for row in hermitian_basis_flat(d))


def coords_to_matrix(h: HermitianCoords) -> np.ndarray:
    """Reconstruct the Hermitian matrix sum_a coords[a] * B_a."""
    return (h.coords @ hermitian_basis_flat(h.dim)).reshape(h.dim, h.dim)


def matrix_to_coords(m, tol: float = 1e-10) -> HermitianCoords:
    """Coordinates of a Hermitian matrix; rejects matrices with asymmetry above tol."""
    check_tolerance("tol", tol)
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"dim-mismatch: expected a nonempty square matrix, got {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.conj().T)) > tol * scale:
        raise ValueError("not-hermitian: asymmetry exceeds tolerance")
    d = a.shape[0]
    # <B_a, M> = tr(B_a M) = sum_{j,p} B_a[j,p] * M[p,j]
    coords = (hermitian_basis_flat(d) @ a.T.reshape(-1)).real
    return HermitianCoords(d, coords)


def check_tolerance(name: str, value: float) -> None:
    """Raise bad-tolerance unless value is finite and > 0."""
    if not (isfinite(value) and value > 0):
        raise ValueError(f"bad-tolerance: {name}={value!r} must be finite and > 0")


def nullspace_real(a, tol_rank: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of a real matrix.

    Rank is decided by SVD: singular values below tol_rank times the largest
    one count as zero.  Rows that are exactly zero are dropped first, which
    changes no null space; a matrix with no other row has the full space as
    its null space.  The SVD is thin, so a tall matrix gets no square U and
    memory beyond the cols x cols vt is O(rows * cols).  A matrix at least as
    tall as LAPACK dgesdd's own QR crossover (MNTHR, cols * 11 // 6 rows) is
    first reduced to the cols x cols R of its QR factorization, as dgesdd
    itself reduces it, so that its thin U is not formed either.
    """
    check_tolerance("tol_rank", tol_rank)
    if np.iscomplexobj(a):  # casting would drop the imaginary parts
        raise ValueError("bad-matrix: entries must be real, not complex")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"dim-mismatch: expected a 2-D matrix, got shape {a.shape}")
    rows, cols = a.shape
    if cols < 1:
        raise ValueError("dim-mismatch: need at least one column")
    if not np.isfinite(a).all():  # inf would pass as rank 0, nan fail inside the SVD
        raise ValueError("bad-matrix: entries must be finite")
    a = a[a.any(axis=1)]
    rows = len(a)
    if rows == 0:
        return np.eye(cols)
    if rows >= cols * 11 // 6:
        a = np.linalg.qr(a, mode="r")
    # A wide matrix needs the full vt, whose last rows span its null space.
    _, s, vt = np.linalg.svd(a, full_matrices=rows < cols)
    rank = int(np.count_nonzero(s >= tol_rank * s[0]))  # s[0] > 0: every row is nonzero
    return vt[rank:].T.copy()
