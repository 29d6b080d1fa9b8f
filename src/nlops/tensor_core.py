"""Complex product-state primitives and Hermitian-operator coordinates.

Everything here is a pure function over immutable values: local vectors are
read-only 1-D complex arrays, product states hold one local vector per party,
and Hermitian operators are represented by real coordinate vectors in a fixed
Hilbert-Schmidt-orthonormal basis whose first element is the scaled identity.
"""

from __future__ import annotations

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
]

# Largest local dimension with a Hermitian basis: 16 * d^4 bytes, 268 MB at 64.
MAX_LOCAL_DIM = 64


@dataclass(frozen=True, eq=False)
class ProductState:
    """Unnormalized tensor product, stored as one local vector per party.

    The factors are read-only views of one private buffer, so later changes
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
        if not np.isfinite(flat).all():
            raise ValueError("bad-local: amplitudes must be finite")
        ends = list(accumulate(p.size for p in parts))
        starts = [0] + ends[:-1]
        if not np.logical_or.reduceat(flat != 0, starts).all():
            raise ValueError("bad-local: a local vector needs at least one nonzero amplitude")
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


@dataclass(frozen=True, eq=False)
class StateSet:
    """Ordered collection of product states on fixed local dimensions."""

    dims: tuple[int, ...]
    states: tuple[ProductState, ...]
    label: str = ""

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 2:
            raise ValueError("bad-dimension: a state set needs at least two parties")
        if any(d < 1 for d in dims):
            raise ValueError("bad-dimension: local dimensions must be positive")
        states = tuple(self.states)
        for s in states:
            if s.dims != dims:
                raise ValueError(
                    f"dim-mismatch: state dims {s.dims} do not match set dims {dims}"
                )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "states", states)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def party_vectors(self, party: int) -> np.ndarray:
        """All states' local vectors at one party, stacked into an (m, d) array."""
        if not 0 <= party < self.n_parties:
            raise ValueError(f"bad-party: party {party} out of range")
        if not self.states:
            return np.zeros((0, self.dims[party]), dtype=np.complex128)
        return np.stack([s.factors[party] for s in self.states])


@dataclass(frozen=True, eq=False)
class HermitianCoords:
    """Real coordinates of a Hermitian operator in the hermitian_basis(dim) basis."""

    dim: int
    coords: np.ndarray

    def __post_init__(self):
        dim = int(self.dim)
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
    if not 0 <= party < a.n_parties:
        raise ValueError(f"bad-party: party {party} out of range")
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
    if d > MAX_LOCAL_DIM:
        raise ValueError(f"too-large: local dimension {d} exceeds {MAX_LOCAL_DIM}")
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
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dim-mismatch: expected a square matrix, got {a.shape}")
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
    one (or times 1 for a zero matrix) count as zero.  An empty matrix has the
    full space as its null space.  The SVD is thin: beyond the cols x cols vt,
    memory is O(rows * cols), since a tall matrix gets no square U.
    """
    check_tolerance("tol_rank", tol_rank)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"dim-mismatch: expected a 2-D matrix, got shape {a.shape}")
    rows, cols = a.shape
    if cols < 1:
        raise ValueError("dim-mismatch: need at least one column")
    if rows == 0:
        return np.eye(cols)
    # A wide matrix needs the full vt, whose last rows span its null space.
    _, s, vt = np.linalg.svd(a, full_matrices=rows < cols)
    smax = float(s[0])
    if smax == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s >= tol_rank * smax))
    return vt[rank:].T.copy()
