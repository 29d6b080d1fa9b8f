"""Small, obviously-correct numeric cross-checks.

These back the certifier with independent evaluations of the classical facts
it leans on: distinctness of the d-th roots of unity, the pair-product form
of the Vandermonde determinant, and unique solvability of small systems with
nonzero determinant (solved here by Cramer's rule over cofactor-expansion
determinants, capped at 6x6 so the code stays transparent rather than fast).
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "roots_of_unity",
    "vandermonde_det",
    "proof_determinants_nonzero",
    "det_cofactor",
    "cramer_solve",
]

_MAX_COFACTOR_N = 6


def roots_of_unity(d: int) -> np.ndarray:
    """All d-th roots of unity exp(2*pi*i*k/d), k = 0..d-1."""
    d = operator.index(d)
    if d < 2:
        raise ValueError("bad-dimension: d must be >= 2")
    return np.exp(2j * np.pi * np.arange(d) / d)


def vandermonde_det(nodes) -> complex:
    """Vandermonde determinant of the nodes via the pair-product formula.

    Equals prod_{j < t} (y_t - y_j), evaluated left to right; one node (or
    none) gives the empty product 1.
    """
    y = [complex(v) for v in np.asarray(nodes, dtype=np.complex128).reshape(-1)]
    out = 1.0 + 0.0j
    for t in range(len(y)):
        for j in range(t):
            out *= y[t] - y[j]
    return out


def proof_determinants_nonzero(d: int) -> np.ndarray:
    """|det| of the d leave-one-out Vandermonde systems on the d-th roots of unity.

    Entry j is the magnitude of the Vandermonde determinant on all roots
    except the j-th.  All entries are nonzero because the roots are distinct.
    """
    roots = roots_of_unity(d)
    dets = []
    for j in range(d):
        nodes = np.delete(roots, j)
        dets.append(abs(vandermonde_det(nodes)))
    return np.asarray(dets)


def det_cofactor(a) -> complex:
    """Determinant by cofactor expansion along the first row (n <= 6)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"dim-mismatch: expected a square matrix, got {m.shape}")
    n = m.shape[0]
    if n > _MAX_COFACTOR_N:
        raise ValueError(f"too-large: cofactor expansion capped at {_MAX_COFACTOR_N}x{_MAX_COFACTOR_N}")
    if n == 0:  # the empty product
        return 1.0 + 0.0j
    return _det_rows(m.tolist())


def _det_rows(rows: list) -> complex:
    """det_cofactor on a nested list of Python complex numbers, n >= 1."""
    if len(rows) == 1:
        return rows[0][0]
    out = 0.0 + 0.0j
    sign = 1.0
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        out += sign * entry * _det_rows(minor)
        sign = -sign
    return out


def cramer_solve(a, b) -> np.ndarray:
    """Solve a small square system by Cramer's rule.

    Requires n <= 6 and a determinant that is not negligibly small relative
    to the Hadamard bound (the product of row norms).
    """
    m = np.asarray(a, dtype=np.complex128)
    rhs = np.asarray(b, dtype=np.complex128).reshape(-1)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != rhs.size:
        raise ValueError(f"dim-mismatch: matrix {m.shape} vs rhs {rhs.shape}")
    n = m.shape[0]
    det = det_cofactor(m)  # refuses n > 6 before any work
    hadamard = float(np.prod(np.linalg.norm(m, axis=1)))
    if abs(det) <= 1e-10 * hadamard:
        raise ValueError("singular: coefficient determinant is negligible")
    x = np.empty(n, dtype=np.complex128)
    for i in range(n):
        mi = m.copy()
        mi[:, i] = rhs
        x[i] = det_cofactor(mi) / det
    return x
