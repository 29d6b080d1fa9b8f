"""Library refusals: each bad input raises one tagged error, before any work.

The first table holds the ValueError refusals, one row each; the second the
integer arguments, which follow operator.index: a non-integer raises
TypeError, as range(2.5) does, and is never truncated.
"""

import re

import numpy as np
import pytest

from nlops import (
    HermitianCoords,
    ProductState,
    StateSet,
    assemble_constraints,
    basis_vector,
    brute_force_constraints,
    cramer_solve,
    det_cofactor,
    hermitian_basis_flat,
    matrix_to_coords,
    nullspace_real,
    partial_inner_excluding,
    phase_vector,
    product_basis,
    product_inner,
    roots_of_unity,
    solution_space,
    theorem1_set,
    theorem3_set,
)

_SET = theorem1_set(3, 2)  # three parties
_STATE = _SET.states[0]
_TWO = ProductState(([1, 0], [0, 1]))
_THREE = ProductState(([1, 0], [0, 1], [1, 1]))

_PARTY_CALLS = {
    "assemble_constraints": lambda p: assemble_constraints(_SET, p),
    "brute_force_constraints": lambda p: brute_force_constraints(_SET, p),
    "solution_space": lambda p: solution_space(_SET, p),
    "party_vectors": lambda p: _SET.party_vectors(p),
    "partial_inner_excluding": lambda p: partial_inner_excluding(_STATE, _STATE, p),
}

_VALUE_ERRORS = [
    *((f"{name} party {p}", lambda call=call, p=p: call(p), f"bad-party: party {p} out of range")
      for name, call in _PARTY_CALLS.items() for p in (-1, 3)),
    ("ProductState no party", lambda: ProductState(()), "bad-state: "),
    ("ProductState 2-D factor", lambda: ProductState((np.eye(2),)), "bad-local: "),
    ("StateSet dimension 0", lambda: StateSet((2, 0), []), "bad-dimension: "),
    ("scaled by 0", lambda: _TWO.scaled(0), "bad-scalar: "),
    ("HermitianCoords dim 0", lambda: HermitianCoords(0, []), "bad-dimension: "),
    ("HermitianCoords wrong length", lambda: HermitianCoords(2, [0.0] * 3), "dim-mismatch: "),
    ("HermitianCoords nan", lambda: HermitianCoords(1, [np.nan]), "bad-local: "),
    ("product_inner dims", lambda: product_inner(_TWO, _THREE), "dim-mismatch: "),
    ("partial_inner_excluding dims", lambda: partial_inner_excluding(_TWO, _THREE, 0),
     "dim-mismatch: "),
    ("hermitian_basis_flat(0)", lambda: hermitian_basis_flat(0), "bad-dimension: "),
    ("matrix_to_coords non-square", lambda: matrix_to_coords(np.zeros((2, 3))), "dim-mismatch: "),
    ("matrix_to_coords 0 x 0", lambda: matrix_to_coords(np.zeros((0, 0))), "dim-mismatch: "),
    ("nullspace_real 1-D", lambda: nullspace_real(np.ones(3)), "dim-mismatch: "),
    ("nullspace_real no column", lambda: nullspace_real(np.zeros((2, 0))), "dim-mismatch: "),
    ("nullspace_real inf", lambda: nullspace_real([[np.inf, 1.0]]), "bad-matrix: "),
    ("nullspace_real nan", lambda: nullspace_real([[np.nan, 1.0]]), "bad-matrix: "),
    ("nullspace_real complex", lambda: nullspace_real(np.array([[1.0, 1j]])), "bad-matrix: "),
    ("nullspace_real complex, zero imaginary parts",
     lambda: nullspace_real(np.eye(2, dtype=complex)), "bad-matrix: "),
    ("phase_vector(0, 0)", lambda: phase_vector(0, 0), "bad-dimension: "),
    ("basis_vector(0, 0)", lambda: basis_vector(0, 0), "bad-dimension: "),
    ("det_cofactor non-square", lambda: det_cofactor(np.ones((2, 3))), "dim-mismatch: "),
    ("det_cofactor 7 x 7", lambda: det_cofactor(np.eye(7)), "too-large: "),
    ("cramer_solve rhs", lambda: cramer_solve(np.eye(2), np.ones(3)), "dim-mismatch: "),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in _VALUE_ERRORS],
                         ids=[row[0] for row in _VALUE_ERRORS])
def test_bad_input_is_refused_with_its_tag(call, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}"):
        call()


_NOT_INTEGERS = {
    "theorem1_set(3, 2.5)": lambda: theorem1_set(3, 2.5),
    "theorem1_set(3.0, 2)": lambda: theorem1_set(3.0, 2),
    "theorem3_set((2, 3.7, 2))": lambda: theorem3_set((2, 3.7, 2)),
    "StateSet((2.5, 2), [])": lambda: StateSet((2.5, 2), []),
    "product_basis((2, 2.9))": lambda: product_basis((2, 2.9)),
    "HermitianCoords(2.5, ...)": lambda: HermitianCoords(2.5, [0] * 4),
    "phase_vector(3, 1.5)": lambda: phase_vector(3, 1.5),
    "phase_vector(2.5, 1)": lambda: phase_vector(2.5, 1),
    "basis_vector(3, 1.5)": lambda: basis_vector(3, 1.5),
    "basis_vector(3.0, 1)": lambda: basis_vector(3.0, 1),
    "roots_of_unity(2.5)": lambda: roots_of_unity(2.5),
    "partial_inner_excluding(a, b, 1.5)": lambda: partial_inner_excluding(_STATE, _STATE, 1.5),
    "party_vectors(1.5)": lambda: _SET.party_vectors(1.5),
}


@pytest.mark.parametrize("call", _NOT_INTEGERS.values(), ids=_NOT_INTEGERS.keys())
def test_a_non_integer_argument_is_refused_not_truncated(call):
    with pytest.raises(TypeError):
        call()


def test_integer_like_arguments_are_taken_as_their_index():
    # A bool is its integer, not a numpy mask; numpy integers are integers.
    assert np.array_equal(basis_vector(3, True), basis_vector(3, 1))
    assert np.array_equal(phase_vector(np.int64(3), np.int8(1)), phase_vector(3, 1))
    assert theorem1_set(np.int64(3), np.uint8(2)).dims == (2, 2, 2)
    assert np.array_equal(_SET.party_vectors(np.int64(1)), _SET.party_vectors(1))
    assert np.array_equal(assemble_constraints(_SET, np.int32(2)), assemble_constraints(_SET, 2))
    flat = StateSet.from_table((2, 2), [np.eye(2), np.eye(2)], np.array([[0, 1], [1, 0]], np.uint8))
    assert flat.index.tolist() == [[0, 1], [1, 0]]
