"""Known-answer sets from the literature, built from closed form.

None of them comes from the nlops generators.  Each entry of KNOWN_NONLOCAL
is (set, per-party (solution_dim, active_pairs)); every one of these sets is
locally indistinguishable, so its certificate must read CERTIFIED_NONLOCAL.

- domino: the nine domino states of Bennett et al., PRA 59, 1070 (1999),
  |1>|1>, |0>|0±1>, |2>|1±2>, |1±2>|0>, |0±1>|2>, and the eight left
  without |1>|1>;
- the Tiles UPB in 3 x 3 and the Shifts UPB in 2 x 2 x 2, both from Bennett
  et al., PRL 82, 5385 (1999).

Vectors are left unnormalized: the certifier normalizes every local vector.
"""

import numpy as np

from nlops import ProductState, StateSet


def _ket(*amplitudes):
    return np.array(amplitudes, dtype=complex)


def _set(dims, label, states):
    return StateSet(dims, [ProductState(factors) for factors in states], label=label)


_0, _1, _2 = _ket(1, 0, 0), _ket(0, 1, 0), _ket(0, 0, 1)

_DOMINO_TAIL = [
    (_0, _0 + _1), (_0, _0 - _1),
    (_2, _1 + _2), (_2, _1 - _2),
    (_1 + _2, _0), (_1 - _2, _0),
    (_0 + _1, _2), (_0 - _1, _2),
]

DOMINO = _set((3, 3), "domino", [(_1, _1)] + _DOMINO_TAIL)
DOMINO_WITHOUT_CENTER = _set((3, 3), "domino without |1>|1>", _DOMINO_TAIL)

TILES = _set((3, 3), "Tiles UPB", [
    (_0, _0 - _1), (_0 - _1, _2), (_2, _1 - _2), (_1 - _2, _0),
    (_0 + _1 + _2, _0 + _1 + _2),
])

_q0, _q1 = _ket(1, 0), _ket(0, 1)
_plus, _minus = _q0 + _q1, _q0 - _q1

SHIFTS = _set((2, 2, 2), "Shifts UPB", [
    (_q0, _q1, _plus), (_q1, _plus, _q0), (_plus, _q0, _q1), (_minus, _minus, _minus),
])

KNOWN_NONLOCAL = [
    (DOMINO, [(1, 18)] * 2),
    (DOMINO_WITHOUT_CENTER, [(1, 14)] * 2),
    (TILES, [(1, 5)] * 2),
    (SHIFTS, [(1, 2)] * 3),
]
