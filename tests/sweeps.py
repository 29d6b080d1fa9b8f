"""Shared sweep definitions used by the unit and acceptance tests."""

from functools import lru_cache

from nlops import theorem1_set, theorem2_set, theorem3_set, theorem4_set
from nlops.constructions import HOMOGENEOUS_GRID

# The mixed-dimension sweep: 20 tuples of 3 to 5 parties, each d_j in 2..5.
HETEROGENEOUS_DIMS = [
    (3, 2, 4, 5, 4), (5, 2, 2), (5, 3, 2, 5), (4, 4, 2, 5), (4, 4, 3), (5, 2, 4, 2, 2),
    (5, 5, 5, 5, 5), (5, 2, 3, 4), (4, 4, 4, 4, 4), (2, 2, 5), (2, 4, 3, 4), (4, 2, 5, 3),
    (4, 2, 4, 5), (5, 2, 5, 3, 4), (3, 5, 2, 3, 2), (2, 3, 3, 4, 3), (3, 4, 5, 4), (4, 2, 4, 4),
    (4, 2, 2, 4), (2, 4, 4, 3, 4),
]


@lru_cache(maxsize=1)
def sweep_sets():
    """Every set the acceptance criteria range over, generated once."""
    sets = []
    for n, d in HOMOGENEOUS_GRID:
        sets.append(theorem1_set(n, d))
        sets.append(theorem2_set(n, d))
    for dims in HETEROGENEOUS_DIMS:
        sets.append(theorem3_set(dims))
        sets.append(theorem4_set(dims))
    return tuple(sets)
