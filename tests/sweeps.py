"""Shared sweep definitions used by the unit and acceptance tests."""

from functools import lru_cache

from nlops import theorem1_set, theorem2_set, theorem3_set, theorem4_set
from nlops.constructions import HOMOGENEOUS_GRID, heterogeneous_dims

HETEROGENEOUS_DIMS = heterogeneous_dims(count=20, seed=20260810)


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
