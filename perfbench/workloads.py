"""Workload definitions: the requests each workload sends, picked from a seed.

A request is one user-visible CLI pipeline.  A ``Case`` names it:

* ``generate`` cases run ``nlops generate`` then ``nlops certify --out``;
* ``control`` cases certify a negative-control file the benchmark writes
  during set-up (``product_basis`` has no CLI generator);
* ``selftest`` cases run ``nlops selftest`` with the given arguments.

The workload seed picks the mixed-dimension tuples and the request order.
Every case any seed can pick is listed by ``all_cases`` and has an entry in
``reference.json``.  Mixed tuples come from a fixed pool whose members share
their length and their sum of local dimensions, so every seed sends about the
same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

WORKLOADS = ("many-parties", "high-dim", "selftest")

# The pool is part of the reference table, so its seed never changes.
_POOL_SEED = 20261017
_POOL_SIZE = 8
# (theorem, length, sum of local dimensions) of each seeded mixed-d slot.  The
# sums make each slot cost about as much as the fixed middle sets, so the
# median request falls inside a block of similar requests, not on an edge.
_MIXED_SLOTS = ((3, 20, 100), (4, 22, 108), (3, 24, 104))
_MIXED_D_RANGE = (2, 6)

_HIGH_DIM_MIXED = (12, 16, 20)


@dataclass(frozen=True)
class Case:
    kind: str  # "generate" | "control" | "selftest"
    theorem: int = 0
    dims: tuple[int, ...] = ()
    argv: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        csv = ",".join(str(d) for d in self.dims)
        if self.kind == "generate":
            return f"theorem{self.theorem}:{csv}"
        if self.kind == "control":
            return f"product_basis:{csv}"
        return " ".join(("selftest",) + self.argv)


def gen(theorem: int, dims) -> Case:
    return Case("generate", theorem, tuple(dims))


def control(dims) -> Case:
    return Case("control", dims=tuple(dims))


def selftest(*argv: str) -> Case:
    return Case("selftest", argv=tuple(argv))


@lru_cache(maxsize=None)
def mixed_pool() -> dict[tuple[int, int, int], list[tuple[int, ...]]]:
    """The fixed pool of mixed-d tuples, _POOL_SIZE distinct ones per slot."""
    rng = random.Random(_POOL_SEED)
    lo, hi = _MIXED_D_RANGE
    pool = {}
    for slot in _MIXED_SLOTS:
        _, length, total = slot
        found: list[tuple[int, ...]] = []
        while len(found) < _POOL_SIZE:
            dims = [rng.randint(lo, hi) for _ in range(length)]
            while sum(dims) != total:  # walk random entries toward the target sum
                i = rng.randrange(length)
                step = 1 if sum(dims) < total else -1
                if lo <= dims[i] + step <= hi:
                    dims[i] += step
            if tuple(dims) not in found:
                found.append(tuple(dims))
        pool[slot] = found
    return pool


def _many_parties(rng: random.Random) -> list[Case]:
    cases = [
        gen(1, (4,) * 40),
        gen(2, (4,) * 30),
        gen(1, (5,) * 20),
        gen(2, (6,) * 20),
        gen(1, (3,) * 36),
    ]
    for slot, tuples in mixed_pool().items():
        cases.append(gen(slot[0], rng.choice(tuples)))
    cases.append(control((2,) * 8))
    return cases


def _high_dim(rng: random.Random) -> list[Case]:
    mixed = list(_HIGH_DIM_MIXED)
    rng.shuffle(mixed)
    return [
        gen(1, (8,) * 3),
        gen(2, (12,) * 3),
        gen(1, (12,) * 4),
        gen(1, (16,) * 3),
        gen(2, (16,) * 4),
        gen(4, mixed),
        control((16, 3, 2)),
    ]


# Small versions for the benchmark's own smoke tests.
_TINY = {
    "many-parties": [gen(1, (3,) * 4), gen(3, (2, 3, 2)), control((2, 2, 2))],
    "high-dim": [gen(1, (8,) * 3), gen(4, (3, 4, 5)), control((4, 3, 2))],
    "selftest": [selftest("--max-total-dim", "8")],
}

# One request run during set-up, so lazy initialisation is not timed.
_WARMUP = {
    "many-parties": gen(1, (5,) * 20),
    "high-dim": gen(1, (8,) * 3),
    "selftest": selftest("--max-total-dim", "8"),
}


def requests(workload: str, seed: int, tiny: bool = False) -> list[Case]:
    """The workload's request list for one pass, in seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        return list(_TINY[workload])
    rng = random.Random(seed)
    if workload == "selftest":
        # The program's own battery: the seed has nothing to pick.
        return [selftest()]
    cases = _many_parties(rng) if workload == "many-parties" else _high_dim(rng)
    rng.shuffle(cases)
    return cases


def warmup(workload: str, tiny: bool = False) -> Case:
    return _TINY[workload][0] if tiny else _WARMUP[workload]


def all_cases() -> list[Case]:
    """Every case any seed (or the tiny mode) can send, warm-ups included."""
    seen: dict[str, Case] = {}
    fixed = _many_parties(random.Random(0)) + _high_dim(random.Random(0))
    for case in fixed + list(_WARMUP.values()) + [selftest()]:
        seen.setdefault(case.name, case)
    for slot, tuples in mixed_pool().items():
        for dims in tuples:
            seen.setdefault(gen(slot[0], dims).name, gen(slot[0], dims))
    for dims in permutations(_HIGH_DIM_MIXED):
        seen.setdefault(gen(4, dims).name, gen(4, dims))
    for cases in _TINY.values():
        for case in cases:
            seen.setdefault(case.name, case)
    return list(seen.values())
