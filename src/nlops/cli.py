"""Command-line interface: generate families, certify state sets, self-test.

Exit codes: 0 = certified (or command succeeded), 1 = not certified / not
orthogonal / self-test failure, 2 = invalid input.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import fields
from functools import cache
from math import prod

import numpy as np

from .certifier import (
    MAX_BRUTE_FORCE_DIM,
    Tolerances,
    brute_force_constraints,
    certify_nonlocal,
    check_pairwise_orthogonality,
)
from .constructions import (
    HOMOGENEOUS_GRID,
    product_basis,
    theorem1_set,
    theorem2_set,
    theorem3_set,
    theorem4_set,
    _equal_dims,
)
from .oracles import cramer_solve, proof_determinants_nonzero, roots_of_unity, vandermonde_det
from .serialize import dump_certificate, dump_state_set, load_state_set
from .tensor_core import nullspace_real

__all__ = ["main", "build_parser"]

# Higher-dimension sets whose smallest kept singular value sits well below
# 0.1 of the largest: they certify at the default rank tolerance but expose
# a misconfigured (too coarse) tol_rank as reported failures.
_RANK_STRESS_GRID = [(3, 8), (3, 9)]
_SELFTEST_SEED = 71804623
# The mixed-dimension sweep: 12 tuples of 3 to 5 parties, each d_j in 2..5.
_SELFTEST_DIMS = [
    (4, 3, 2, 5), (4, 2, 5), (2, 5, 4, 5, 3), (5, 4, 2, 2, 3), (2, 2, 3), (5, 2, 4),
    (5, 4, 4, 2, 4), (4, 3, 2, 4, 4), (4, 4, 2, 5, 4), (4, 2, 3, 4, 5), (3, 4, 3, 2), (5, 2, 2, 4),
]


def _parse_dims(args) -> tuple[int, ...]:
    if args.dims is not None and (args.n is not None or args.d is not None):
        raise ValueError("give either --dims or --n/--d, not both")
    if args.dims is not None:
        try:
            return tuple(int(part) for part in args.dims.split(","))
        except ValueError:
            raise ValueError(f"--dims must be comma-separated integers, got {args.dims!r}")
    if args.n is None or args.d is None:
        raise ValueError("need --dims, or both --n and --d")
    return _equal_dims(args.n, args.d)


def _generate_set(theorem: int, dims: tuple[int, ...]):
    if theorem in (1, 2):
        if len(set(dims)) > 1:
            raise ValueError(f"theorem {theorem} needs equal local dimensions, got {dims}")
        # No parties (--n <= 0): the family refuses n = 0 as it does n = 1 or 2.
        n, d = len(dims), dims[0] if dims else 0
        return theorem1_set(n, d) if theorem == 1 else theorem2_set(n, d)
    return theorem3_set(dims) if theorem == 3 else theorem4_set(dims)


def _write(dump, value, path, **options) -> None:
    """dump(value, path, **options), an OSError re-raised as cannot write <path>."""
    try:
        dump(value, path, **options)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def cmd_generate(args) -> int:
    state_set = _generate_set(args.theorem, _parse_dims(args))
    _write(dump_state_set, state_set, args.out, normalize=args.normalize)
    print(f"wrote {len(state_set)} states ({state_set.label}) to {args.out}")
    return 0


def cmd_certify(args) -> int:
    tol = Tolerances(args.tol_rank, args.tol_active, args.tol_orth)
    state_set = load_state_set(args.input)
    cert = certify_nonlocal(state_set, tol)

    print(f"state set     : {cert.label or '(unlabeled)'}")
    print(f"dims          : {'x'.join(str(d) for d in cert.dims)}")
    print(f"states        : {len(state_set)}")
    orth = cert.orthogonality
    print(
        f"orthogonality : {'PASS' if orth.passed else 'FAIL'} "
        f"(max residual {orth.max_residual:.3e}, tol {orth.tol:g})"
    )
    for rep in cert.parties:
        line = (
            f"party {rep.party}  active_pairs={rep.active_pairs}  "
            f"solution_dim={rep.solution_dim}  trivial={'yes' if rep.trivial else 'no'}"
        )
        if rep.witness is not None:
            line += "  (witness recorded)"
        print(line)
    print(f"verdict       : {cert.verdict}")

    if args.out:
        _write(dump_certificate, cert, args.out)
        print(f"certificate written to {args.out}")
    return 0 if cert.certified_nonlocal else 1


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _subspace_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Larger Frobenius norm of either orthonormal basis's part outside the other's span."""
    return max(float(np.linalg.norm(a - b @ (b.T @ a))),
               float(np.linalg.norm(b - a @ (a.T @ b))))


def _oracle_mismatch(state_set, cert, tol: Tolerances) -> str | None:
    """Detail of the first party whose certified space is not the oracle's null space, or None."""
    for rep in cert.parties:
        oracle = nullspace_real(brute_force_constraints(state_set, rep.party), tol.tol_rank)
        gap = _subspace_gap(rep.solution, oracle)
        if rep.solution_dim != oracle.shape[1] or gap > 1e-8:
            return (f"party {rep.party}: dims {rep.solution_dim} vs {oracle.shape[1]}, "
                    f"subspace gap {gap:.3e}")
    return None


def _sweep_sets():
    """Yield (state set, (passed, detail) of its count check or None), one set at a time."""
    for n, d in HOMOGENEOUS_GRID:
        t1 = theorem1_set(n, d)
        yield t1, (len(t1) == 2 * n * (d - 1), f"{len(t1)} vs {2 * n * (d - 1)}")
        t2 = theorem2_set(n, d)
        yield t2, (len(t2) == n * (2 * d - 3) + 1, f"{len(t2)} vs {n * (2 * d - 3) + 1}")
    for n, d in _RANK_STRESS_GRID:
        yield theorem1_set(n, d), None
    for dims in _SELFTEST_DIMS:
        t3 = theorem3_set(dims)
        yield t3, (len(t3) == sum(2 * (d - 1) for d in dims), "")
        t4 = theorem4_set(dims)
        yield t4, (len(t4) == sum(2 * d - 3 for d in dims) + 1, "")


def _selftest_checks(max_total_dim: int, tol: Tolerances):
    """Yield (name, passed, detail) tuples for the whole self-test battery.

    The sweep is walked once: each set's checks run back to back, so the
    set's overlap table is built once and shared by all of them.
    """
    for d in range(2, 17):
        roots = roots_of_unity(d)
        sep = min(
            abs(roots[i] - roots[j]) for i in range(d) for j in range(i + 1, d)
        )
        powmax = float(np.max(np.abs(roots**d - 1.0)))
        yield (f"roots-of-unity d={d}", sep > 1e-9 and powmax <= 1e-12,
               f"min separation {sep:.3e}, max |w^d - 1| {powmax:.3e}")

    for d in range(2, 9):
        val = abs(vandermonde_det(roots_of_unity(d)))
        target = d ** (d / 2)
        yield (f"vandermonde-roots-identity d={d}",
               abs(val - target) <= 1e-9 * target,
               f"|det| {val:.12g} vs d^(d/2) {target:.12g}")
        dets = proof_determinants_nonzero(d)
        yield (f"leave-one-out-determinants d={d}", float(dets.min()) > 1e-8,
               f"min |det| {dets.min():.3e}")

    # Standard-library draws: numpy.random costs selftest about 6 MB to import.
    rng = random.Random(_SELFTEST_SEED)

    def draw(*shape):
        """An array of independent complex standard-normal draws."""
        flat = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(prod(shape))]
        return np.array(flat).reshape(shape)

    worst = 0.0
    for _ in range(50):
        n = rng.randint(1, 4)
        while True:
            a = draw(n, n)
            if np.linalg.cond(a) < 100:
                break
        b = draw(n)
        diff = np.max(np.abs(cramer_solve(a, b) - np.linalg.solve(a, b)))
        worst = max(worst, float(diff))
    yield "cramer-vs-dense-solver", worst <= 1e-9, f"max deviation {worst:.3e}"

    for state_set, count in _sweep_sets():
        if count is not None:
            yield (f"count {state_set.label}", *count)
        total = prod(state_set.dims)
        # A certified set's orthogonality check is the one its certificate holds.
        cert = certify_nonlocal(state_set, tol) if total <= max_total_dim else None
        orth = cert.orthogonality if cert else check_pairwise_orthogonality(state_set, tol.tol_orth)
        yield (f"orthogonality {state_set.label}", orth.passed,
               f"max residual {orth.max_residual:.3e}")
        if cert is None:
            continue
        dims_found = [r.solution_dim for r in cert.parties]
        yield (f"certify {state_set.label}", cert.verdict == "CERTIFIED_NONLOCAL",
               f"verdict {cert.verdict}, solution dims {dims_found}")
        if total > MAX_BRUTE_FORCE_DIM:
            continue
        mismatch = _oracle_mismatch(state_set, cert, tol)
        yield f"oracle-equivalence {state_set.label}", mismatch is None, mismatch

    for dims in [(2, 2), (2, 2, 2)]:
        basis_set = product_basis(dims)
        cert = certify_nonlocal(basis_set, tol)
        expected = list(dims)
        found = [r.solution_dim for r in cert.parties]
        mismatch = _oracle_mismatch(basis_set, cert, tol)
        yield (f"negative-control {basis_set.label}",
               cert.verdict == "NOT_CERTIFIED" and found == expected and mismatch is None,
               f"verdict {cert.verdict}, dims {found}, oracle {mismatch or 'agrees'}")


def cmd_selftest(args) -> int:
    tol = Tolerances(args.tol_rank, args.tol_active, args.tol_orth)
    total = failures = 0
    for name, ok, detail in _selftest_checks(args.max_total_dim, tol):
        suffix = f"  {detail}" if (detail and not ok) else ""
        print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}", flush=True)
        total += 1
        failures += 0 if ok else 1
    print(f"selftest: {total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlops",
        description="Generate orthogonal product-state families and certify "
                    "that no single party can measure them informatively.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a family and write it to a file")
    gen.add_argument("--theorem", type=int, choices=(1, 2, 3, 4), required=True,
                     help="which family to generate")
    gen.add_argument("--n", type=int, help="number of parties (equal-dimension families)")
    gen.add_argument("--d", type=int, help="local dimension (equal-dimension families)")
    gen.add_argument("--dims", help="comma-separated local dimensions, e.g. 2,3,4")
    gen.add_argument("--out", required=True, help="output path for the state-set file")
    gen.add_argument("--normalize", action="store_true",
                     help="normalize each local vector on export")
    gen.set_defaults(func=cmd_generate)

    cert = sub.add_parser("certify", help="certify a state-set file")
    cert.add_argument("input", help="state-set file to certify")
    cert.add_argument("--out", help="also write a machine-readable certificate")
    cert.set_defaults(func=cmd_certify)

    st = sub.add_parser("selftest", help="run the built-in verification battery")
    st.add_argument("--max-total-dim", type=int, default=MAX_BRUTE_FORCE_DIM,
                    help="skip certification sweeps above this composite dimension")
    st.set_defaults(func=cmd_selftest)

    for command in (cert, st):
        for f in fields(Tolerances):
            command.add_argument(f"--{f.name.replace('_', '-')}", type=float, default=f.default)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call shares, built at the first."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; a refusal is one error line on stderr and exit 2.

    An OSError or ValueError from any command is printed as it is, and a
    MemoryError (an allocation numpy refuses) as too-large.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError as exc:
        print(f"error: too-large: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
