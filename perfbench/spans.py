"""Spans around every public nlops function, installed from outside the package.

``Tracer.install`` finds each public function (a name in some ``nlops.*``
module's ``__all__``) and replaces it, at every ``nlops.*`` module attribute
bound to that same object, with a wrapper that records a span.  Matching by
identity means the names ``cli`` and ``certifier`` import from other modules
are wrapped too, so a call between modules is seen whichever name it uses.

A span is ``[name, start, end, parent, request]``.  A function's self time is
its span minus its direct child spans; each self time is charged to one
layer metric (``LAYERS``), so the layer times plus ``other_s`` add up to the
request wall time.  A function that is never called, or no longer exists,
simply yields a layer with ``calls == 0``: its work shows up in whichever
span now does it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import wraps

# (self-time metric, calls metric) per layer.  A layer's calls are its
# outermost spans, so recursion and nested helpers count once.
LAYERS = (
    ("cli.self_s", "cli.calls"),
    ("constructions.gen_s", "constructions.calls"),
    ("serialize.dump_s", "serialize.dump_calls"),
    ("serialize.load_s", "serialize.load_calls"),
    ("serialize.cert_s", "serialize.cert_calls"),
    ("certifier.orth_s", "certifier.orth_calls"),
    ("certifier.assemble_s", "certifier.assemble_calls"),
    ("certifier.oracle_s", "certifier.oracle_calls"),
    ("certifier.certify_self_s", "certifier.certify_calls"),
    ("tensor_core.rank_s", "tensor_core.rank_calls"),
    ("tensor_core.helpers_s", "tensor_core.helper_calls"),
    ("oracles.lemma_s", "oracles.lemma_calls"),
)

# Work counts made at the layer boundaries; they repeat exactly run to run.
COUNTS = (
    "constructions.states",
    "serialize.bytes",
    "certifier.orth_pairs",
    "certifier.assemble_rows",
    "certifier.distinct_rows",
    "certifier.oracle_rows",
    "tensor_core.rank_cells",
    "tensor_core.svd_flops",
)

_BY_FUNCTION = {
    "nlops.serialize.dump_state_set": "serialize.dump_s",
    "nlops.serialize.dumps_state_set": "serialize.dump_s",
    "nlops.serialize.load_state_set": "serialize.load_s",
    "nlops.serialize.loads_state_set": "serialize.load_s",
    "nlops.certifier.check_pairwise_orthogonality": "certifier.orth_s",
    "nlops.certifier.assemble_constraints": "certifier.assemble_s",
    "nlops.certifier.brute_force_constraints": "certifier.oracle_s",
    "nlops.tensor_core.nullspace_real": "tensor_core.rank_s",
}
_BY_MODULE = {
    "nlops.cli": "cli.self_s",
    "nlops.constructions": "constructions.gen_s",
    "nlops.serialize": "serialize.cert_s",
    "nlops.certifier": "certifier.certify_self_s",
    "nlops.tensor_core": "tensor_core.helpers_s",
    "nlops.oracles": "oracles.lemma_s",
}


def layer_of(qualname: str) -> str:
    return _BY_FUNCTION.get(qualname) or _BY_MODULE[qualname.rsplit(".", 1)[0]]


def svd_flops(rows: int, cols: int) -> int:
    """Computed flop count of an SVD returning full U and V.

    Golub & Van Loan's Golub-Reinsch count 4 M^2 N + 8 M N^2 + 9 N^3 for an
    M x N matrix with M >= N; a wide matrix costs the same as its transpose.
    It is a model of the work, not a measurement.
    """
    m, n = max(rows, cols), min(rows, cols)
    return 4 * m * m * n + 8 * m * n * n + 9 * n ** 3


def _is_layer_function(value) -> bool:
    """A function defined in a module that has a layer; others stay unwrapped."""
    return (
        callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) in _BY_MODULE
    )


class Tracer:
    """Records spans and layer counts while installed; all state lives here."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._pending_rows: list = []
        self._patched: list[tuple[object, str, object]] = []
        self._layer: dict[str, str] = {}  # span name -> layer time metric

    def install(self) -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "nlops" or name.startswith("nlops."))
        ]
        originals = {}
        for mod in modules:
            for attr in getattr(mod, "__all__", ()):
                value = getattr(mod, attr, None)
                if _is_layer_function(value):
                    originals[id(value)] = value
        wrappers = {key: self._wrap(func) for key, func in originals.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if originals.get(id(value)) is value:
                    setattr(mod, attr, wrappers[id(value)])
                    self._patched.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, func):
        qualname = f"{func.__module__}.{func.__name__}"
        name = qualname.removeprefix("nlops.")
        layer = self._layer[name] = layer_of(qualname)
        count = _COUNTERS.get(qualname)
        spans, stack = self.spans, self._stack

        @wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.request]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                outermost = parent < 0 or self._layer[spans[parent][0]] != layer
                count(self, args, result, outermost)
            return result

        return traced

    def settle(self) -> None:
        """Count distinct constraint rows; call between requests, not inside one."""
        import numpy as np

        for rows in self._pending_rows:
            if rows.shape[0]:
                # + 0.0 folds -0.0 into 0.0: rows are compared by value, never rounded.
                self.counts["certifier.distinct_rows"] += len(np.unique(rows + 0.0, axis=0))
        self._pending_rows.clear()

    def layer_metrics(self, first_span: int, request_walls: dict[int, float]) -> dict[str, float]:
        """Per-layer self times and calls for spans[first_span:], plus other_s.

        request_walls maps request number to its wall time; other_s is the
        part of that wall time no span covers.
        """
        spans = self.spans[first_span:]
        child_time = Counter()
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out = {metric: 0.0 for pair in LAYERS for metric in pair}
        covered = Counter()
        for index, span in enumerate(spans, start=first_span):
            duration = span[2] - span[1]
            layer = self._layer[span[0]]
            out[layer] += duration - child_time[index]
            parent = span[3]
            if parent < 0 or self._layer[self.spans[parent][0]] != layer:
                out[_CALLS[layer]] += 1
            if parent < 0:
                covered[span[4]] += duration
        out["other_s"] = sum(wall - covered[req] for req, wall in request_walls.items())
        return out

    def write(self, path) -> None:
        """Write every recorded span, one JSON array per line, times in seconds."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "request"]}) + "\n")
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, request]) + "\n")


_CALLS = dict(LAYERS)


def _count_orth(tracer, args, result, outermost):
    m = len(args[0])
    tracer.counts["certifier.orth_pairs"] += m * (m - 1) // 2


def _count_assemble(tracer, args, result, outermost):
    tracer.counts["certifier.assemble_rows"] += result.shape[0]
    tracer._pending_rows.append(result)


def _count_oracle(tracer, args, result, outermost):
    tracer.counts["certifier.oracle_rows"] += result.shape[0]


def _count_rank(tracer, args, result, outermost):
    rows, cols = args[0].shape
    tracer.counts["tensor_core.rank_cells"] += rows * cols
    if rows:
        tracer.counts["tensor_core.svd_flops"] += svd_flops(rows, cols)


def _count_dumps(tracer, args, result, outermost):
    tracer.counts["serialize.bytes"] += len(result.encode("utf-8"))


def _count_loads(tracer, args, result, outermost):
    tracer.counts["serialize.bytes"] += len(args[0].encode("utf-8"))


def _count_states(tracer, args, result, outermost):
    if outermost:
        tracer.counts["constructions.states"] += len(result)


_COUNTERS = {
    "nlops.certifier.check_pairwise_orthogonality": _count_orth,
    "nlops.certifier.assemble_constraints": _count_assemble,
    "nlops.certifier.brute_force_constraints": _count_oracle,
    "nlops.tensor_core.nullspace_real": _count_rank,
    "nlops.serialize.dumps_state_set": _count_dumps,
    "nlops.serialize.loads_state_set": _count_loads,
    "nlops.constructions.theorem1_set": _count_states,
    "nlops.constructions.theorem2_set": _count_states,
    "nlops.constructions.theorem3_set": _count_states,
    "nlops.constructions.theorem4_set": _count_states,
    "nlops.constructions.product_basis": _count_states,
}
