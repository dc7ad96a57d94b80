"""Span and counter recording for plesken, installed from outside the package.

`Tracer.install()` replaces each listed public function with a wrapper on
every loaded `plesken` module attribute that is bound to it.  `report`,
`cellular`, `suite` and `cli` import functions by name, so wrapping only the
defining module would miss their calls.  Scalar arithmetic and
`Algebra.multiply_vectors` are counted, not timed: a span per scalar
operation would cost more than the work it measures.

Spans are kept in memory as [name, start, end, parent] and written out once,
by `Tracer.dump`, when the traced process is done.  `span_stats` turns one
process's spans into calls, self time and total time per span name.
"""

from __future__ import annotations

import json
import sys
import time

# Functions timed with a span, by defining module.
SPANS = {
    "algebra": (
        "validate_associativity",
        "validate_involution",
        "validate_unit",
        "bracket_closure_check",
        "plesken_subspace",
        "plesken_lie_algebra",
    ),
    "lie": (
        "fingerprint",
        "center",
        "killing_form",
        "derived_series",
        "lower_central_series",
        "orthogonal_model",
    ),
    "linalg": ("rref",),
    "cellular": (
        "gram_matrix",
        "cell_module",
        "verify_theorem",
        "check_gram_properties",
        "validate_cell_datum",
        "is_semisimple",
    ),
    "interchange": ("parse", "emit", "document_from_algebra"),
    "builders": (
        "quaternions",
        "matrix_algebra",
        "matrix_over_algebra",
        "group_algebra",
        "planar_rook",
        "temperley_lieb",
    ),
    "report": (
        "validate_algebra",
        "analysis_report",
        "cellular_report",
        "dumps",
    ),
    "suite": ("run_suite",),
    "cli": ("main",),
}

# GaussianRational operations counted, with the methods that perform them.
# __rtruediv__ delegates to __truediv__ and is not counted separately.
SCALAR_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__"),
    "sub": ("__sub__", "__rsub__"),
    "div": ("__truediv__",),
    "bool": ("__bool__",),
    "eq": ("__eq__",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = {}
        self._stack: list[int] = []

    def _span(self, name: str, fn, weigh=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        cells = self.counts.setdefault(f"{name}.cells", [0]) if weigh else None

        def wrapper(*args, **kwargs):
            if cells is not None:
                cells[0] += weigh(*args)
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def _counter(self, key: str, fn):
        cell = self.counts.setdefault(key, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        import plesken.cli  # noqa: F401  (loads every module the CLI uses)
        import plesken.suite  # noqa: F401

        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "plesken" or name.startswith("plesken.")
        ]
        for modname, functions in SPANS.items():
            defining = sys.modules[f"plesken.{modname}"]
            for function in functions:
                original = getattr(defining, function)
                weigh = _matrix_cells if function == "rref" else None
                wrapped = self._span(f"{modname}.{function}", original, weigh)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

        from plesken.algebra import Algebra
        from plesken.scalars import GaussianRational

        Algebra.multiply_vectors = self._counter(
            "algebra.Algebra.multiply_vectors.calls", Algebra.multiply_vectors
        )
        for op, methods in SCALAR_OPS.items():
            for method in methods:
                setattr(
                    GaussianRational,
                    method,
                    self._counter(f"scalars.{op}.calls", vars(GaussianRational)[method]),
                )

    def dump(self, path, **extra) -> None:
        """Write two JSON lines: `extra` with `dump_s`, the time spent
        serializing, then the spans and counts."""
        started = time.perf_counter()
        body = json.dumps(
            {"spans": self.spans, "counts": {k: v[0] for k, v in self.counts.items()}}
        )
        extra["dump_s"] = time.perf_counter() - started
        with open(path, "w") as handle:
            handle.write(json.dumps(extra) + "\n" + body + "\n")


def _matrix_cells(m, *_) -> int:
    return m.rows * m.cols


def span_stats(spans: list) -> dict[str, dict[str, float]]:
    """calls, self_s and total_s per span name for one process's spans.

    self_s is a span's duration minus that of the wrapped spans directly
    inside it; total_s sums only spans with no enclosing span of the same
    name, so recursion is not counted twice.
    """
    durations = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[index]
    stats: dict[str, dict[str, float]] = {}
    for index, (name, _, _, parent) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += durations[index] - child_time[index]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            entry["total_s"] += durations[index]
    return stats
