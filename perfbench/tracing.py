"""Tracing of calls into linkfold's layers, from outside the program.

:class:`Tracer` replaces each listed public function by a timing wrapper in
every ``linkfold.*`` namespace that bound it (a function imported by name
into four modules is wrapped four times), and wraps the ``AugmentedSystem``
methods on the class. It aggregates calls, inclusive time, self time
(inclusive minus traced children) and failures per name, and keeps a span
with its parent's id for every call above the kernel level. ``uninstall``
restores the originals.

:func:`layer_metrics` turns the aggregates into the per-layer metrics the
benchmark reports; :data:`REQUIRED` lists, per workload, the names that must
record calls for the traced run to count as covering its layers.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import time
from collections import Counter

# layer -> public functions wrapped in the traced run
TRACED = {
    "polynomial": ["eval_poly", "conj_gradient"],
    "geometry": [
        "link_residual", "project_to_link", "tangent_frame", "chart",
        "sample_link_points",
    ],
    "singular_set": [
        "seed_singular_points", "collect_components", "criterion_rank_defect",
        "direct_singularity_test", "scan_gradient_dependence",
    ],
    "fold_classify": [
        "classify_component", "local_fold_data", "intrinsic_hessian",
        "equivariance_error", "verify_round",
    ],
    "morse": [
        "slice_critical_points", "slice_morse_index", "composed_morse",
        "trace_image_n1",
    ],
    "report": ["write_singular_csv", "write_image_svg", "write_report_json"],
}
# the report writers are aggregated as one name
AGGREGATED_AS = dict.fromkeys(TRACED["report"], "write")
AUGMENTED_METHODS = ("residual", "jacobian", "tangent", "corrector", "newton_least_norm")

# called thousands of times per pass: aggregated, but no span is kept
KERNELS = frozenset(
    ["eval_poly", "conj_gradient", "link_residual", "project_to_link",
     "tangent_frame", "chart", "criterion_rank_defect", "direct_singularity_test"]
    + [f"AugmentedSystem.{m}" for m in AUGMENTED_METHODS]
)

# results that report a failure instead of raising
FAILED_IF = {
    "AugmentedSystem.corrector": lambda result: not result[2],
    "AugmentedSystem.newton_least_norm": lambda result: not result[1],
}
# extra counts taken from results: name -> {counter: function of result}
COUNTS = {
    "sample_link_points": {"items": len},
    "seed_singular_points": {"items": len},
    "collect_components": {
        "items": len,
        "nodes": lambda traces: sum(len(t.points) for t in traces),
    },
}

_SEED_AND_TRACE = {
    "eval_poly", "conj_gradient", "link_residual", "project_to_link",
    "tangent_frame", "chart", "sample_link_points", "seed_singular_points",
    "collect_components", "criterion_rank_defect",
} | {f"AugmentedSystem.{m}" for m in AUGMENTED_METHODS}
REQUIRED = {
    "a1_verify": _SEED_AND_TRACE | {
        "direct_singularity_test", "scan_gradient_dependence",
        "classify_component", "local_fold_data", "intrinsic_hessian",
        "equivariance_error", "verify_round", "slice_critical_points",
        "slice_morse_index", "composed_morse", "trace_image_n1", "write",
        "run_verify_a1.n1", "run_verify_a1.n2", "run_verify_a1.n3",
        "run_verify_a1.n4",
    },
    "singular_trace": _SEED_AND_TRACE | {"write"},
    "morse_sweep": _SEED_AND_TRACE | {
        "slice_critical_points", "slice_morse_index", "composed_morse",
    },
}


class Tracer:
    """Per-name call aggregates and spans for one traced pass."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.stats = {}  # name -> [calls, inclusive_s, self_s, failed]
        self.pair_calls = Counter()  # (parent name, name) -> calls
        self.pair_counts = Counter()  # (parent name, name, counter) -> total
        self.spans = []
        self.bindings = Counter()  # name -> namespaces wrapped
        self._stack = [["<root>", 0.0, None]]
        self._ids = itertools.count(1)
        self._origin = time.perf_counter()
        self._undo = []

    # -- bookkeeping -------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1]
        span_id = parent[2] if name in KERNELS else next(self._ids)
        frame = [name, 0.0, span_id, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, start, end, failed):
        self._stack.pop()
        name, child_s, span_id, parent = frame
        duration = end - start
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - child_s
        stats[3] += failed
        parent[1] += duration
        self.pair_calls[(parent[0], name)] += 1
        if name not in KERNELS:
            self.spans.append({
                "trace": self.trace_id, "id": span_id, "parent": parent[2],
                "name": name, "start_s": start - self._origin,
                "end_s": end - self._origin, "failed": bool(failed),
            })
        return parent[0]

    @contextlib.contextmanager
    def span(self, name):
        """A span of the benchmark's own, around a call into a layer."""
        frame = self._enter(name)
        start = time.perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            self._exit(frame, start, time.perf_counter(), failed)

    def _wrap(self, name, fn):
        failed_if = FAILED_IF.get(name)
        counts = COUNTS.get(name, {})
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, start, clock(), 1)
                raise
            failed = bool(failed_if is not None and failed_if(result))
            parent = self._exit(frame, start, clock(), failed)
            for counter, count in counts.items():
                self.pair_counts[(parent, name, counter)] += count(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [mod for modname, mod in list(sys.modules.items())
                   if modname == "linkfold" or modname.startswith("linkfold.")]
        for layer, entries in TRACED.items():
            home = sys.modules[f"linkfold.{layer}"]
            for fname in entries:
                original = getattr(home, fname)
                wrapper = self._wrap(AGGREGATED_AS.get(fname, fname), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))
                            self.bindings[fname] += 1
        cls = sys.modules["linkfold.singular_set"].AugmentedSystem
        for method in AUGMENTED_METHODS:
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(f"AugmentedSystem.{method}", original))
            self._undo.append((cls, method, original))
            self.bindings[f"AugmentedSystem.{method}"] += 1

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0])[0]

    def missing(self, workload):
        """Required names that recorded no call on ``workload``."""
        return sorted(name for name in REQUIRED[workload] if self.calls(name) == 0)

    def dump(self):
        return {
            "trace": self.trace_id,
            "bindings": dict(self.bindings),
            "aggregates": {
                name: {"calls": c, "s": s, "self_s": own, "failed": f}
                for name, (c, s, own, f) in sorted(self.stats.items())
            },
            "spans": self.spans,
        }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer metrics from one traced pass (0 where a layer did not run)."""
    stats = tracer.stats

    def get(name, i):
        return stats.get(name, [0, 0.0, 0.0, 0])[i]

    out = {}
    for name in sorted(
        {AGGREGATED_AS.get(n, n) for entries in TRACED.values() for n in entries}
        | {f"AugmentedSystem.{m}" for m in AUGMENTED_METHODS}
        | {f"run_verify_a1.n{n}" for n in (1, 2, 3, 4)}
    ):
        out[f"{name}.calls"] = get(name, 0)
        out[f"{name}.s"] = get(name, 1)
        out[f"{name}.self_s"] = get(name, 2)
        out[f"{name}.failed"] = get(name, 3)
    pairs, counts = tracer.pair_calls, tracer.pair_counts

    def total(name, counter):
        return sum(v for (_, n, c), v in counts.items() if n == name and c == counter)

    out["project_to_link.iters_per_call"] = _ratio(
        pairs[("project_to_link", "link_residual")], get("project_to_link", 0))
    out["sample_link_points.useful_ratio"] = _ratio(
        total("sample_link_points", "items"),
        pairs[("sample_link_points", "project_to_link")])
    out["seed_singular_points.seeds"] = total("seed_singular_points", "items")
    out["seed_singular_points.useful_ratio"] = _ratio(
        out["seed_singular_points.seeds"],
        counts[("seed_singular_points", "sample_link_points", "items")])
    out["collect_components.components"] = total("collect_components", "items")
    out["collect_components.nodes"] = total("collect_components", "nodes")
    return out
