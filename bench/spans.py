"""Layer spans recorded around the public functions of each boxquery module.

The wrappers replace a function under every name it is looked up by: the
package re-exports most functions and `training`, `evaluation` and
`sampling` import their helpers by name, so patching only the defining
module would miss most calls. Methods are wrapped on their class.

A span is (layer, start, end, parent span, request id). A request is one
grounding attempt, one optimizer step or one eval query. Spans stay in
memory until `write` saves them once, at exit.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (layer name, defining module, attribute path, request role)
# "start" opens a new request id on entry, "end" closes one on return.
LAYERS = (
    ("kg.build_split_graphs", "boxquery.kg", "build_split_graphs", None),
    ("kg.project_frontier", "boxquery.kg", "KnowledgeGraph.project_frontier", None),
    ("queries.topological_order", "boxquery.queries", "ComputationGraph.topological_order", None),
    ("queries.in_edges", "boxquery.queries", "ComputationGraph.in_edges", None),
    ("queries.canonical_key", "boxquery.queries", "canonical_key", None),
    ("queries.to_dnf", "boxquery.queries", "to_dnf", None),
    ("sampling.try_instantiate", "boxquery.sampling", "try_instantiate", "start"),
    ("sampling.answer_set", "boxquery.sampling", "answer_set", None),
    ("geometry.grad_dist_box", "boxquery.geometry", "grad_dist_box", None),
    ("geometry.dist_box_many", "boxquery.geometry", "dist_box_many", None),
    ("model.forward", "boxquery.model", "QueryForward.__init__", None),
    ("model.forward", "boxquery.model", "embed_epfo", None),
    ("model.backward", "boxquery.model", "QueryForward.backward", None),
    ("model.adam_step", "boxquery.model", "adam_step", "end"),
    ("model.zero_grads", "boxquery.model", "ModelParams.zero_grads", None),
    ("training.sample_negatives", "boxquery.training", "sample_negatives", None),
    ("training.query_loss_and_grads", "boxquery.training", "query_loss_and_grads", None),
    ("evaluation.entity_distances", "boxquery.evaluation", "entity_distances", None),
    ("evaluation.rank_entity", "boxquery.evaluation", "rank_entity", None),
    ("evaluation.metrics_for_query", "boxquery.evaluation", "metrics_for_query", "start"),
)

# Called too often for a span each; only their calls are counted.
COUNTED = (
    ("kg.sources", "boxquery.kg", "KnowledgeGraph.sources"),
    ("kg.relations_into", "boxquery.kg", "KnowledgeGraph.relations_into"),
)

PHASE_PREFIX = "phase."


class Tracer:
    """Span recorder; `install` patches the program, `uninstall` restores it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counts: dict[str, int] = {}
        self.rows = 0  # entity rows scored by dist_box_many
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((self._code(name), perf_counter(), 0.0, parent, self.request))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        self._stack.pop()
        code, start, _, parent, request = self.spans[idx]
        self.spans[idx] = (code, start, end, parent, request)

    @contextmanager
    def phase(self, name: str):
        """One timed phase; phases are root spans."""
        self.request += 1
        idx = self.open(PHASE_PREFIX + name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap_span(self, name: str, fn, role: str | None):
        tracer = self
        counts_rows = name == "geometry.dist_box_many"

        def wrapper(*args, **kwargs):
            if role == "start":
                tracer.request += 1
            if counts_rows:
                tracer.rows += len(args[0])
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if role == "end":
                    tracer.request += 1

        return wrapper

    def _wrap_count(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, module, path, role in LAYERS:
            self._patch(module, path, lambda fn, n=name, r=role: self._wrap_span(n, fn, r))
        for name, module, path in COUNTED:
            self._patch(module, path, lambda fn, n=name: self._wrap_count(n, fn))

    def _patch(self, module: str, path: str, make) -> None:
        owner = sys.modules[module]
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return  # the layer no longer exists; it reports zero calls
        wrapped = make(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapped)
            return
        # every module of the package that holds the same object by name
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "boxquery" and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {
            "layer": table[:, 0].astype(np.int64),
            "start": table[:, 1],
            "end": table[:, 2],
            "parent": table[:, 3].astype(np.int64),
            "request": table[:, 4].astype(np.int64),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: calls and self time (span time minus child spans)."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - child
        out = {}
        for code, name in enumerate(self.names):
            mask = a["layer"] == code
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_time[mask].sum()),
                "total_s": float(duration[mask].sum()),
            }
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
