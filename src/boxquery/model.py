"""Learnable model: embedding tables, intersection networks, gradients, Adam.

Entities are points (zero-size boxes); relations carry a center and a raw
offset mapped through elementwise absolute value wherever a nonnegative
offset is required, which keeps the optimizer unconstrained. Query embedding
follows the computation graph: anchors start at their entity vector,
projection edges add the relation box, and multi-parent nodes combine their
projected inputs with an attention-weighted center and a shrunken minimum
offset. Gradients are exact reverse-mode derivatives of this operator set;
there is no generic autodiff here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import CompatibilityError, TrainingError
from .geometry import _BLOCK_ELEMENTS, Box
from .kg import _atomic_open
from .queries import ANCHOR, UNION, ComputationGraph, to_dnf
from .sampling import GroundedQuery

INTERSECTION_MODES = ("attention", "average", "deepsets")
OFFSET_MODES = ("per-relation", "shared")
GEOMETRIES = ("box", "point")

CHECKPOINT_MAGIC = "boxquery-checkpoint"
CHECKPOINT_VERSION = 1

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class ModelConfig:
    """Model and training hyperparameters; defaults are the full-scale ones."""

    dim: int = 400
    alpha: float = 0.2
    gamma: float = 24.0
    negatives: int = 128
    intersection_mode: str = "attention"
    offset_mode: str = "per-relation"
    geometry: str = "box"
    learning_rate: float = 0.0001
    epochs: int = 250
    batch_per_structure: int = 512
    seed: int = 0
    train_structures: tuple[str, ...] = ("1p", "2p", "3p", "2i", "3i")
    dtype: str = "float64"

    def __post_init__(self):
        # accept the long-form aliases for the variant switches
        if self.intersection_mode == "deepsets-center":
            self.intersection_mode = "deepsets"
        if self.offset_mode == "shared-global":
            self.offset_mode = "shared"
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.negatives < 1:
            raise ValueError(f"need at least 1 negative, got {self.negatives}")
        if self.intersection_mode not in INTERSECTION_MODES:
            raise ValueError(f"unknown intersection mode {self.intersection_mode!r}")
        if self.offset_mode not in OFFSET_MODES:
            raise ValueError(f"unknown offset mode {self.offset_mode!r}")
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"dtype must be float64 or float32, got {self.dtype!r}")
        self.train_structures = tuple(self.train_structures)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["train_structures"] = list(self.train_structures)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["train_structures"] = tuple(d.get("train_structures", ("1p", "2p", "3p", "2i", "3i")))
        return cls(**d)


def _net_tensor_specs(d: int) -> list[tuple[str, tuple[int, ...]]]:
    specs: list[tuple[str, tuple[int, ...]]] = []
    # attention MLP: 2d -> 2d -> d
    specs += [("attn.w1", (2 * d, 2 * d)), ("attn.b1", (2 * d,)),
              ("attn.w2", (2 * d, d)), ("attn.b2", (d,))]
    for net in ("center_net", "offset_net"):
        # inner MLP: 2d -> 2d -> 2d, outer MLP: 2d -> 2d -> d
        specs += [(f"{net}.inner.w1", (2 * d, 2 * d)), (f"{net}.inner.b1", (2 * d,)),
                  (f"{net}.inner.w2", (2 * d, 2 * d)), (f"{net}.inner.b2", (2 * d,)),
                  (f"{net}.outer.w1", (2 * d, 2 * d)), (f"{net}.outer.b1", (2 * d,)),
                  (f"{net}.outer.w2", (2 * d, d)), (f"{net}.outer.b2", (d,))]
    return specs


class ModelParams:
    """All trainable tensors, keyed by name in a flat dict."""

    def __init__(self, config: ModelConfig, n_entities: int, n_relations: int):
        self.config = config
        self.n_entities = n_entities
        self.n_relations = n_relations
        dtype = np.dtype(config.dtype)
        d = config.dim
        rng = np.random.default_rng(config.seed)
        scale = 1.0 / np.sqrt(d)
        self.tensors: dict[str, np.ndarray] = {}
        self.tensors["entity"] = rng.uniform(-scale, scale, (n_entities, d)).astype(dtype)
        self.tensors["relation_center"] = rng.uniform(-scale, scale, (n_relations, d)).astype(dtype)
        self.tensors["relation_offset"] = rng.uniform(0.0, scale, (n_relations, d)).astype(dtype)
        self.tensors["shared_offset"] = rng.uniform(0.0, scale, (d,)).astype(dtype)
        for name, shape in _net_tensor_specs(d):
            if name.endswith(("b1", "b2")):
                self.tensors[name] = np.zeros(shape, dtype=dtype)
            else:
                bound = 1.0 / np.sqrt(shape[0])
                self.tensors[name] = rng.uniform(-bound, bound, shape).astype(dtype)

    @property
    def entity(self) -> np.ndarray:
        return self.tensors["entity"]

    @property
    def relation_center(self) -> np.ndarray:
        return self.tensors["relation_center"]

    def effective_relation_offset(self, relation: int) -> np.ndarray:
        return np.abs(self.tensors["relation_offset"][relation])

    def effective_shared_offset(self) -> np.ndarray:
        return np.abs(self.tensors["shared_offset"])

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {name: np.zeros_like(t) for name, t in self.tensors.items()}

    def copy(self) -> "ModelParams":
        clone = object.__new__(ModelParams)
        clone.config = self.config
        clone.n_entities = self.n_entities
        clone.n_relations = self.n_relations
        clone.tensors = {name: t.copy() for name, t in self.tensors.items()}
        return clone


def sigmoid(x):
    # 1 / (1 + exp(-x)) for a scalar or an array, stable on both tails
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _mlp_forward(params: ModelParams, prefix: str, x):
    """Two-layer ReLU MLP over a row block x of shape (n, in)."""
    t = params.tensors
    pre = x @ t[prefix + ".w1"] + t[prefix + ".b1"]
    hidden = np.maximum(pre, 0.0)
    return hidden @ t[prefix + ".w2"] + t[prefix + ".b2"], (x, pre, hidden)


def _mlp_backward(dy, cache, params: ModelParams, prefix: str, grads) -> np.ndarray:
    """Adjoint of the input rows; weight gradients are summed over the rows."""
    x, pre, hidden = cache
    grads[prefix + ".w2"] += hidden.T @ dy
    grads[prefix + ".b2"] += dy.sum(axis=0)
    dpre = (dy @ params.tensors[prefix + ".w2"].T) * (pre > 0)
    grads[prefix + ".w1"] += x.T @ dpre
    grads[prefix + ".b1"] += dpre.sum(axis=0)
    return dpre @ params.tensors[prefix + ".w1"].T


def _deepsets_trace(params: ModelParams, net: str, xs):
    """Set encoding of B sets of n rows, xs of shape (B, n, 2d): the outer
    MLP of the mean of the inner MLPs, one output row per set."""
    inner, inner_cache = _mlp_forward(params, f"{net}.inner", xs.reshape(-1, xs.shape[2]))
    pooled = inner.reshape(*xs.shape[:2], -1).mean(axis=1)
    out, outer_cache = _mlp_forward(params, f"{net}.outer", pooled)
    return out, (inner_cache, outer_cache)


def _deepsets_backward(dout, cache, params: ModelParams, net: str, grads):
    inner_cache, outer_cache = cache
    dpooled = _mlp_backward(dout, outer_cache, params, f"{net}.outer", grads)
    b, n = len(dpooled), len(inner_cache[0]) // len(dpooled)
    dinner = np.repeat(dpooled / n, n, axis=0)
    return _mlp_backward(dinner, inner_cache, params, f"{net}.inner", grads).reshape(b, n, -1)


def _attention_trace(params: ModelParams, xs):
    # weights of shape (B, n, d) for B sets of n input rows
    logits, cache = _mlp_forward(params, "attn", xs.reshape(-1, xs.shape[2]))
    logits = logits.reshape(*xs.shape[:2], -1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    weights = expd / expd.sum(axis=1, keepdims=True)
    return weights, cache


def _attention_backward(dweights, weights, cache, params: ModelParams, grads):
    # dimension-wise softmax backward
    dlogits = weights * (dweights - np.sum(weights * dweights, axis=1, keepdims=True))
    b, n, d = dlogits.shape
    return _mlp_backward(dlogits.reshape(b * n, d), cache, params, "attn", grads).reshape(b, n, -1)


class _Step:
    """One node of a batched branch, as its backward pass reads it: the (B,)
    entity ids of an anchor, or the source node and (B,) relation ids of each
    input edge, the canonical input order (B, n) and the network traces."""

    entities = sources = relations = order = attn = center_ds = offset_ds = None

    def __init__(self, node):
        self.node = node


def _branch_forward(graphs: list[ComputationGraph], params: ModelParams):
    """Embed B union-free grounded graphs of one shape as (B, d) center and
    offset blocks; also returns the steps the backward pass replays."""
    cfg = params.config
    d = cfg.dim
    dtype = np.dtype(cfg.dtype)
    point = cfg.geometry == "point"
    shared = cfg.offset_mode == "shared" and not point
    b = len(graphs)
    shape = graphs[0]
    entities = [{n.id: n.entity for n in g.nodes} for g in graphs]
    relations = [{(e.src, e.dst): e.relation for e in g.edges} for g in graphs]
    zeros = np.zeros((b, d), dtype=dtype)
    fixed = None  # the offset every node produces in point and shared mode
    if point or shared:
        fixed = zeros if point else np.broadcast_to(params.effective_shared_offset(), (b, d))
    rows = np.arange(b)[:, None]

    boxes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    steps = []
    for nid in shape.topological_order():
        in_es = shape.in_edges(nid)
        step = _Step(nid)
        steps.append(step)
        if not in_es:
            if shape.node(nid).kind != ANCHOR:
                raise ValueError(f"source node {nid} is not an anchor")
            step.entities = np.array([ids[nid] for ids in entities])
            boxes[nid] = (params.entity[step.entities], zeros if fixed is None else fixed)
            continue
        if any(e.op == UNION for e in in_es):
            raise ValueError("conjunctive embedding received a union edge")
        step.sources = [e.src for e in in_es]
        step.relations = np.array([[ids[(src, nid)] for src in step.sources] for ids in relations])
        projected = [
            (boxes[src][0] + params.relation_center[r], fixed if fixed is not None
             else boxes[src][1] + np.abs(params.tensors["relation_offset"][r]))
            for src, r in zip(step.sources, step.relations.T)
        ]
        n_in = len(in_es)
        if n_in == 1:
            boxes[nid] = projected[0]
            continue
        centers = np.stack([center for center, _ in projected], axis=1)
        offsets = np.stack([offset for _, offset in projected], axis=1)
        # canonical input order makes every reduction bit-identical under
        # permutation of the branches
        step.order = np.array([
            sorted(range(n_in), key=lambda i: (centers[q, i].tobytes(), offsets[q, i].tobytes(),
                                               step.relations[q, i]))
            for q in range(b)
        ])
        centers = centers[rows, step.order]
        offsets = offsets[rows, step.order]
        xs = np.concatenate([centers, offsets], axis=2)
        if cfg.intersection_mode == "attention":
            weights, cache = _attention_trace(params, xs)
            step.attn = (weights, cache)
            center = np.sum(weights * centers, axis=1)
        elif cfg.intersection_mode == "average":
            center = centers.mean(axis=1)
        else:
            center, step.center_ds = _deepsets_trace(params, "center_net", xs)
        if fixed is None:
            mins = offsets.min(axis=1)
            argmin = offsets.argmin(axis=1)
            raw, cache = _deepsets_trace(params, "offset_net", xs)
            shrink = sigmoid(raw)
            offset = mins * shrink
            step.offset_ds = (cache, shrink, mins, argmin)
        else:
            offset = fixed
        boxes[nid] = (center, offset)
    center, offset = boxes[shape.target.id]
    return center, offset, steps


def _branch_backward(steps, params: ModelParams, d_center, d_offset, grads, table_rows):
    """Accumulate parameter gradients given (B, d) adjoints of the final
    boxes. Entity and relation rows go to `table_rows` as (ids, rows)."""
    cfg = params.config
    point = cfg.geometry == "point"
    shared = cfg.offset_mode == "shared" and not point
    shared_sign = np.sign(params.tensors["shared_offset"]) if shared else None
    b, d = d_center.shape
    rows = np.arange(b)[:, None]

    adjoints = {steps[-1].node: [d_center, d_offset]}  # the target comes last
    for step in reversed(steps):
        if step.node not in adjoints:
            continue
        dc, do = adjoints.pop(step.node)
        if point or shared:
            # a produced offset is abs(shared) in shared mode and constant
            # zero in point mode; either way nothing flows back through the inputs
            if shared:
                grads["shared_offset"] += shared_sign * do.sum(axis=0)
            do = np.zeros((b, d))
        if step.sources is None:
            table_rows["entity"].append((step.entities, dc))
            continue

        # one row of center and offset adjoints per input, per query
        n_in = len(step.sources)
        if n_in == 1:
            in_dc, in_do = dc[:, None], do[:, None]
        else:
            in_dc = np.zeros((b, n_in, d))
            in_do = np.zeros((b, n_in, d))
            if cfg.intersection_mode == "attention":
                weights, cache = step.attn
                # the MLP input rows are [center, offset]
                centers = cache[0].reshape(b, n_in, 2 * d)[:, :, :d]
                in_dc += weights * dc[:, None]
                dxs = _attention_backward(dc[:, None] * centers, weights, cache, params, grads)
                in_dc += dxs[:, :, :d]
                in_do += dxs[:, :, d:]
            elif cfg.intersection_mode == "average":
                in_dc += dc[:, None] / n_in
            else:
                dxs = _deepsets_backward(dc, step.center_ds, params, "center_net", grads)
                in_dc += dxs[:, :, :d]
                in_do += dxs[:, :, d:]
            if step.offset_ds is not None:
                cache, shrink, mins, argmin = step.offset_ds
                in_do[rows, argmin, np.arange(d)] += do * shrink
                draw = (do * mins) * shrink * (1.0 - shrink)
                dxs = _deepsets_backward(draw, cache, params, "offset_net", grads)
                in_dc += dxs[:, :, :d]
                in_do += dxs[:, :, d:]
            # back from canonical order to the order of the input edges
            in_dc[rows, step.order] = in_dc.copy()
            in_do[rows, step.order] = in_do.copy()

        table_rows["relation_center"].append((step.relations.ravel(), in_dc.reshape(-1, d)))
        if shared:
            grads["shared_offset"] += shared_sign * in_do.sum(axis=(0, 1))
        elif not point:
            raw = params.tensors["relation_offset"][step.relations]
            table_rows["relation_offset"].append(
                (step.relations.ravel(), (np.sign(raw) * in_do).reshape(-1, d))
            )
        for i, src in enumerate(step.sources):
            parent = adjoints.setdefault(src, [np.zeros((b, d)), np.zeros((b, d))])
            parent[0] += in_dc[:, i]
            if not (point or shared):
                parent[1] += in_do[:, i]


def _scatter_rows(target: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """target[ids] += rows, where ids may repeat: the k-th occurrence of each
    id is added in round k, so every fancy-indexed add sees distinct ids and
    the rows of one id are added in their given order."""
    order = np.argsort(ids, kind="stable")
    at = np.arange(len(ids))
    sorted_ids = ids[order]
    first = np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    rank = np.empty_like(at)
    rank[order] = at - np.maximum.accumulate(np.where(first, at, 0))
    for k in range(rank.max() + 1):
        target[ids[rank == k]] += rows[rank == k]


def _graph(query: GroundedQuery | ComputationGraph) -> ComputationGraph:
    return query.graph if isinstance(query, GroundedQuery) else query


def embed_conjunctive(query: GroundedQuery | ComputationGraph, params: ModelParams) -> Box:
    """Embed a union-free grounded query as a single box."""
    center, offset, _ = _branch_forward([_graph(query)], params)
    return Box(center[0], offset[0])


def embed_epfo(query: GroundedQuery | ComputationGraph, params: ModelParams) -> list[Box]:
    """Embed any grounded query as one box per DNF branch."""
    branches, _ = to_dnf(_graph(query))
    return [embed_conjunctive(b, params) for b in branches]


class QueryForward:
    """Forward pass of B queries of one structure over all DNF branches, one
    stack of B boxes per branch, kept for a later backward call."""

    def __init__(self, queries: list[GroundedQuery], params: ModelParams):
        if len({q.structure_name for q in queries}) != 1:
            raise ValueError("a batch holds queries of one structure")
        self.params = params
        branches = zip(*(to_dnf(q.graph)[0] for q in queries), strict=True)
        self.records = [_branch_forward(list(graphs), params) for graphs in branches]
        self.boxes = [Box(center, offset) for center, offset, _ in self.records]

    def backward(self, box_adjoints, grads: dict[str, np.ndarray], entity_rows) -> None:
        """Accumulate gradients given (d_center, d_offset) (B, d) adjoints per branch and
        (ids, rows) pairs of entity gradients in `entity_rows`; each table is scattered once."""
        table_rows = {"entity": list(entity_rows), "relation_center": [], "relation_offset": []}
        for (_, _, steps), (dc, do) in zip(self.records, box_adjoints):
            if dc.any() or do.any():
                _branch_backward(steps, self.params, dc, do, grads, table_rows)
        for name, parts in table_rows.items():
            if parts:
                ids, rows = zip(*parts)
                _scatter_rows(grads[name], np.concatenate(ids), np.concatenate(rows))


@dataclass
class AdamState:
    """First and second moment estimates, mirroring the parameter tensors.

    `live` names the tensors whose moments may be nonzero: None until the
    first `adam_step`, which seeds it from the moments it is handed; from
    then on only `adam_step` writes the moments."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    live: set[str] | None = None

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(
            {k: np.zeros_like(t) for k, t in params.tensors.items()},
            {k: np.zeros_like(t) for k, t in params.tensors.items()},
        )


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    t: int,
) -> None:
    """Bias-corrected Adam update, applied in place (t counts from 1).

    Each tensor is streamed once, in blocks of `_BLOCK_ELEMENTS` elements of
    its flat view that meet two scratch blocks of its dtype; the arithmetic
    is the textbook update's, in its order, so the result is bit-identical
    to it. Each gradient block is zeroed once applied: `grads` comes back
    all zero, ready to accumulate the next step. A tensor whose gradient and
    moments are all zero is skipped, as its update is exactly zero (e.g. a
    network the mode never reads); `state.live` saves scanning the moments.
    A non-finite gradient raises `TrainingError` and leaves the step half
    applied."""
    if t < 1:
        raise ValueError("Adam timestep counts from 1")
    bc1 = 1.0 - _ADAM_BETA1**t
    bc2 = 1.0 - _ADAM_BETA2**t
    if state.live is None:
        state.live = {k for k in state.m if state.m[k].any() or state.v[k].any()}
    block = _BLOCK_ELEMENTS
    scratch = {}
    for name, tensor in params.tensors.items():
        g = grads[name]
        if name not in state.live:
            if not g.any():  # NaN is nonzero, so it reaches the finiteness check
                continue
            state.live.add(name)
        if tensor.dtype not in scratch:
            scratch[tensor.dtype] = (np.empty(block, tensor.dtype), np.empty(block, tensor.dtype),
                                     np.empty(block, bool))
        # flat views: every tensor, gradient and moment is C-contiguous
        flats = [a.reshape(-1) for a in (tensor, g, state.m[name], state.v[name])]
        for start in range(0, tensor.size, block):
            x, gb, m, v = (a[start : start + block] for a in flats)
            step, denom, finite = (s[: len(x)] for s in scratch[tensor.dtype])
            if not np.isfinite(gb, out=finite).all():
                raise TrainingError(f"non-finite gradient for parameter {name!r}")
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            m *= _ADAM_BETA1
            m += np.multiply(1.0 - _ADAM_BETA1, gb, out=step)
            v *= _ADAM_BETA2
            v += np.multiply(1.0 - _ADAM_BETA2, np.multiply(gb, gb, out=step), out=step)
            # x -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            np.multiply(lr, np.divide(m, bc1, out=step), out=step)
            np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), _ADAM_EPS, out=denom)
            x -= np.divide(step, denom, out=step)
            gb.fill(0.0)


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    entity_hash: str,
    relation_hash: str,
) -> None:
    """Versioned header line (JSON) followed by raw tensor bytes."""
    names = sorted(params.tensors)
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "n_entities": params.n_entities,
        "n_relations": params.n_relations,
        "entity_hash": entity_hash,
        "relation_hash": relation_hash,
        "tensors": [
            {"name": n, "dtype": str(params.tensors[n].dtype),
             "shape": list(params.tensors[n].shape)}
            for n in names
        ],
    }
    with _atomic_open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for n in names:
            f.write(np.ascontiguousarray(params.tensors[n]).tobytes())


def load_checkpoint(path: str | Path) -> tuple[ModelParams, str, str]:
    """Returns (params, entity_hash, relation_hash)."""
    with open(path, "rb") as f:
        header_line = f.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise CompatibilityError(f"{path}: not a checkpoint file") from exc
        if header.get("format") != CHECKPOINT_MAGIC:
            raise CompatibilityError(f"{path}: not a checkpoint file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CompatibilityError(
                f"{path}: unsupported checkpoint version {header.get('version')}"
            )
        config = ModelConfig.from_dict(header["config"])
        params = object.__new__(ModelParams)
        params.config = config
        params.n_entities = header["n_entities"]
        params.n_relations = header["n_relations"]
        params.tensors = {}
        d, n_rel = config.dim, params.n_relations
        expected = dict(_net_tensor_specs(d), entity=(params.n_entities, d), shared_offset=(d,),
                        relation_center=(n_rel, d), relation_offset=(n_rel, d))
        found = {spec["name"]: tuple(spec["shape"]) for spec in header["tensors"]}
        for name in sorted(expected.keys() | found.keys()):
            if found.get(name) != expected.get(name):
                raise CompatibilityError(f"{path}: tensor {name!r} has shape {found.get(name)}, "
                                         f"the model needs {expected.get(name)} (None: absent)")
        for spec in header["tensors"]:
            shape = tuple(spec["shape"])
            dtype = np.dtype(spec["dtype"])
            count = int(np.prod(shape)) if shape else 1
            buf = f.read(count * dtype.itemsize)
            if len(buf) != count * dtype.itemsize:
                raise CompatibilityError(
                    f"{path}: truncated checkpoint, tensor {spec['name']!r} is incomplete"
                )
            tensor = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
            if not np.all(np.isfinite(tensor)):
                raise CompatibilityError(f"{path}: tensor {spec['name']!r} has non-finite values")
            params.tensors[spec["name"]] = tensor
        if f.read(1):
            raise CompatibilityError(f"{path}: trailing bytes after the last tensor")
    return params, header["entity_hash"], header["relation_hash"]
