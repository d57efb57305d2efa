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
from .geometry import Box
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
    inner, inner_cache = _mlp_forward(params, f"{net}.inner", xs)
    pooled = inner.mean(axis=0, keepdims=True)
    out, outer_cache = _mlp_forward(params, f"{net}.outer", pooled)
    return out[0], (inner_cache, outer_cache)


def _deepsets_backward(dout, cache, params: ModelParams, net: str, grads):
    inner_cache, outer_cache = cache
    dpooled = _mlp_backward(dout[None], outer_cache, params, f"{net}.outer", grads)
    n = len(inner_cache[0])
    dinner = np.broadcast_to(dpooled / n, (n, dpooled.shape[1]))
    return _mlp_backward(dinner, inner_cache, params, f"{net}.inner", grads)


def deepsets_forward(inputs, params: ModelParams, net: str = "offset_net") -> np.ndarray:
    """Permutation-invariant set encoding: outer MLP of the mean of inner MLPs.

    The rows are put in a canonical order first, so the pooled sum, and with
    it the output, is bit-identical under any permutation of the inputs."""
    if len(inputs) == 0:
        raise ValueError("deepsets_forward requires at least one input")
    xs = sorted((np.asarray(x) for x in inputs), key=lambda x: x.tobytes())
    return _deepsets_trace(params, net, np.stack(xs))[0]


def _attention_trace(params: ModelParams, xs):
    logits, cache = _mlp_forward(params, "attn", xs)
    shifted = logits - logits.max(axis=0)
    expd = np.exp(shifted)
    weights = expd / expd.sum(axis=0)
    return weights, cache


def _attention_backward(dweights, weights, cache, params: ModelParams, grads):
    # dimension-wise softmax backward
    dlogits = weights * (dweights - np.sum(weights * dweights, axis=0))
    return _mlp_backward(dlogits, cache, params, "attn", grads)


def attention_weights(boxes, params: ModelParams) -> list[np.ndarray]:
    """Dimension-wise softmax over the attention MLP outputs, one weight
    vector per box; each dimension's weights sum to one across boxes."""
    xs = np.stack([np.concatenate([b.center, b.offset]) for b in boxes])
    weights, _ = _attention_trace(params, xs)
    return list(weights)


class _NodeTrace:
    __slots__ = ("op", "entity", "inputs", "attn", "center_ds", "offset_ds")

    def __init__(self, op):
        self.op = op
        self.entity = None
        self.inputs = []  # list of (src_id, relation), in canonical order
        self.attn = None  # (weights, mlp cache)
        self.center_ds = None
        self.offset_ds = None  # (cache, shrink, mins, argmin)


def _forward_conjunctive(graph: ComputationGraph, params: ModelParams):
    """Embed a union-free grounded graph, recording every intermediate."""
    cfg = params.config
    d = cfg.dim
    dtype = np.dtype(cfg.dtype)
    point = cfg.geometry == "point"
    shared = cfg.offset_mode == "shared" and not point
    zeros = np.zeros(d, dtype=dtype)
    shared_offset = params.effective_shared_offset() if shared else None

    def produced_offset(offset):
        if point:
            return zeros
        if shared:
            return shared_offset
        return offset

    traces: dict[int, _NodeTrace] = {}
    boxes: dict[int, Box] = {}
    order = graph.topological_order()
    for nid in order:
        node = graph.node(nid)
        in_es = graph.in_edges(nid)
        if not in_es:
            if node.kind != ANCHOR:
                raise ValueError(f"source node {nid} is not an anchor")
            trace = _NodeTrace("anchor")
            trace.entity = node.entity
            traces[nid] = trace
            boxes[nid] = Box(params.entity[node.entity].copy(), produced_offset(zeros))
            continue
        if any(e.op == UNION for e in in_es):
            raise ValueError("conjunctive embedding received a union edge")
        trace = _NodeTrace("proj" if len(in_es) == 1 else "intersect")
        projected = []
        for e in in_es:
            parent = boxes[e.src]
            center = parent.center + params.relation_center[e.relation]
            if point or shared:
                offset = produced_offset(zeros)
            else:
                offset = parent.offset + params.effective_relation_offset(e.relation)
            projected.append((center, offset, e.src, e.relation))
        if len(projected) == 1:
            center, offset, src, relation = projected[0]
            trace.inputs = [(src, relation)]
            traces[nid] = trace
            boxes[nid] = Box(center, offset)
            continue
        # canonical input order makes every reduction bit-identical under
        # permutation of the branches
        projected.sort(key=lambda p: (p[0].tobytes(), p[1].tobytes(), p[3]))
        trace.inputs = [(src, relation) for _, _, src, relation in projected]
        centers = np.stack([p[0] for p in projected])
        offsets = np.stack([p[1] for p in projected])
        xs = np.concatenate([centers, offsets], axis=1)
        if cfg.intersection_mode == "attention":
            weights, cache = _attention_trace(params, xs)
            trace.attn = (weights, cache)
            center = np.sum(weights * centers, axis=0)
        elif cfg.intersection_mode == "average":
            center = centers.mean(axis=0)
        else:
            center, trace.center_ds = _deepsets_trace(params, "center_net", xs)
        if point or shared:
            offset = produced_offset(zeros)
        else:
            mins = offsets.min(axis=0)
            argmin = offsets.argmin(axis=0)
            raw, cache = _deepsets_trace(params, "offset_net", xs)
            shrink = sigmoid(raw)
            offset = mins * shrink
            trace.offset_ds = (cache, shrink, mins, argmin)
        traces[nid] = trace
        boxes[nid] = Box(center, offset)
    return boxes[graph.target.id], traces, order


def _backward_conjunctive(
    graph: ComputationGraph,
    params: ModelParams,
    traces,
    order,
    d_center: np.ndarray,
    d_offset: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Accumulate parameter gradients given adjoints of the final box."""
    cfg = params.config
    d = cfg.dim
    point = cfg.geometry == "point"
    shared = cfg.offset_mode == "shared" and not point
    shared_sign = np.sign(params.tensors["shared_offset"]) if shared else None

    adjoints: dict[int, list[np.ndarray]] = {
        graph.target.id: [d_center.copy(), d_offset.copy()]
    }

    def divert_offset(do):
        # a produced offset is abs(shared) in shared mode and constant zero in
        # point mode; either way nothing flows back through the inputs
        if shared:
            grads["shared_offset"] += shared_sign * do
        return np.zeros(d)

    for nid in reversed(order):
        if nid not in adjoints:
            continue
        dc, do = adjoints.pop(nid)
        trace = traces[nid]
        if point or shared:
            do = divert_offset(do)
        if trace.op == "anchor":
            grads["entity"][trace.entity] += dc
            continue

        # one row of center and offset adjoints per input
        n_in = len(trace.inputs)
        in_dc = np.zeros((n_in, d))
        in_do = np.zeros((n_in, d))
        if n_in == 1:
            in_dc += dc
            in_do += do
        else:
            if cfg.intersection_mode == "attention":
                weights, cache = trace.attn
                centers = cache[0][:, :d]  # the MLP input rows are [center, offset]
                in_dc += weights * dc
                dxs = _attention_backward(dc * centers, weights, cache, params, grads)
                in_dc += dxs[:, :d]
                in_do += dxs[:, d:]
            elif cfg.intersection_mode == "average":
                in_dc += dc / n_in
            else:
                dxs = _deepsets_backward(dc, trace.center_ds, params, "center_net", grads)
                in_dc += dxs[:, :d]
                in_do += dxs[:, d:]
            if trace.offset_ds is not None:
                cache, shrink, mins, argmin = trace.offset_ds
                in_do[argmin, np.arange(d)] += do * shrink
                draw = (do * mins) * shrink * (1.0 - shrink)
                dxs = _deepsets_backward(draw, cache, params, "offset_net", grads)
                in_dc += dxs[:, :d]
                in_do += dxs[:, d:]

        for i, (src, relation) in enumerate(trace.inputs):
            grads["relation_center"][relation] += in_dc[i]
            parent = adjoints.setdefault(src, [np.zeros(d), np.zeros(d)])
            parent[0] += in_dc[i]
            if point:
                continue
            if shared:
                grads["shared_offset"] += shared_sign * in_do[i]
            else:
                raw = params.tensors["relation_offset"][relation]
                grads["relation_offset"][relation] += np.sign(raw) * in_do[i]
                parent[1] += in_do[i]


def embed_conjunctive(query: GroundedQuery | ComputationGraph, params: ModelParams) -> Box:
    """Embed a union-free grounded query as a single box."""
    graph = query.graph if isinstance(query, GroundedQuery) else query
    box, _, _ = _forward_conjunctive(graph, params)
    return box


def embed_epfo(query: GroundedQuery | ComputationGraph, params: ModelParams) -> list[Box]:
    """Embed any grounded query as one box per DNF branch."""
    graph = query.graph if isinstance(query, GroundedQuery) else query
    branches, _ = to_dnf(graph)
    return [embed_conjunctive(b, params) for b in branches]


class QueryForward:
    """Forward pass over all DNF branches, kept for a later backward call."""

    def __init__(self, query: GroundedQuery | ComputationGraph, params: ModelParams):
        graph = query.graph if isinstance(query, GroundedQuery) else query
        self.params = params
        self.branches, _ = to_dnf(graph)
        self.records = [_forward_conjunctive(b, params) for b in self.branches]
        self.boxes = [box for box, _, _ in self.records]
        self._adjoints = [
            (np.zeros(params.config.dim), np.zeros(params.config.dim))
            for _ in self.branches
        ]

    def add_box_adjoint(self, branch: int, d_center: np.ndarray, d_offset: np.ndarray):
        dc, do = self._adjoints[branch]
        dc += d_center
        do += d_offset

    def backward(self, grads: dict[str, np.ndarray]) -> None:
        for branch, (graph, record) in enumerate(zip(self.branches, self.records)):
            dc, do = self._adjoints[branch]
            if not dc.any() and not do.any():
                continue
            _, traces, order = record
            _backward_conjunctive(graph, self.params, traces, order, dc, do, grads)


@dataclass
class AdamState:
    """First and second moment estimates, mirroring the parameter tensors."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]

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
    """Bias-corrected Adam update, applied in place (t counts from 1)."""
    if t < 1:
        raise ValueError("Adam timestep counts from 1")
    bc1 = 1.0 - _ADAM_BETA1**t
    bc2 = 1.0 - _ADAM_BETA2**t
    for name, tensor in params.tensors.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * g
        v *= _ADAM_BETA2
        v += (1.0 - _ADAM_BETA2) * (g * g)
        tensor -= lr * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)


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
    with open(path, "wb") as f:
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
        for spec in header["tensors"]:
            shape = tuple(spec["shape"])
            dtype = np.dtype(spec["dtype"])
            count = int(np.prod(shape)) if shape else 1
            buf = f.read(count * dtype.itemsize)
            if len(buf) != count * dtype.itemsize:
                raise CompatibilityError(
                    f"{path}: truncated checkpoint, tensor {spec['name']!r} is incomplete"
                )
            params.tensors[spec["name"]] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
        if f.read(1):
            raise CompatibilityError(f"{path}: trailing bytes after the last tensor")
    return params, header["entity_hash"], header["relation_hash"]
