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
import mmap
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import CompatibilityError, TrainingError
from .geometry import _BLOCK_ELEMENTS
from .kg import _atomic_open
from .queries import TRAINABLE_NAMES, ComputationGraph, template, to_dnf
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
        if not 0 < self.gamma < float("inf"):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        for field in ("dim", "negatives", "epochs", "batch_per_structure"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be at least 1, got {getattr(self, field)}")
        if not 0 < self.learning_rate < float("inf"):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.intersection_mode not in INTERSECTION_MODES:
            raise ValueError(f"unknown intersection mode {self.intersection_mode!r}")
        if self.offset_mode not in OFFSET_MODES:
            raise ValueError(f"unknown offset mode {self.offset_mode!r}")
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"dtype must be float64 or float32, got {self.dtype!r}")
        self.train_structures = tuple(self.train_structures)
        if not self.train_structures or not set(self.train_structures) <= set(TRAINABLE_NAMES):
            raise ValueError(f"train_structures must be a non-empty subset of {TRAINABLE_NAMES}, "
                             f"got {self.train_structures}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["train_structures"] = list(self.train_structures)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of `to_dict`: every field, each of its default's JSON type
        (a list for a tuple; an int is a float too); ValueError otherwise."""
        kinds = {f.name: list if isinstance(f.default, tuple) else type(f.default)
                 for f in fields(cls)}
        if d.keys() != kinds.keys():
            raise ValueError(f"config keys unknown: {sorted(d.keys() - kinds.keys())}, "
                             f"missing: {sorted(kinds.keys() - d.keys())}")
        for name, value in d.items():
            if type(value) is not kinds[name] and (kinds[name], type(value)) != (float, int):
                raise ValueError(f"config {name} = {value!r} has type {type(value).__name__}, "
                                 f"not {kinds[name].__name__}")
        return cls(**d)  # __post_init__ turns the JSON list back into a tuple


def _tensor_specs(d: int, n_entities: int, n_relations: int) -> list:
    """(name, shape, uniform init range or None for zeros) of every tensor,
    in the order `ModelParams` draws them."""
    scale = 1.0 / np.sqrt(d)
    specs = [("entity", (n_entities, d), (-scale, scale)),
             ("relation_center", (n_relations, d), (-scale, scale)),
             ("relation_offset", (n_relations, d), (0.0, scale)),
             ("shared_offset", (d,), (0.0, scale))]
    # attention MLP: 2d -> 2d -> d; the center and offset nets each have an
    # inner MLP 2d -> 2d -> 2d and an outer MLP 2d -> 2d -> d
    mlps = [("attn", d)]
    for net in ("center_net", "offset_net"):
        mlps += [(f"{net}.inner", 2 * d), (f"{net}.outer", d)]
    bound = 1.0 / np.sqrt(2 * d)
    for prefix, out in mlps:
        specs += [(f"{prefix}.w1", (2 * d, 2 * d), (-bound, bound)),
                  (f"{prefix}.b1", (2 * d,), None),
                  (f"{prefix}.w2", (2 * d, out), (-bound, bound)),
                  (f"{prefix}.b2", (out,), None)]
    return specs


def _unmapped_zeros(like: np.ndarray) -> np.ndarray:
    """Zeros of `like`'s shape and dtype in a private anonymous mapping of
    their own: a page becomes resident on its first write (reading an
    unwritten one maps the shared zero page), and the mapping goes back to
    the system when the array is freed. `np.zeros` promises neither: its
    calloc may hand out freed heap memory, which it clears page by page.
    Where there are no such mappings (Windows), and for an empty tensor,
    it is `np.zeros`."""
    if like.nbytes == 0 or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(like.shape, like.dtype)
    private = mmap.mmap(-1, like.nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(private, like.dtype).reshape(like.shape)


class ModelParams:
    """All trainable tensors, keyed by name in a flat dict."""

    def __init__(self, config: ModelConfig, n_entities: int, n_relations: int):
        self.config = config
        self.n_entities = n_entities
        self.n_relations = n_relations
        dtype = np.dtype(config.dtype)
        rng = np.random.default_rng(config.seed)
        self.tensors: dict[str, np.ndarray] = {
            name: np.zeros(shape, dtype) if bounds is None
            else rng.uniform(*bounds, shape).astype(dtype, copy=False)
            for name, shape, bounds in _tensor_specs(config.dim, n_entities, n_relations)
        }

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
        """One zero gradient buffer per tensor, each in a fresh mapping
        (`_unmapped_zeros`), so the buffer of a tensor the mode never reads
        (e.g. `center_net.*` in attention mode) never becomes resident."""
        return {name: _unmapped_zeros(t) for name, t in self.tensors.items()}

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
    entity ids of an anchor, or the source node and (B, n) relation ids of
    its input edges, the canonical input order (B, n) and the network traces."""

    entities = sources = relations = order = attn = center_ds = offset_ds = None

    def __init__(self, node):
        self.node = node


def _branch_forward(shape: ComputationGraph, anchors: np.ndarray, relations: np.ndarray,
                    params: ModelParams):
    """Embed B queries along `shape`, a union-free branch of their template,
    as (B, d) center and offset blocks; `anchors` (B, n_anchor_slots) and
    `relations` (B, n_relation_slots) hold their ids by slot. Also returns
    the steps the backward pass replays."""
    cfg = params.config
    d = cfg.dim
    dtype = np.dtype(cfg.dtype)
    point = cfg.geometry == "point"
    shared = cfg.offset_mode == "shared" and not point
    b = len(anchors)
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
            step.entities = anchors[:, shape.node(nid).slot]
            boxes[nid] = (params.entity[step.entities], zeros if fixed is None else fixed)
            continue
        step.sources = [e.src for e in in_es]
        step.relations = relations[:, [e.slot for e in in_es]]
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


def _scatter_rows(target: np.ndarray, ids: np.ndarray, rows: np.ndarray, scratch=None) -> None:
    """target[ids] += rows, where ids may repeat: the k-th occurrence of each
    id is added in round k, so every fancy-indexed add sees distinct ids and
    the rows of one id are added in their given order. A round gathers its
    target rows and its rows into `scratch`, a pair of arrays of at least
    len(ids) rows in the dtypes of target and rows, when it is given."""
    order = np.argsort(ids, kind="stable")
    at = np.arange(len(ids))
    sorted_ids = ids[order]
    first = np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    rank = np.empty_like(at)
    rank[order] = at - np.maximum.accumulate(np.where(first, at, 0))
    for k in range(rank.max() + 1):
        picked = np.flatnonzero(rank == k)
        acc, add = (None, None) if scratch is None else (s[: len(picked)] for s in scratch)
        # "wrap" indexes as the assignment below does and spares take's
        # bounds-check copy; an id out of range still fails the assignment
        acc = np.take(target, ids[picked], axis=0, out=acc, mode="wrap")
        acc += np.take(rows, picked, axis=0, out=add, mode="wrap")
        target[ids[picked]] = acc


class QueryForward:
    """Forward pass of B queries of one structure over all DNF branches of
    its template, kept for a later backward call. `boxes` holds one
    (center, offset) pair of (B, d) stacks per branch. The topology comes
    from the template; the queries give only (B, slots) arrays of slot ids."""

    def __init__(self, queries: list[GroundedQuery], params: ModelParams):
        names = {q.structure_name for q in queries}
        if len(names) != 1:
            raise ValueError("a batch holds queries of one structure")
        self.params = params
        anchors = np.array([q.anchors for q in queries], dtype=int)
        relations = np.array([q.relations for q in queries], dtype=int)
        branches, _ = to_dnf(template(names.pop()).graph)
        self.records = [_branch_forward(branch, anchors, relations, params)
                        for branch in branches]
        self.boxes = [(center, offset) for center, offset, _ in self.records]

    def backward(self, box_adjoints, grads: dict[str, np.ndarray]) -> None:
        """Accumulate gradients given (d_center, d_offset) (B, d) adjoints per
        branch; each table's rows are scattered once."""
        table_rows = {"entity": [], "relation_center": [], "relation_offset": []}
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
    then on only `adam_step` writes the moments, and only those of tensors
    that got a gradient. So the moments of a tensor the mode never reads are
    never written and, allocated by `_unmapped_zeros`, never become resident."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    live: set[str] | None = None

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(
            {k: _unmapped_zeros(t) for k, t in params.tensors.items()},
            {k: _unmapped_zeros(t) for k, t in params.tensors.items()},
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
        except ValueError as exc:  # not JSON, or not UTF-8
            raise CompatibilityError(f"{path}: not a checkpoint file") from exc
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
            raise CompatibilityError(f"{path}: not a checkpoint file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CompatibilityError(
                f"{path}: unsupported checkpoint version {header.get('version')}"
            )
        try:
            config = ModelConfig.from_dict(header["config"])
            counts = (header["n_entities"], header["n_relations"])
            hashes = (header["entity_hash"], header["relation_hash"])
            if not all(type(n) is int and n >= 0 for n in counts):
                raise ValueError(f"entity and relation counts {counts} are not counts")
            if not all(type(h) is str for h in hashes):
                raise ValueError(f"vocabulary hashes {hashes} are not strings")
            names = [spec["name"] for spec in header["tensors"]]
            found = {spec["name"]: tuple(spec["shape"]) for spec in header["tensors"]}
            if any(spec["dtype"] != config.dtype for spec in header["tensors"]):
                raise ValueError(f"tensor dtypes differ from the config's {config.dtype}")
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CompatibilityError(f"{path}: malformed checkpoint header "
                                     f"({type(exc).__name__}: {exc})") from exc
        for name in names:
            if names.count(name) > 1:
                raise CompatibilityError(f"{path}: tensor {name!r} is listed more than once")
        params = object.__new__(ModelParams)
        params.config = config
        params.n_entities, params.n_relations = counts
        params.tensors = {}
        expected = {name: shape for name, shape, _ in _tensor_specs(config.dim, *counts)}
        for name in sorted(expected.keys() | found.keys(), key=str):
            if found.get(name) != expected.get(name):
                raise CompatibilityError(f"{path}: tensor {name!r} has shape {found.get(name)}, "
                                         f"the model needs {expected.get(name)} (None: absent)")
        dtype = np.dtype(config.dtype)
        for name in names:
            shape = expected[name]
            count = int(np.prod(shape))
            buf = f.read(count * dtype.itemsize)
            if len(buf) != count * dtype.itemsize:
                raise CompatibilityError(
                    f"{path}: truncated checkpoint, tensor {name!r} is incomplete"
                )
            tensor = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
            if not np.all(np.isfinite(tensor)):
                raise CompatibilityError(f"{path}: tensor {name!r} has non-finite values")
            params.tensors[name] = tensor
        if f.read(1):
            raise CompatibilityError(f"{path}: trailing bytes after the last tensor")
    return params, *hashes
