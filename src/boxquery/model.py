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
from .queries import TRAINABLE_NAMES, template, to_dnf
from .sampling import GroundedQuery

INTERSECTION_MODES = ("attention", "average", "deepsets")
OFFSET_MODES = ("per-relation", "shared")
GEOMETRIES = ("box", "point")

CHECKPOINT_MAGIC = "boxquery-checkpoint"
CHECKPOINT_VERSION = 2

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

    @property
    def fixed_offsets(self) -> bool:
        """Whether no box offset is computed: a point's is zero and, in shared
        mode, every box takes the shared offset."""
        return self.geometry == "point" or self.offset_mode == "shared"

    def reads(self, name: str) -> bool:
        """Whether the forward pass of this configuration ever reads tensor
        `name`; `ModelParams` holds only the tensors it reads."""
        unread = {"attention": ("center_net.",), "average": ("attn.", "center_net."),
                  "deepsets": ("attn.",)}[self.intersection_mode]
        if self.fixed_offsets:
            unread += ("offset_net.", "relation_offset")
        if not (self.offset_mode == "shared" and self.geometry == "box"):
            unread += ("shared_offset",)
        return not name.startswith(unread)

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


def _unmapped_zeros(shape, dtype) -> np.ndarray:
    """Zeros of `shape` and `dtype` in a private anonymous mapping of their
    own: a page becomes resident on its first write (reading an unwritten
    one maps the shared zero page), and the mapping goes back to the system
    when the array is freed. `np.zeros` promises neither: its calloc may
    hand out freed heap memory, which it clears page by page. Gradients and
    moments use it for the read tensors a run never trains. Where there
    are no such mappings (Windows), and for an empty tensor, it is
    `np.zeros`."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    if nbytes == 0 or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros(shape, dtype)
    private = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(private, dtype).reshape(shape)


class ModelParams:
    """The trainable tensors the configuration reads (`ModelConfig.reads`),
    keyed by name in `_tensor_specs` order; one it never reads is not held,
    nor are its gradient, its moments or its checkpoint block."""

    def __init__(self, config: ModelConfig, n_entities: int, n_relations: int):
        self.config = config
        self.n_entities = n_entities
        self.n_relations = n_relations
        dtype = np.dtype(config.dtype)
        rng = np.random.default_rng(config.seed)
        self.tensors: dict[str, np.ndarray] = {}
        for name, shape, bounds in _tensor_specs(config.dim, n_entities, n_relations):
            if not config.reads(name):
                if bounds is not None:
                    # `uniform` takes one 64-bit draw per value, so skipping
                    # them leaves every read tensor with the values it had
                    rng.bit_generator.advance(int(np.prod(shape)))
            elif bounds is None:
                self.tensors[name] = np.zeros(shape, dtype)
            else:
                self.tensors[name] = rng.uniform(*bounds, shape).astype(dtype, copy=False)

    @classmethod
    def _holding(cls, config: ModelConfig, n_entities: int, n_relations: int, tensors: dict):
        """A model of `tensors`: the ones `config` reads, in spec order."""
        params = object.__new__(cls)
        params.config, params.n_entities, params.n_relations = config, n_entities, n_relations
        params.tensors = tensors
        return params

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
        (`_unmapped_zeros`), so the buffer of a read tensor the run never
        trains (e.g. `attn.*` when training only 1p) never becomes resident."""
        return {name: _unmapped_zeros(t.shape, t.dtype) for name, t in self.tensors.items()}

    def copy(self) -> "ModelParams":
        return ModelParams._holding(self.config, self.n_entities, self.n_relations,
                                    {name: t.copy() for name, t in self.tensors.items()})


def sigmoid(x):
    # 1 / (1 + exp(-x)) for a scalar or an array, stable on both tails
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _mlp_forward(params: ModelParams, prefix: str, x):
    """Two-layer ReLU MLP over a row block x of shape (n, in); the cache
    holds what the backward reads, the input and hidden rows."""
    t = params.tensors
    hidden = x @ t[prefix + ".w1"]
    hidden += t[prefix + ".b1"]
    np.maximum(hidden, 0.0, out=hidden)
    out = hidden @ t[prefix + ".w2"]
    out += t[prefix + ".b2"]
    return out, (x, hidden)


def _mlp_backward(dy, cache, params: ModelParams, prefix: str, grads) -> np.ndarray:
    """Adjoint of the input rows; weight gradients are summed over the rows.
    A hidden unit passes gradient where it is positive, which is where its
    pre-activation is."""
    x, hidden = cache
    grads[prefix + ".w2"] += hidden.T @ dy
    grads[prefix + ".b2"] += dy.sum(axis=0)
    dpre = dy @ params.tensors[prefix + ".w2"].T
    dpre *= hidden > 0
    grads[prefix + ".w1"] += x.T @ dpre
    grads[prefix + ".b1"] += dpre.sum(axis=0)
    return dpre @ params.tensors[prefix + ".w1"].T


class _Node:
    """One node of a batched branch: the (B,) entity ids of an anchor, or
    the sources and (B, n) relation ids of its input edges. An intersection
    also keeps what its backward pass reads: its canonical input order
    (B, n), its slices of its level's input rows (`rows`, B·n of them,
    [center, offset] in canonical order) and pooled rows (`sets`, one per
    query), its attention weights (B, n, d) and its offset shrink (B, d)."""

    entities = sources = relations = order = rows = sets = weights = shrink = None

    def __init__(self, branch: int, nid: int, b: int):
        self.key = (branch, nid)
        self.b = b


class _Level:
    """The nodes of every branch at one depth, and the network caches of
    their intersections (`meets`), which share one call per network."""

    attn = center_ds = offset_ds = None

    def __init__(self):
        self.nodes: list[_Node] = []
        self.meets: list[_Node] = []


def _deepsets_forward(params: ModelParams, net: str, x, meets):
    """Set encodings of the intersections `meets`, whose input rows lie in
    x: per query, the outer MLP of the mean of the inner MLP's rows of its
    inputs. Node m's (B, out) block is rows m.sets of the result."""
    inner, inner_cache = _mlp_forward(params, f"{net}.inner", x)
    pooled = np.concatenate([inner[m.rows].reshape(m.b, len(m.sources), -1).mean(axis=1)
                             for m in meets])
    out, outer_cache = _mlp_forward(params, f"{net}.outer", pooled)
    return out, (inner_cache, outer_cache)


def _deepsets_backward(dout, cache, params: ModelParams, net: str, grads, meets):
    inner_cache, outer_cache = cache
    dpooled = _mlp_backward(dout, outer_cache, params, f"{net}.outer", grads)
    dinner = np.empty((len(inner_cache[0]), dpooled.shape[1]), dpooled.dtype)
    for m in meets:  # each input row gets its set's share
        n = len(m.sources)
        dinner[m.rows].reshape(m.b, n, -1)[:] = (dpooled[m.sets] / n)[:, None]
    return _mlp_backward(dinner, inner_cache, params, f"{net}.inner", grads)


def _level_inputs(level: _Level, boxes, uses, anchor_offsets, params: ModelParams):
    """Embed a level's anchors and one-input nodes into `boxes`, and return
    the (ΣB·n, 2d) [center, offset] input rows of its intersections, each
    node's rows in canonical input order. A box leaves `boxes` once the
    last of the edges it feeds (counted in `uses`) has read it; the
    anchors of branch k take the offset anchor_offsets[k]."""
    cfg = params.config
    d = cfg.dim
    fixed = cfg.fixed_offsets
    x = None
    if level.meets:
        x = np.empty((sum(m.b * len(m.sources) for m in level.meets), 2 * d), cfg.dtype)
    rows = sets = 0
    for node in level.nodes:
        k = node.key[0]
        if node.sources is None:
            boxes[node.key] = (params.entity[node.entities], anchor_offsets[k])
            continue
        projected = []
        for src, r in zip(node.sources, node.relations.T):
            uses[k, src] -= 1
            center, offset = boxes[k, src] if uses[k, src] else boxes.pop((k, src))
            projected.append((center + params.relation_center[r], anchor_offsets[k] if fixed
                              else offset + np.abs(params.tensors["relation_offset"][r])))
        n_in = len(projected)
        if n_in == 1:
            boxes[node.key] = projected[0]
            continue
        centers = np.stack([center for center, _ in projected], axis=1)
        offsets = np.stack([offset for _, offset in projected], axis=1)
        # canonical input order makes every reduction bit-identical under
        # permutation of the branches
        node.order = np.array([
            sorted(range(n_in), key=lambda i: (centers[q, i].tobytes(), offsets[q, i].tobytes(),
                                               node.relations[q, i]))
            for q in range(node.b)
        ])
        node.rows, node.sets = slice(rows, rows + node.b * n_in), slice(sets, sets + node.b)
        rows, sets = node.rows.stop, node.sets.stop
        xs = x[node.rows].reshape(node.b, n_in, 2 * d)
        queries = np.arange(node.b)[:, None]
        xs[:, :, :d] = centers[queries, node.order]
        xs[:, :, d:] = offsets[queries, node.order]
    return x


def _intersect(level: _Level, x: np.ndarray, boxes, anchor_offsets, params: ModelParams):
    """Embed a level's intersections, whose input rows lie in x, into
    `boxes`; in point and shared mode, those of branch k take the offset
    anchor_offsets[k], as every node does. Each network runs once over all
    the rows; the softmax and the mean stay per node."""
    cfg = params.config
    d = cfg.dim
    meets = level.meets
    if cfg.intersection_mode == "attention":
        logits, level.attn = _mlp_forward(params, "attn", x)
    elif cfg.intersection_mode == "deepsets":
        encoded, level.center_ds = _deepsets_forward(params, "center_net", x, meets)
    if not cfg.fixed_offsets:
        raw, level.offset_ds = _deepsets_forward(params, "offset_net", x, meets)
    for node in meets:
        xs = x[node.rows].reshape(node.b, -1, 2 * d)
        centers, offsets = xs[:, :, :d], xs[:, :, d:]
        if cfg.intersection_mode == "attention":
            shifted = logits[node.rows].reshape(centers.shape)
            shifted = shifted - shifted.max(axis=1, keepdims=True)
            expd = np.exp(shifted)
            node.weights = expd / expd.sum(axis=1, keepdims=True)
            center = np.sum(node.weights * centers, axis=1)
        elif cfg.intersection_mode == "average":
            center = centers.mean(axis=1)
        else:
            center = encoded[node.sets]
        if cfg.fixed_offsets:
            boxes[node.key] = (center, anchor_offsets[node.key[0]])
        else:
            node.shrink = sigmoid(raw[node.sets])
            boxes[node.key] = (center, offsets.min(axis=1) * node.shrink)


def _intersect_backward(level: _Level, live, params: ModelParams, grads):
    """Input adjoints (B, n, d), in the order of the input edges, of the
    intersections of a level that have (d_center, d_offset) adjoints in
    `live`, as (node, in_dc, in_do); each network's backward runs once over
    the rows of the level, a node without adjoints giving zero rows."""
    cfg = params.config
    d = cfg.dim
    meets = level.meets
    outs = [live[m.key] if m.key in live else (np.zeros((m.b, d)), np.zeros((m.b, d)))
            for m in meets]
    # one [center, offset] adjoint row per network input row, the networks
    # replayed in the reverse of their forward order
    if level.offset_ds is not None:
        x = level.offset_ds[0][0]
        offsets = [x[m.rows].reshape(m.b, -1, 2 * d)[:, :, d:] for m in meets]
        draws = [(do * inputs.min(axis=1)) * m.shrink * (1.0 - m.shrink)
                 for m, (_, do), inputs in zip(meets, outs, offsets)]
        din = _deepsets_backward(np.concatenate(draws), level.offset_ds, params, "offset_net",
                                 grads, meets)
        for m, (_, do), inputs in zip(meets, outs, offsets):
            # the smallest input offset of each coordinate takes the shrunk adjoint
            block, queries = din[m.rows].reshape(m.b, -1, 2 * d), np.arange(m.b)[:, None]
            block[queries, inputs.argmin(axis=1), d + np.arange(d)] += do * m.shrink
    else:
        din = np.zeros((meets[-1].rows.stop, 2 * d))
    blocks = [din[m.rows].reshape(m.b, -1, 2 * d) for m in meets]
    if cfg.intersection_mode == "attention":
        x = level.attn[0]
        dlogits = np.empty((len(din), d))
        for m, (dc, _) in zip(meets, outs):
            # dimension-wise softmax backward
            dweights = dc[:, None] * x[m.rows].reshape(m.b, -1, 2 * d)[:, :, :d]
            dlogits[m.rows] = (m.weights * (dweights - np.sum(m.weights * dweights, axis=1,
                                                              keepdims=True))).reshape(-1, d)
        din += _mlp_backward(dlogits, level.attn, params, "attn", grads)
        for m, (dc, _), block in zip(meets, outs, blocks):
            block[:, :, :d] += m.weights * dc[:, None]
    elif cfg.intersection_mode == "average":
        for m, (dc, _), block in zip(meets, outs, blocks):
            block[:, :, :d] += dc[:, None] / len(m.sources)
    else:
        din += _deepsets_backward(np.concatenate([dc for dc, _ in outs]), level.center_ds,
                                  params, "center_net", grads, meets)
    result = []
    for m, block in zip(meets, blocks):
        if m.key in live:
            # back from canonical order to the order of the input edges
            block[np.arange(m.b)[:, None], m.order] = block.copy()
            result.append((m, block[:, :, :d], block[:, :, d:]))
    return result


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
    """Forward pass of several batches, each of B queries of one structure,
    over all DNF branches of their templates, kept for a later backward
    call. `boxes[i]` holds one (center, offset) pair of (B, d) stacks per
    branch of batch i. The topology comes from the templates; the queries
    give only (B, slots) arrays of slot ids. All branches are walked in
    lockstep, one depth at a time (a node lies one deeper than its deepest
    source), so the intersections at one depth run each network once.
    `backward` consumes the pass: it drops the boxes, then each level once
    it has replayed it."""

    def __init__(self, batches: list[list[GroundedQuery]], params: ModelParams):
        cfg = params.config
        d = cfg.dim
        shared = cfg.reads("shared_offset")  # shared-offset box mode
        self.params = params
        self.levels: list[_Level] = []
        self.targets = []  # (batch, key of the target node) of each branch
        # per branch, the (B, d) offset of an anchor: zero, or the shared
        # offset in shared mode; in point and shared mode every node's offset
        # is its branch's anchor offset
        anchor_offsets = []
        depth = {}
        uses = {}  # the input edges each node feeds
        for i, queries in enumerate(batches):
            names = {q.structure_name for q in queries}
            if len(names) != 1:
                raise ValueError("a batch holds queries of one structure")
            anchors = np.array([q.anchors for q in queries], dtype=int)
            relations = np.array([q.relations for q in queries], dtype=int)
            b = len(queries)
            offset = np.zeros((b, d), dtype=cfg.dtype)
            if shared:
                offset = np.broadcast_to(params.effective_shared_offset(), (b, d))
            shapes, _ = to_dnf(template(names.pop()).graph)
            for shape in shapes:
                k = len(self.targets)
                self.targets.append((i, (k, shape.target.id)))
                anchor_offsets.append(offset)
                for nid in shape.topological_order():
                    node = _Node(k, nid, b)
                    in_es = shape.in_edges(nid)
                    at = 0
                    if in_es:
                        node.sources = [e.src for e in in_es]
                        node.relations = relations[:, [e.slot for e in in_es]]
                        at = 1 + max(depth[k, src] for src in node.sources)
                        for src in node.sources:
                            uses[k, src] = uses.get((k, src), 0) + 1
                    else:
                        node.entities = anchors[:, shape.node(nid).slot]
                    depth[k, nid] = at
                    if at == len(self.levels):
                        self.levels.append(_Level())
                    self.levels[at].nodes.append(node)
                    if len(in_es) > 1:
                        self.levels[at].meets.append(node)

        boxes: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for level in self.levels:
            x = _level_inputs(level, boxes, uses, anchor_offsets, params)
            if level.meets:
                _intersect(level, x, boxes, anchor_offsets, params)
        self.boxes = [[] for _ in batches]
        for i, target in self.targets:
            self.boxes[i].append(boxes[target])

    def backward(self, box_adjoints, grads: dict[str, np.ndarray]) -> None:
        """Accumulate gradients given box_adjoints[i], one (d_center,
        d_offset) pair of (B, d) adjoints per branch of batch i. The levels
        are replayed deepest first; each table's rows are scattered once,
        entity rows in the order of the anchors."""
        params = self.params
        self.boxes = None
        cfg = params.config
        d = cfg.dim
        fixed = cfg.fixed_offsets
        shared = cfg.reads("shared_offset")  # shared-offset box mode
        shared_sign = np.sign(params.tensors["shared_offset"]) if shared else None

        pairs = (pair for batch in box_adjoints for pair in batch)
        adjoints = {target: [dc, do] for (_, target), (dc, do) in zip(self.targets, pairs)
                    if dc.any() or do.any()}
        table_rows = {"entity": [], "relation_center": [], "relation_offset": []}

        def send(node, in_dc, in_do):
            # the (B, n, d) adjoints of the boxes a node's input edges project
            b, _, d = in_dc.shape
            table_rows["relation_center"].append((node.relations.ravel(), in_dc.reshape(-1, d)))
            if shared:
                grads["shared_offset"] += shared_sign * in_do.sum(axis=(0, 1))
            elif not fixed:
                raw = params.tensors["relation_offset"][node.relations]
                table_rows["relation_offset"].append(
                    (node.relations.ravel(), (np.sign(raw) * in_do).reshape(-1, d))
                )
            for i, src in enumerate(node.sources):
                parent = adjoints.setdefault((node.key[0], src),
                                             [np.zeros((b, d)), np.zeros((b, d))])
                parent[0] += in_dc[:, i]
                if not fixed:
                    parent[1] += in_do[:, i]

        while self.levels:  # deepest first; a level's caches go once it is replayed
            level = self.levels.pop()
            live = {}
            for node in reversed(level.nodes):
                if node.key not in adjoints:
                    continue
                dc, do = adjoints.pop(node.key)
                if fixed:
                    # a produced offset is abs(shared) in shared mode and constant
                    # zero in point mode; either way nothing flows back through the inputs
                    if shared:
                        grads["shared_offset"] += shared_sign * do.sum(axis=0)
                    do = np.zeros((node.b, d))
                if node.entities is not None:
                    table_rows["entity"].append((node.entities, dc))
                elif node.order is None:
                    send(node, dc[:, None], do[:, None])
                else:
                    live[node.key] = (dc, do)
            if live:
                for node, in_dc, in_do in _intersect_backward(level, live, params, grads):
                    send(node, in_dc, in_do)
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
    that got a gradient. So the moments of a held tensor that a run never
    trains (e.g. `attn.*` under 1p-only training) are never written and,
    allocated by `_unmapped_zeros`, never become resident."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    live: set[str] | None = None

    @classmethod
    def init(cls, params: ModelParams) -> "AdamState":
        return cls(
            {k: _unmapped_zeros(t.shape, t.dtype) for k, t in params.tensors.items()},
            {k: _unmapped_zeros(t.shape, t.dtype) for k, t in params.tensors.items()},
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
    network the run never trains); `state.live` saves scanning the moments.
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
    """Versioned header line (JSON) followed by the held tensors' raw bytes."""
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
            f.write(np.ascontiguousarray(params.tensors[n]))


def load_checkpoint(path: str | Path) -> tuple[ModelParams, str, str]:
    """Returns (params, entity_hash, relation_hash). The file must hold
    exactly the tensors its configuration reads."""
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
        expected = {name: shape for name, shape, _ in _tensor_specs(config.dim, *counts)
                    if config.reads(name)}
        for name in sorted(expected.keys() | found.keys(), key=str):
            if found.get(name) != expected.get(name):
                raise CompatibilityError(f"{path}: tensor {name!r} has shape {found.get(name)}, "
                                         f"the model needs {expected.get(name)} (None: absent)")
        tensors = {name: np.empty(shape, config.dtype) for name, shape in expected.items()}
        for name in names:
            if f.readinto(tensors[name]) != tensors[name].nbytes:
                raise CompatibilityError(f"{path}: truncated checkpoint at tensor {name!r}")
            if not np.all(np.isfinite(tensors[name])):
                raise CompatibilityError(f"{path}: tensor {name!r} has non-finite values")
        if f.read(1):
            raise CompatibilityError(f"{path}: trailing bytes after the last tensor")
    return ModelParams._holding(config, *counts, tensors), *hashes
