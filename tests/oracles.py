"""Independent reference implementations used only by the tests.

The answer oracles deliberately avoid the library's set-traversal code path:
answers are found by enumerating variable assignments and checking
satisfaction per entity, so agreement with the traversal is a real two-route
check. The loss oracle embeds one query at a time, walking its graph node by
node (`PerQueryForward`), and scores and differentiates one candidate at a
time, against which the library's batched per-structure form is compared.
The Adam oracles update each tensor in whole-tensor expressions, where the
library streams it in blocks of scratch buffers; the dense one updates every
tensor, where the library skips exact no-ops.
The MLP oracle builds each weight gradient from one outer product per input
row, against which the library's row-block form is compared. The distance
oracles and the gradient oracle `grad_dist_box` measure against the box
corners, not the |v - c| form of the library's blocked kernel and fused
candidate pass, and the rank oracle builds one mask per answer where the
library sorts the non-answers once per query. The evaluation
oracle embeds and scores one query at a time, where the library scores a
chunk of queries of one structure per pass over the entities. The last section
keeps entry points the library no longer needs, for the tests of the
operators behind them.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from boxquery.errors import TrainingError
from boxquery.evaluation import (
    METRIC_NAMES,
    EvalReport,
    _filtered_ranks,
    entity_distances,
    metrics_for_query,
)
from boxquery.geometry import Box, dist_box
from boxquery.kg import GraphSplits, KnowledgeGraph
from boxquery.model import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    AdamState,
    ModelParams,
    _mlp_backward,
    _mlp_forward,
    sigmoid,
)
from boxquery.model import _attention_trace as _stacked_attention_trace
from boxquery.model import _deepsets_trace as _stacked_deepsets_trace
from boxquery.queries import ANCHOR, UNION, ComputationGraph, to_dnf
from boxquery.sampling import GroundedQuery
from boxquery.training import loss


def _graph_of(query) -> ComputationGraph:
    return query.graph if isinstance(query, GroundedQuery) else query


def answer_by_satisfiability(kg: KnowledgeGraph, query) -> set[int]:
    """Entities for which the query formula is satisfiable.

    Recursive check per candidate: an anchor matches only its entity; a node
    with projection in-edges needs, for every in-edge, some witness entity
    that satisfies the source subformula and has the projecting edge; a node
    with union in-edges needs one satisfied parent. Every existential is a
    plain enumeration over all entities.
    """
    graph = _graph_of(query)

    def sat(node_id: int, value: int) -> bool:
        node = graph.node(node_id)
        in_es = graph.in_edges(node_id)
        if not in_es:
            assert node.kind == ANCHOR
            return value == node.entity
        if in_es[0].op == UNION:
            return any(sat(e.src, value) for e in in_es)
        for e in in_es:
            if not any(
                (u, e.relation, value) in kg.edges and sat(e.src, u)
                for u in range(kg.n_entities)
            ):
                return False
        return True

    target = graph.target.id
    return {v for v in range(kg.n_entities) if sat(target, v)}


def answer_by_assignment_enumeration(kg: KnowledgeGraph, query) -> set[int]:
    """Union-free graphs only: enumerate full assignments of the non-anchor
    nodes and keep target values where every edge constraint holds."""
    graph = _graph_of(query)
    if any(e.op == UNION for e in graph.edges):
        raise ValueError("assignment enumeration handles conjunctive graphs only")
    free = [n.id for n in graph.nodes if n.kind != ANCHOR]
    fixed = {n.id: n.entity for n in graph.nodes if n.kind == ANCHOR}
    target = graph.target.id
    answers = set()
    for combo in itertools.product(range(kg.n_entities), repeat=len(free)):
        assignment = dict(fixed)
        assignment.update(zip(free, combo))
        if all(
            (assignment[e.src], e.relation, assignment[e.dst]) in kg.edges
            for e in graph.edges
        ):
            answers.add(assignment[target])
    return answers


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def query_loss_and_grads_per_candidate(q, params, positive, negatives, grads) -> float:
    """Reference for `training.batch_loss_and_grads` on a batch of one
    sample: each candidate picks its closest DNF branch and chains its own
    gradient through that box."""
    cfg = params.config
    forward = PerQueryForward(q, params)
    boxes = forward.boxes

    candidates = [positive] + [int(n) for n in negatives]
    branches = []
    dists = []
    for entity in candidates:
        per_box = [dist_box(params.entity[entity], box, cfg.alpha) for box in boxes]
        branches.append(int(np.argmin(per_box)))
        dists.append(float(per_box[branches[-1]]))
    total = loss(dists[0], dists[1:], cfg.gamma)

    k = len(negatives)
    pairs = [(positive, branches[0], _sigmoid(dists[0] - cfg.gamma))]
    pairs += [
        (entity, branch, -_sigmoid(cfg.gamma - nd) / k)
        for entity, branch, nd in zip(candidates[1:], branches[1:], dists[1:])
    ]
    for entity, branch, dloss_ddist in pairs:
        vec = params.entity[entity]
        dv, dc, do = grad_dist_box(vec, boxes[branch], cfg.alpha)
        grads["entity"][entity] += dloss_ddist * dv
        forward.add_box_adjoint(branch, dloss_ddist * dc, dloss_ddist * do)
    forward.backward(grads)
    return total


# The per-query forward and backward: one (n, 2d) block of input rows per
# intersection node, one graph walk per query.


def _attention_trace(params, xs):
    logits, cache = _mlp_forward(params, "attn", xs)
    shifted = logits - logits.max(axis=0)
    expd = np.exp(shifted)
    weights = expd / expd.sum(axis=0)
    return weights, cache


def _attention_backward(dweights, weights, cache, params, grads):
    dlogits = weights * (dweights - np.sum(weights * dweights, axis=0))
    return _mlp_backward(dlogits, cache, params, "attn", grads)


def _deepsets_trace(params, net, xs):
    inner, inner_cache = _mlp_forward(params, f"{net}.inner", xs)
    pooled = inner.mean(axis=0, keepdims=True)
    out, outer_cache = _mlp_forward(params, f"{net}.outer", pooled)
    return out[0], (inner_cache, outer_cache)


def _deepsets_backward(dout, cache, params, net, grads):
    inner_cache, outer_cache = cache
    dpooled = _mlp_backward(dout[None], outer_cache, params, f"{net}.outer", grads)
    n = len(inner_cache[0])
    dinner = np.broadcast_to(dpooled / n, (n, dpooled.shape[1]))
    return _mlp_backward(dinner, inner_cache, params, f"{net}.inner", grads)


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


class PerQueryForward:
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


def adam_step_reference(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    t: int,
) -> None:
    """Reference for `model.adam_step`: the same update in whole-tensor
    expressions, skipping a tensor whose gradient and moments are all zero
    after scanning all three; `grads` is left as it was."""
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
        if not (g.any() or m.any() or v.any()):
            continue  # the update is exactly zero, e.g. for a network the mode never reads
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * g
        v *= _ADAM_BETA2
        v += (1.0 - _ADAM_BETA2) * (g * g)
        tensor -= lr * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)


def adam_step_dense(params, grads, state, lr, t) -> None:
    """Reference for `model.adam_step`: every tensor is updated, including
    those whose gradient and moments are all zero."""
    bc1 = 1.0 - _ADAM_BETA1**t
    bc2 = 1.0 - _ADAM_BETA2**t
    for name, tensor in params.tensors.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= _ADAM_BETA1
        m += (1.0 - _ADAM_BETA1) * g
        v *= _ADAM_BETA2
        v += (1.0 - _ADAM_BETA2) * (g * g)
        tensor -= lr * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)


def mlp_backward_per_row(dy, cache, params, prefix, grads) -> np.ndarray:
    """Reference for `model._mlp_backward`: the rows of the block are
    differentiated one at a time, each weight gradient one `np.outer`."""
    x, pre, hidden = cache
    dxs = []
    for x_i, pre_i, hidden_i, dy_i in zip(x, pre, hidden, dy):
        grads[prefix + ".w2"] += np.outer(hidden_i, dy_i)
        grads[prefix + ".b2"] += dy_i
        dhidden = params.tensors[prefix + ".w2"] @ dy_i
        dpre = dhidden * (pre_i > 0)
        grads[prefix + ".w1"] += np.outer(x_i, dpre)
        grads[prefix + ".b1"] += dpre
        dxs.append(params.tensors[prefix + ".w1"] @ dpre)
    return np.stack(dxs)


def dist_outside_corner(v, p):
    """Reference for `geometry.dist_outside`: overshoot past each corner."""
    return np.sum(np.maximum(v - p.upper, 0.0) + np.maximum(p.lower - v, 0.0), axis=-1)


def dist_inside_corner(v, p):
    """Reference for `geometry.dist_inside`: center to the clamped point."""
    clamped = np.minimum(p.upper, np.maximum(p.lower, v))
    return np.sum(np.abs(p.center - clamped), axis=-1)


def dist_box_corner(v, p, alpha):
    return dist_outside_corner(v, p) + alpha * dist_inside_corner(v, p)


def dist_agg_corner(v, boxes, alpha):
    return np.min([dist_box_corner(v, p, alpha) for p in boxes], axis=0)


def grad_dist_box(
    v: np.ndarray, p: Box, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference for the gradients of `geometry.dist_box_grad`: exact
    subgradients of dist_box with respect to (v, center, offset), one row
    per point of `v`, from the box corners."""
    _check_dim(v, p)
    # a stack of boxes gets an axis per extra axis of its points
    shape = p.center.shape[:-1] + (1,) * (v.ndim - p.center.ndim) + p.center.shape[-1:]
    center, offset = p.center.reshape(shape), p.offset.reshape(shape)
    upper = center + offset
    lower = center - offset
    above = v > upper
    below = v < lower
    inside = ~(above | below)
    # sign of the inside term |center - clamp(v)|
    s = np.sign(center - np.minimum(upper, np.maximum(lower, v)))
    # outside, |center - corner| grows with the offset and the overshoot shrinks
    do = np.where(inside, 0.0, np.add(alpha * np.abs(s), -1.0, dtype=float))
    s *= alpha * inside  # outside dims: d(center - clamp)/dcenter = 0
    outside = np.subtract(above, below, dtype=float)  # gradient of the outside term in v
    dc = s - outside
    return np.subtract(outside, s, out=outside), dc, do


def _check_dim(v: np.ndarray, p: Box) -> None:
    lead = p.center.ndim - 1  # the axes of a stack of boxes
    if v.ndim <= lead or v.shape[:lead] + v.shape[-1:] != p.center.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {p.center.shape}")


def rank_per_answer(v, distances, test_answers) -> int:
    """Reference for the filtered optimistic rank: one N-length mask of the
    non-answers, plus `v` itself, per answer."""
    allowed = np.ones(len(distances), dtype=bool)
    allowed[list(test_answers)] = False
    allowed[v] = True
    return 1 + int(np.count_nonzero(allowed & (distances < distances[v])))


def aggregate_per_query(queries, params, splits, stage, checkpoint_id="-") -> EvalReport:
    """Reference for `aggregate`: `metrics_for_query` on each query in turn,
    then the per-structure means of the rows in query order."""
    per_structure: dict[str, list[dict[str, float]]] = {}
    for q in queries:
        row = metrics_for_query(q, params, splits, stage)
        per_structure.setdefault(q.structure_name, []).append(row)
    structures = {}
    for name, rows in sorted(per_structure.items()):
        means = {m: float(np.mean([r[m] for r in rows])) for m in METRIC_NAMES}
        means["count"] = float(len(rows))
        structures[name] = means
    overall = {
        m: float(np.mean([structures[name][m] for name in structures]))
        for m in METRIC_NAMES
    }
    return EvalReport(stage, checkpoint_id, structures, overall)


# Entry points the library no longer calls: the geometric operators in
# their one-box form, the intersection networks over one set of boxes, and
# the rank of a single answer.


def project(p: Box, r: Box) -> Box:
    """Translate the center and grow the offset by the relation's box."""
    if p.dim != r.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {r.dim}")
    return Box(p.center + r.center, p.offset + r.offset)


def intersect(
    boxes: Sequence[Box], attn_weights: Sequence[np.ndarray], shrink: np.ndarray
) -> Box:
    """Combine boxes: attention-weighted center, shrunken minimum offset.

    `attn_weights` holds one nonnegative d-vector per box, summing to one
    per dimension; `shrink` lies in (0, 1)^d. Both are produced by the
    learnable networks; this is only the geometric combination.
    """
    if not boxes:
        raise ValueError("intersect requires at least one box")
    if len(attn_weights) != len(boxes):
        raise ValueError("need one weight vector per box")
    center = np.zeros(boxes[0].dim)
    for box, a in zip(boxes, attn_weights):
        center = center + a * box.center
    min_offset = np.min(np.stack([b.offset for b in boxes]), axis=0)
    return Box(center, min_offset * shrink)


def attention_weights(boxes, params: ModelParams) -> list[np.ndarray]:
    """Dimension-wise softmax over the attention MLP outputs, one weight
    vector per box; each dimension's weights sum to one across boxes."""
    xs = np.stack([np.concatenate([b.center, b.offset]) for b in boxes])
    weights, _ = _stacked_attention_trace(params, xs[None])
    return list(weights[0])


def deepsets_forward(inputs, params: ModelParams, net: str = "offset_net") -> np.ndarray:
    """Permutation-invariant set encoding: outer MLP of the mean of inner MLPs.

    The rows are put in a canonical order first, so the pooled sum, and with
    it the output, is bit-identical under any permutation of the inputs."""
    if len(inputs) == 0:
        raise ValueError("deepsets_forward requires at least one input")
    xs = sorted((np.asarray(x) for x in inputs), key=lambda x: x.tobytes())
    return _stacked_deepsets_trace(params, net, np.stack(xs)[None])[0][0]


def rank_entity(
    v: int,
    q: GroundedQuery,
    params: ModelParams,
    splits: GraphSplits,
    distances: np.ndarray | None = None,
) -> int:
    """Filtered optimistic rank of answer `v` among the non-answers."""
    if distances is None:
        distances = entity_distances(q, params)
    return int(_filtered_ranks(distances, [v], q)[0])
