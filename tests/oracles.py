"""Independent reference implementations used only by the tests.

The answer oracles deliberately avoid the library's set-traversal code path:
answers are found by enumerating variable assignments and checking
satisfaction per entity, so agreement with the traversal is a real two-route
check. The loss oracle embeds one query at a time, walking its graph node by
node (`PerQueryForward`), and scores and differentiates one candidate at a
time, against which the library's batched form is compared. The
per-structure loss oracle (`batch_loss_and_grads_per_structure`) is the
batched form as it was before every structure of a step shared one
forward and one backward pass: each structure's branches walked on their
own, each intersection node running the networks over its own rows.
The allocating loss oracle is the batched form with fresh arrays for every
chunk and box adjoint and one scatter of the candidates' entity rows per
step, against which the library's reused workspace and per-chunk scatter
are compared bit for bit.
The Adam oracles update each tensor in whole-tensor expressions, where the
library streams it in blocks of scratch buffers; the dense one updates every
tensor, where the library skips exact no-ops. The zero-filled buffer
oracles allocate gradients and moments with `np.zeros_like`, which writes
every page, where the library's private anonymous mappings leave unwritten
pages unmapped. The negative-sampling oracle draws from the array of
non-answers, built with an entity-sized mask, where the library draws
positions and maps them to ids through the sorted answers.
The MLP oracle builds each weight gradient from one outer product per input
row, against which the library's row-block form is compared. The distance
oracles and the gradient oracle `grad_dist_box` measure against the box
corners, not the |v - c| form of the library's blocked `dist_agg` and fused
candidate pass, and the rank oracle builds one mask per answer where the
library sorts the non-answers once per query. The evaluation
oracle embeds and scores one query at a time, where the library scores a
chunk of queries of one structure per pass over the entities. One section
keeps entry points the library no longer needs, for the tests of the
operators behind them. The library holds boxes only as (center, offset)
pairs of (B, d) stacks; the single-box API is here: the `Box` value with
its checks, corners and `contains`, and `dist_agg`, `dist_outside`,
`dist_inside` and `dist_box` on single boxes, thin wrappers that call
`geometry.dist_agg` with a stack of one per box. Among the rest,
`embed_epfo` and `embed_conjunctive` embed one query, or a grounded graph
of the structure whose template it binds, as a `QueryForward` batch of
one, and `loss` is `training._losses` on one sample. The single-query
grounding entry points run the program's plan, not a copy of it:
`try_instantiate`, `instantiate`, `degeneracies`, `answer_exact`,
`answer_set` and `canonical_key` compile a `sampling._Plan` for the call
and use its `ground`, `degeneracies`, `slots` and `answers` (through
`sampling._answer_set` for the three snapshots) or the key recipe that
generation deduplicates by. `validate_dag` and `is_grounded` check a
graph's structure and bindings, and `load_triples` and `augment_inverses`
load one triple file and mirror a graph's edges with the program's
`kg._parse_triple_lines` and `kg._with_inverses`. The graph oracle
`DictKnowledgeGraph` is the knowledge graph as the library built it before
its edges became sorted id arrays: an edge frozenset and tuple-keyed dicts
filled by one `setdefault` append per edge, with valid and test built as
deltas over shallow copies of the dicts of the graph before them, against
which the library's sorted indices and root fall-through are compared;
`edge_set` reads a library graph's edges as a set of tuples. The grounding
oracles are the graph-walking grounding, degeneracy check, traversal and
canonical key that query generation used before it compiled each
structure into a slot plan: they re-read the bound `ComputationGraph`
through its methods on every call, against which the plan's walks over
id lists are compared.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from boxquery.errors import SamplingError, TrainingError, VocabularyError
from boxquery.evaluation import (
    METRIC_NAMES,
    EvalReport,
    _filtered_ranks,
    entity_distances,
    metrics_for_query,
)
from boxquery.kg import (
    INVERSE_MARKER,
    GraphSplits,
    KnowledgeGraph,
    Vocabulary,
    _parse_triple_lines,
    _with_inverses,
)
from boxquery import geometry, training
from boxquery.model import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    AdamState,
    ModelParams,
    QueryForward,
    _mlp_backward,
    _mlp_forward,
    _scatter_rows,
    sigmoid,
)
from boxquery.queries import (
    ANCHOR,
    PROJECTION,
    STRUCTURE_NAMES,
    TARGET,
    UNION,
    ComputationGraph,
    QueryStructure,
    _key_recipe,
    _key_text,
    bind,
    graph_to_text,
    template,
    to_dnf,
)
from boxquery.sampling import DEFAULT_ATTEMPTS, AnswerSet, GroundedQuery, _answer_set, _Plan

# the answers of a query built for its topology alone
NO_ANSWERS = AnswerSet((), (), ())


def _query_from_graph(name: str, graph: ComputationGraph) -> GroundedQuery:
    """The query of structure `name` whose slot ids `graph` binds. ValueError
    unless binding the template with those ids gives `graph` back."""
    try:
        anchors = tuple(n.entity for n in sorted(graph.anchors, key=lambda n: n.slot))
        relations = tuple(e.relation for e in sorted(
            (e for e in graph.edges if e.op == PROJECTION), key=lambda e: e.slot))
        query = GroundedQuery(name, anchors, relations, NO_ANSWERS)
        if None not in anchors + relations and graph_to_text(query.graph) == graph_to_text(graph):
            return query
    except (KeyError, IndexError, TypeError):  # an unknown structure, a missing slot
        pass
    raise ValueError(f"graph {graph_to_text(graph)} is not a bound {name} query")


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
    edges = edge_set(kg)

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
                (u, e.relation, value) in edges and sat(e.src, u)
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
    edges = edge_set(kg)
    target = graph.target.id
    answers = set()
    for combo in itertools.product(range(kg.n_entities), repeat=len(free)):
        assignment = dict(fixed)
        assignment.update(zip(free, combo))
        if all(
            (assignment[e.src], e.relation, assignment[e.dst]) in edges
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


def batch_loss_and_grads_allocating(samples, params, grads) -> float:
    """Reference for `training.batch_loss_and_grads` with the same arithmetic
    and another memory plan: fresh arrays for every chunk and every box
    adjoint, the masked-select form of the fused pass, and the candidates'
    entity rows of every structure gathered and scattered once, before the
    backward pass adds the anchors'."""
    cfg = params.config
    forward = QueryForward([queries for queries, _, _ in samples], params)
    totals, adjoints, entity_rows = [], [], []
    for (_, positives, negatives), boxes in zip(samples, forward.boxes):
        candidates = np.concatenate((np.asarray(positives)[:, None], negatives),
                                    axis=1).astype(int)
        b, width = candidates.shape
        adjoints.append([(np.zeros((b, cfg.dim)), np.zeros((b, cfg.dim))) for _ in boxes])
        losses = []
        chunk = max(1, training._CANDIDATE_BLOCK // (width * cfg.dim))
        for rows in (slice(q, q + chunk) for q in range(0, b, chunk)):
            vecs = params.entity[candidates[rows]]
            passes = [dist_box_grad_select(vecs, center[rows], offset[rows], cfg.alpha)
                      for center, offset in boxes]
            per_box = np.stack([dist for dist, _, _ in passes])
            branches = np.argmin(per_box, axis=0)
            dists = np.take_along_axis(per_box, branches[None], axis=0)[0].astype(float)
            losses.append(training._losses(dists, cfg.gamma))
            dloss_ddist = np.concatenate((sigmoid(dists[:, :1] - cfg.gamma),
                                          -sigmoid(cfg.gamma - dists[:, 1:]) / (width - 1)),
                                         axis=1)
            for branch, ((_, dv, do), (d_center, d_offset)) in enumerate(zip(passes,
                                                                            adjoints[-1])):
                weight = np.where(branches == branch, dloss_ddist, 0.0)[:, :, None]
                dv *= weight
                entity_rows.append((candidates[rows].ravel(), dv.reshape(-1, cfg.dim)))
                d_center[rows] = -dv.sum(axis=1)
                d_offset[rows] = (weight * do).sum(axis=1)
        totals.append(float(sum(np.concatenate(losses).tolist())))
    ids, rows = zip(*entity_rows)
    scatter_rows_masked(grads["entity"], np.concatenate(ids), np.concatenate(rows))
    forward.backward(adjoints, grads)
    return sum(totals)


def dist_box_grad_select(v, center, offset, alpha):
    """`geometry.dist_box_grad` with its gradients picked by masked selects
    from freshly allocated arrays."""
    t = np.subtract(v, center[:, None], dtype=np.result_type(v, center, offset, 0.0))
    a = np.abs(t)
    l1 = a.sum(axis=-1)
    a -= offset[:, None]
    outside = a > 0
    np.maximum(a, 0.0, out=a)
    out = a.sum(axis=-1)
    dist = (out + alpha * (l1 - out)).astype(t.dtype, copy=False)
    slope = float(t.dtype.type(alpha))
    dv = np.where(outside, 1.0, slope)
    dv *= np.sign(t, out=t)
    do = np.where(outside, np.where(offset > 0, slope, 0.0)[:, None] - 1.0, 0.0)
    return dist, dv, do


def scatter_rows_masked(target, ids, rows) -> None:
    """`model._scatter_rows` with each round's rows picked by a boolean mask
    and added through a fancy-indexed copy of the target rows."""
    order = np.argsort(ids, kind="stable")
    at = np.arange(len(ids))
    sorted_ids = ids[order]
    first = np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
    rank = np.empty_like(at)
    rank[order] = at - np.maximum.accumulate(np.where(first, at, 0))
    for k in range(rank.max() + 1):
        target[ids[rank == k]] += rows[rank == k]


# The per-structure step: one forward pass per structure, each branch walked
# on its own in topological order, and each intersection node running the
# networks over its own (B·n, 2d) rows; its backward replays each branch.


def _stacked_deepsets_trace(params: ModelParams, net: str, xs):
    """Set encoding of B sets of n rows, xs of shape (B, n, 2d): the outer
    MLP of the mean of the inner MLPs, one output row per set."""
    inner, inner_cache = _mlp_forward(params, f"{net}.inner", xs.reshape(-1, xs.shape[2]))
    pooled = inner.reshape(*xs.shape[:2], -1).mean(axis=1)
    out, outer_cache = _mlp_forward(params, f"{net}.outer", pooled)
    return out, (inner_cache, outer_cache)


def _stacked_deepsets_backward(dout, cache, params: ModelParams, net: str, grads):
    inner_cache, outer_cache = cache
    dpooled = _mlp_backward(dout, outer_cache, params, f"{net}.outer", grads)
    b, n = len(dpooled), len(inner_cache[0]) // len(dpooled)
    dinner = np.repeat(dpooled / n, n, axis=0)
    return _mlp_backward(dinner, inner_cache, params, f"{net}.inner", grads).reshape(b, n, -1)


def _stacked_attention_trace(params: ModelParams, xs):
    # weights of shape (B, n, d) for B sets of n input rows
    logits, cache = _mlp_forward(params, "attn", xs.reshape(-1, xs.shape[2]))
    logits = logits.reshape(*xs.shape[:2], -1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    weights = expd / expd.sum(axis=1, keepdims=True)
    return weights, cache


def _stacked_attention_backward(dweights, weights, cache, params: ModelParams, grads):
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
            weights, cache = _stacked_attention_trace(params, xs)
            step.attn = (weights, cache)
            center = np.sum(weights * centers, axis=1)
        elif cfg.intersection_mode == "average":
            center = centers.mean(axis=1)
        else:
            center, step.center_ds = _stacked_deepsets_trace(params, "center_net", xs)
        if fixed is None:
            mins = offsets.min(axis=1)
            argmin = offsets.argmin(axis=1)
            raw, cache = _stacked_deepsets_trace(params, "offset_net", xs)
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
                dxs = _stacked_attention_backward(dc[:, None] * centers, weights, cache, params,
                                                  grads)
                in_dc += dxs[:, :, :d]
                in_do += dxs[:, :, d:]
            elif cfg.intersection_mode == "average":
                in_dc += dc[:, None] / n_in
            else:
                dxs = _stacked_deepsets_backward(dc, step.center_ds, params, "center_net", grads)
                in_dc += dxs[:, :, :d]
                in_do += dxs[:, :, d:]
            if step.offset_ds is not None:
                cache, shrink, mins, argmin = step.offset_ds
                in_do[rows, argmin, np.arange(d)] += do * shrink
                draw = (do * mins) * shrink * (1.0 - shrink)
                dxs = _stacked_deepsets_backward(draw, cache, params, "offset_net", grads)
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


class PerStructureForward:
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


def structure_loss_and_grads(queries: list[GroundedQuery], params: ModelParams, positives,
                         negatives: np.ndarray, grads: dict[str, np.ndarray],
                         workspace: training.Workspace | None = None) -> float:
    """Summed loss of B samples of one structure: query i with positive
    positives[i] and the k negatives in row i of `negatives`. Gradients of
    the loss are accumulated into `grads`. The candidate pass runs in
    `workspace`, a fresh one if None."""
    cfg = params.config
    entity = params.entity
    forward = PerStructureForward(queries, params)
    candidates = np.concatenate((np.asarray(positives)[:, None], negatives), axis=1).astype(int)
    b, width = candidates.shape
    if candidates.min() < 0 or candidates.max() >= len(entity):
        raise IndexError(f"candidate entity ids must lie in [0, {len(entity)})")
    workspace = training.Workspace() if workspace is None else workspace
    adjoints = [(np.zeros((b, cfg.dim)), np.zeros((b, cfg.dim))) for _ in forward.boxes]
    losses = []
    # the candidates of a few queries at a time, so their blocks stay small
    chunk = max(1, training._CANDIDATE_BLOCK // (width * cfg.dim))
    for rows in (slice(q, q + chunk) for q in range(0, b, chunk)):
        ids = candidates[rows]
        shape = (*ids.shape, cfg.dim)
        vecs = np.take(entity, ids, axis=0, mode="wrap",  # in range: checked above
                       out=workspace.buffer("vecs", shape, entity.dtype))
        boxes = [(center[rows], offset[rows]) for center, offset in forward.boxes]
        # one fused distance and gradient pass per branch
        passes = [geometry.dist_box_grad(vecs, center, offset, cfg.alpha,
                                         out=(workspace.buffer(("dv", i), shape),
                                              workspace.buffer(("do", i), shape)))
                  for i, (center, offset) in enumerate(boxes)]
        per_box = np.stack([dist for dist, *_ in passes])
        branches = np.argmin(per_box, axis=0)
        dists = np.take_along_axis(per_box, branches[None], axis=0)[0].astype(float)
        losses.append(training._losses(dists, cfg.gamma))
        # d loss / d distance, then chain through the box distance of the
        # branch that is closest to each candidate
        dloss_ddist = np.concatenate((sigmoid(dists[:, :1] - cfg.gamma),
                                      -sigmoid(cfg.gamma - dists[:, 1:]) / (width - 1)), axis=1)
        # entity rows go in per chunk and branch, then `backward` adds the
        # anchors': each id receives its rows in that order, whatever the chunk
        scratch = (workspace.buffer("acc", (ids.size, cfg.dim), entity.dtype),
                   workspace.buffer("add", (ids.size, cfg.dim)))
        for branch, ((_, dv, do), (d_center, d_offset)) in enumerate(zip(passes, adjoints)):
            weight = np.where(branches == branch, dloss_ddist, 0.0)[:, :, None]
            dv *= weight  # zero in the rows of candidates another branch won
            _scatter_rows(grads["entity"], ids.ravel(), dv.reshape(-1, cfg.dim), scratch)
            d_center[rows] = -dv.sum(axis=1)  # the center gradient is -dv
            do *= weight
            d_offset[rows] = do.sum(axis=1)
    forward.backward(adjoints, grads)
    return float(sum(np.concatenate(losses).tolist()))


def batch_loss_and_grads_per_structure(samples, params, grads, workspace=None) -> float:
    """Reference for `training.batch_loss_and_grads`: one forward and one
    backward pass per structure, each intersection network run once per
    structure, and the losses of the structures summed in their order."""
    return sum(structure_loss_and_grads(qs, params, positives, negatives, grads, workspace)
               for qs, positives, negatives in samples)


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


def zero_grads_zeros_like(params: ModelParams) -> dict[str, np.ndarray]:
    """Reference for `ModelParams.zero_grads`, zero-filling every buffer."""
    return {name: np.zeros_like(t) for name, t in params.tensors.items()}


def adam_state_zeros_like(params: ModelParams) -> AdamState:
    """Reference for `AdamState.init`, zero-filling every moment buffer."""
    return AdamState({k: np.zeros_like(t) for k, t in params.tensors.items()},
                     {k: np.zeros_like(t) for k, t in params.tensors.items()})


def mlp_backward_per_row(dy, cache, params, prefix, grads) -> np.ndarray:
    """Reference for `model._mlp_backward`: the rows of the block are
    differentiated one at a time, each weight gradient one `np.outer`, and
    a hidden unit passes gradient where its pre-activation, recomputed from
    the input row, is positive."""
    x, hidden = cache
    dxs = []
    for x_i, hidden_i, dy_i in zip(x, hidden, dy):
        pre_i = x_i @ params.tensors[prefix + ".w1"] + params.tensors[prefix + ".b1"]
        grads[prefix + ".w2"] += np.outer(hidden_i, dy_i)
        grads[prefix + ".b2"] += dy_i
        dhidden = params.tensors[prefix + ".w2"] @ dy_i
        dpre = dhidden * (pre_i > 0)
        grads[prefix + ".w1"] += np.outer(x_i, dpre)
        grads[prefix + ".b1"] += dpre
        dxs.append(params.tensors[prefix + ".w1"] @ dpre)
    return np.stack(dxs)


def dist_outside_corner(v, p):
    """Reference for `dist_outside`: overshoot past each corner."""
    return np.sum(np.maximum(v - p.upper, 0.0) + np.maximum(p.lower - v, 0.0), axis=-1)


def dist_inside_corner(v, p):
    """Reference for `dist_inside`: center to the clamped point."""
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


# Entry points the library no longer calls: the single box and its
# distances, the geometric operators in their one-box form, the
# intersection networks over one set of boxes, the rank of a single
# answer, the embedding of a single query and the loss of a single sample;
# then the grounding, answering and key of a single query, each on a plan
# compiled for the call, the structural checks of a graph, and the loading
# and inverse augmentation of a single triple file.


@dataclass(frozen=True)
class Box:
    center: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        if self.center.shape != self.offset.shape or self.center.ndim not in (1, 2):
            raise ValueError(
                f"center and offset must be equal-shape vectors or (B, d) stacks, got "
                f"{self.center.shape} and {self.offset.shape}"
            )
        if not np.all(self.offset >= 0):
            raise ValueError("box offset must be elementwise nonnegative")

    @property
    def dim(self) -> int:
        return self.center.shape[-1]

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.offset

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.offset

    def contains(self, v: np.ndarray) -> bool:
        return bool(np.all(self.lower <= v) and np.all(v <= self.upper))


def dist_agg(v: np.ndarray, boxes: Sequence[Box], alpha: float) -> float | np.ndarray:
    """Minimum box distance over single boxes, one value per point of one
    point (d,) or a block (..., d): `geometry.dist_agg` on the points as an
    (N, d) block and each box as a stack of one."""
    stacks = [(p.center[None], p.offset[None]) for p in boxes]
    table = geometry.dist_agg(v.reshape(-1, v.shape[-1]), stacks, alpha)
    return table[0].reshape(v.shape[:-1])[()]


def dist_outside(v: np.ndarray, p: Box) -> float | np.ndarray:
    """L1 distance from each point to the box hull; zero inside."""
    return dist_agg(v, [p], 0.0)


def dist_inside(v: np.ndarray, p: Box) -> float | np.ndarray:
    """L1 distance from the center to each point clamped onto the box."""
    return dist_agg(v, [p], 1.0) - dist_outside(v, p)


def dist_box(v: np.ndarray, p: Box, alpha: float) -> float | np.ndarray:
    """Outside distance plus alpha-downweighted inside distance.

    With alpha = 1 this is the plain L1 distance to the center.
    """
    return dist_agg(v, [p], alpha)


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
    """Filtered optimistic rank of answer `v` among the non-answers;
    ValueError if `v` is not a test-graph answer of the query."""
    if v not in q.answers.test:
        raise ValueError(f"entity {v} is not a test-graph answer of the query")
    if distances is None:
        distances = entity_distances(q, params)
    return int(_filtered_ranks(distances, [v], q)[0])


def _as_query(query: GroundedQuery | ComputationGraph) -> GroundedQuery:
    """A grounded graph as a query of the structure whose template it binds."""
    if isinstance(query, GroundedQuery):
        return query
    for name in STRUCTURE_NAMES:
        try:
            return _query_from_graph(name, query)
        except ValueError:
            continue
    raise ValueError("graph binds no query structure")


def embed_epfo(query: GroundedQuery | ComputationGraph, params: ModelParams) -> list[Box]:
    """Embed any grounded query as one box per DNF branch: a batch of one."""
    return [Box(center[0], offset[0])
            for center, offset in QueryForward([[_as_query(query)]], params).boxes[0]]


def embed_conjunctive(query: GroundedQuery | ComputationGraph, params: ModelParams) -> Box:
    """Embed a union-free grounded query as a single box."""
    boxes = embed_epfo(query, params)
    if len(boxes) != 1:
        raise ValueError("conjunctive embedding received a query with a union")
    return boxes[0]


def loss(pos_dist: float, neg_dists, gamma: float) -> float:
    """Negative-sampling loss of one sample: pull the positive inside the
    margin, push the negatives beyond it. The negative term is averaged;
    summing in sorted order makes the value exactly independent of
    negative order."""
    dists = np.concatenate(([pos_dist], neg_dists))[None].astype(float)
    return float(training._losses(dists, gamma)[0])


def is_grounded(graph: ComputationGraph) -> bool:
    """Whether every anchor binds an entity and every projection a relation."""
    if any(n.kind == ANCHOR and n.entity is None for n in graph.nodes):
        return False
    return not any(e.op == PROJECTION and e.relation is None for e in graph.edges)


def _bound_ids(graph: ComputationGraph) -> tuple[list, list]:
    if not is_grounded(graph):
        raise ValueError("query must be fully bound")
    return [n.entity for n in graph.nodes], [e.relation for e in graph.edges]


def answer_exact(kg: KnowledgeGraph, query: GroundedQuery | ComputationGraph) -> set[int]:
    """Exact denotation set of one grounded query or graph: `_Plan.answers`."""
    graph = _graph_of(query)
    return _Plan(graph).answers(kg, *_bound_ids(graph))


def answer_set(splits: GraphSplits, query: GroundedQuery | ComputationGraph) -> AnswerSet:
    """Train, valid and test answers of one grounded query or graph."""
    graph = _graph_of(query)
    return _answer_set(_Plan(graph), splits, _bound_ids(graph))


def degeneracies(graph: ComputationGraph, kg: KnowledgeGraph) -> list[str]:
    """The rejected binding patterns of a graph: `_Plan.degeneracies`."""
    ids = [n.entity for n in graph.nodes], [e.relation for e in graph.edges]
    return _Plan(graph).degeneracies(*ids, kg.inverse_relation)


def try_instantiate(
    structure: QueryStructure,
    kg: KnowledgeGraph,
    rng: np.random.Generator,
    root: int | None = None,
) -> GroundedQuery | None:
    """One `_Plan.ground` attempt; None on dead ends or degeneracy."""
    plan = _Plan(structure.graph)
    ids = plan.ground(kg, rng, root)
    if ids is None or plan.degeneracies(*ids, kg.inverse_relation):
        return None
    return GroundedQuery(structure.name, *plan.slots(*ids), NO_ANSWERS)


def instantiate(
    structure: QueryStructure,
    kg: KnowledgeGraph,
    rng: np.random.Generator,
    attempts: int = DEFAULT_ATTEMPTS,
) -> GroundedQuery:
    """Retry try_instantiate up to `attempts` times."""
    for _ in range(attempts):
        q = try_instantiate(structure, kg, rng)
        if q is not None:
            return q
    raise SamplingError(
        f"could not instantiate structure {structure.name!r} in {attempts} attempts"
    )


def canonical_key(g: ComputationGraph) -> str:
    """Generation's deduplication key of a graph; an unbound slot s reads `s{s}`."""
    ents = [n.entity if n.entity is not None else f"s{n.slot}" for n in g.nodes]
    rels = [e.relation if e.relation is not None else f"s{e.slot}" for e in g.edges]
    return _key_text(_key_recipe(g), ents, rels)


def validate_dag(g: ComputationGraph) -> list[str]:
    """Check all structural invariants; returns every violation found."""
    violations: list[str] = []
    ids = [n.id for n in g.nodes]
    if len(set(ids)) != len(ids):
        violations.append("duplicate node ids")
        return violations
    id_set = set(ids)
    for e in g.edges:
        if e.src not in id_set or e.dst not in id_set:
            violations.append(f"edge {e.src}->{e.dst} references unknown node")
            return violations

    try:
        g.topological_order()
    except ValueError:
        violations.append("not acyclic")

    sinks = [n for n in g.nodes if not any(e.src == n.id for e in g.edges)]
    if len(sinks) != 1 or sinks[0].kind != TARGET:
        violations.append("unique sink of kind target required")
    if sum(1 for n in g.nodes if n.kind == TARGET) != 1:
        violations.append("exactly one target node required")

    for n in g.nodes:
        in_es = g.in_edges(n.id)
        if not in_es and n.kind != ANCHOR:
            violations.append(f"source node {n.id} is not an anchor")
        if in_es and n.kind == ANCHOR:
            violations.append(f"anchor node {n.id} has in-edges")
        ops = {e.op for e in in_es}
        if len(ops) > 1:
            violations.append(f"node {n.id} mixes projection and union in-edges")
        if ops == {UNION} and len(in_es) < 2:
            violations.append(f"union node {n.id} has fewer than 2 parents")
    return violations


def load_triples(path, vocab: Vocabulary | None = None) -> KnowledgeGraph:
    """One triple file as a graph over `vocab` (a new one by default), deduplicated."""
    if vocab is None:
        vocab = Vocabulary()
    return KnowledgeGraph(vocab, _parse_triple_lines(path, vocab))


def augment_inverses(kg: KnowledgeGraph) -> KnowledgeGraph:
    """A new graph with every edge of `kg` plus its mirror under the inverse
    relation; the vocabulary gains the inverse names in place. A graph that
    already uses inverse relations is rejected."""
    vocab = kg.vocab
    for r in kg.triples[:, 1].tolist():
        if vocab.relation_names[r].endswith(INVERSE_MARKER):
            raise VocabularyError(
                f"graph already contains inverse relation {vocab.relation_names[r]!r}"
            )
    return KnowledgeGraph(vocab, _with_inverses(vocab, kg.triples))


def edge_set(kg) -> set[tuple[int, int, int]]:
    """The edges of a graph as a set of (head, relation, tail) tuples."""
    return set(map(tuple, kg.triples.tolist()))


class DictKnowledgeGraph:
    """The graph as the library built it before its edges became sorted id
    arrays: a frozenset of edge tuples and three dicts, `(entity, relation)`
    to sorted out-neighbors and to sorted sources, and entity to the sorted
    relations into it, filled by one `setdefault` append per edge.

    With a base, the dicts start as shallow copies of the base's, so every
    key the new edges do not touch shares the base's tuple; one pass
    range-checks the new edges and groups them by key, and only those keys
    are rebuilt. Edges already in the base are dropped first.
    """

    def __init__(self, vocab: Vocabulary, edges, base: "DictKnowledgeGraph | None" = None):
        self.vocab = vocab
        old = base.edges if base is not None else frozenset()
        new = frozenset(edges) - old
        self.edges: frozenset[tuple[int, int, int]] = old | new
        self._out, self._in, self._relations_into = (
            (dict(base._out), dict(base._in), dict(base._relations_into))
            if base is not None else ({}, {}, {}))
        n_ent, n_rel = vocab.n_entities, vocab.n_relations
        out: dict[tuple[int, int], list[int]] = {}
        inc: dict[tuple[int, int], list[int]] = {}
        for h, r, t in new:
            if not (0 <= h < n_ent and 0 <= t < n_ent):
                raise VocabularyError(f"edge ({h},{r},{t}) references unknown entity id")
            if not 0 <= r < n_rel:
                raise VocabularyError(f"edge ({h},{r},{t}) references unknown relation id")
            out.setdefault((h, r), []).append(t)
            inc.setdefault((t, r), []).append(h)
        rels_in: dict[int, list[int]] = {}  # relations into t that the base lacks
        for t, r in inc:
            if (t, r) not in self._in:
                rels_in.setdefault(t, []).append(r)
        for index, delta in ((self._out, out), (self._in, inc), (self._relations_into, rels_in)):
            for key, values in delta.items():
                values.extend(index.get(key, ()))
                index[key] = tuple(sorted(values))

    @property
    def n_entities(self) -> int:
        return self.vocab.n_entities

    @property
    def n_relations(self) -> int:
        return self.vocab.n_relations

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, entity: int, relation: int) -> tuple[int, ...]:
        self._check_ids(entity, relation)
        return self._out.get((entity, relation), ())

    def project_frontier(self, entities: set[int], relation: int) -> set[int]:
        out: set[int] = set()
        for v in entities:
            out.update(self._out.get((v, relation), ()))
        return out

    def sources(self, entity: int, relation: int) -> tuple[int, ...]:
        self._check_ids(entity, relation)
        return self._in.get((entity, relation), ())

    def relations_into(self, entity: int) -> tuple[int, ...]:
        self._check_ids(entity, None)
        return self._relations_into.get(entity, ())

    def _check_ids(self, entity: int, relation: int | None) -> None:
        if not 0 <= entity < len(self.vocab.entity_names):
            raise VocabularyError(f"entity id {entity} out of range")
        if relation is not None and not 0 <= relation < len(self.vocab.relation_names):
            raise VocabularyError(f"relation id {relation} out of range")


# The graph-walking grounding, degeneracy check, traversal and canonical key.


def _traversal_plan(graph: ComputationGraph):
    if not is_grounded(graph):
        raise ValueError("query must be fully bound")
    order = graph.topological_order()
    return [(nid, graph.node(nid), graph.in_edges(nid)) for nid in order]


def _traverse(kg: KnowledgeGraph, plan, target: int) -> set[int]:
    values: dict[int, set[int]] = {}
    for nid, node, in_es in plan:
        if not in_es:
            if node.kind != ANCHOR:
                raise ValueError(f"source node {nid} is not an anchor")
            values[nid] = {node.entity}
            continue
        if in_es[0].op == UNION:
            result: set[int] = set()
            for e in in_es:
                result |= values[e.src]
        else:
            result = None
            for e in in_es:
                projected = kg.project_frontier(values[e.src], e.relation)
                result = projected if result is None else result & projected
        values[nid] = result
    return values[target]


def answer_exact_on_graph(kg: KnowledgeGraph, query) -> set[int]:
    graph = _graph_of(query)
    return _traverse(kg, _traversal_plan(graph), graph.target.id)


def answer_set_on_graph(splits: GraphSplits, query) -> AnswerSet:
    """The train answers and those the valid and test graphs add: the
    differences of the three traversals."""
    graph = _graph_of(query)
    plan = _traversal_plan(graph)
    target = graph.target.id
    train, valid, test = (_traverse(kg, plan, target)
                          for kg in (splits.train, splits.valid, splits.test))
    return AnswerSet(tuple(sorted(train)), tuple(sorted(valid - train)),
                     tuple(sorted(test - valid)))


def degeneracies_on_graph(graph: ComputationGraph, kg: KnowledgeGraph) -> list[str]:
    """Pattern 1: a relation followed by its inverse along one path, looking
    through union edges. Pattern 2: two branches of one intersection bound
    to the same (anchor entity, relation) pair."""
    found: list[str] = []

    def upstream_projections(nid: int) -> list:
        # projection edges feeding nid, looking through union edges
        edges = []
        frontier = [nid]
        while frontier:
            cur = frontier.pop()
            for e in graph.in_edges(cur):
                if e.op == UNION:
                    frontier.append(e.src)
                else:
                    edges.append(e)
        return edges

    for e in graph.edges:
        if e.op != PROJECTION:
            continue
        for prev in upstream_projections(e.src):
            inv = kg.inverse_relation(prev.relation)
            if inv is not None and inv == e.relation:
                found.append(
                    f"inverse backtrack: relation {prev.relation} then {e.relation}"
                )

    for n in graph.nodes:
        in_es = [e for e in graph.in_edges(n.id) if e.op == PROJECTION]
        if len(in_es) < 2:
            continue
        seen: set[tuple[int, int]] = set()
        for e in in_es:
            src = graph.node(e.src)
            if src.kind != ANCHOR:
                continue
            pair = (src.entity, e.relation)
            if pair in seen:
                found.append(
                    f"duplicate intersection branch: anchor {src.entity} relation {e.relation}"
                )
            seen.add(pair)
    return found


def try_instantiate_on_graph(
    structure: QueryStructure,
    kg: KnowledgeGraph,
    rng: np.random.Generator,
    root: int | None = None,
) -> GroundedQuery | None:
    """One pre-order grounding attempt; None on dead ends or degeneracy."""
    graph = structure.graph
    if root is None:
        root = int(rng.integers(kg.n_entities))

    entity_of: dict[int, int] = {graph.target.id: root}
    anchor_bindings: dict[int, int] = {}
    relation_bindings: dict[int, int] = {}

    stack = [graph.target.id]
    while stack:
        nid = stack.pop()
        entity = entity_of[nid]
        for e in graph.in_edges(nid):
            if e.src in entity_of:
                # revisiting a node would resample its subtree; the fixed
                # templates are in-trees, so treat this as a dead end
                return None
            if e.op == UNION:
                # parents of a union must each produce the current entity
                entity_of[e.src] = entity
            else:
                rels = kg.relations_into(entity)
                if not rels:
                    return None
                rel = int(rels[rng.integers(len(rels))])
                heads = kg.sources(entity, rel)
                prev = int(heads[rng.integers(len(heads))])
                relation_bindings[e.slot] = rel
                entity_of[e.src] = prev
            src_node = graph.node(e.src)
            if src_node.kind == ANCHOR:
                anchor_bindings[src_node.slot] = entity_of[e.src]
            else:
                stack.append(e.src)

    grounded = bind(graph, anchor_bindings, relation_bindings)
    if degeneracies_on_graph(grounded, kg):
        return None
    return _query_from_graph(structure.name, grounded)


def canonical_key_on_graph(g: ComputationGraph) -> str:
    """Order-independent text key; symmetric branches serialize identically."""

    def describe(nid: int) -> str:
        node = g.node(nid)
        in_es = g.in_edges(nid)
        if not in_es:
            label = node.entity if node.entity is not None else f"s{node.slot}"
            return f"a{label}"
        parts = []
        for e in in_es:
            if e.op == PROJECTION:
                rel = e.relation if e.relation is not None else f"s{e.slot}"
                parts.append(f"p{rel}({describe(e.src)})")
            else:
                parts.append(f"u({describe(e.src)})")
        return "&".join(sorted(parts))

    return describe(g.target.id)
