"""Independent reference implementations used only by the tests.

The answer oracles deliberately avoid the library's set-traversal code path:
answers are found by enumerating variable assignments and checking
satisfaction per entity, so agreement with the traversal is a real two-route
check. The loss oracle scores and differentiates one candidate at a time,
against which the library's per-branch block form is compared; the MLP
oracle builds each weight gradient from one outer product per input row,
against which the library's row-block form is compared. The distance
oracles measure against the box corners, not the |v - c| form of the
library's blocked kernel, and the rank oracle builds one mask per answer
where the library sorts the non-answers once per query.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from boxquery.geometry import dist_box, grad_dist_box
from boxquery.kg import KnowledgeGraph
from boxquery.model import QueryForward
from boxquery.queries import ANCHOR, UNION, ComputationGraph
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
    """Reference for `training.query_loss_and_grads`: each candidate picks
    its closest DNF branch and chains its own gradient through that box."""
    cfg = params.config
    forward = QueryForward(q, params)
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


def rank_per_answer(v, distances, test_answers) -> int:
    """Reference for the filtered optimistic rank: one N-length mask of the
    non-answers, plus `v` itself, per answer."""
    allowed = np.ones(len(distances), dtype=bool)
    allowed[list(test_answers)] = False
    allowed[v] = True
    return 1 + int(np.count_nonzero(allowed & (distances < distances[v])))
