"""Finite-difference gradient checking for the full query loss.

Central differences with one-sided agreement as the kink detector: when the
left and right difference quotients disagree, the loss is not differentiable
within eps at that coordinate and the comparison is skipped.
"""

from __future__ import annotations

import numpy as np

from boxquery.geometry import dist_box_rows
from boxquery.model import ModelConfig, ModelParams, QueryForward
from boxquery.queries import structure_templates
from boxquery.training import _losses, batch_loss_and_grads

from conftest import random_graph
from oracles import answer_exact, try_instantiate

EPS = 1e-6
TOLERANCE = 1e-4
KINK_TOLERANCE = 1e-3

MODE_GRID = (
    ("attention", "per-relation", "box"),
    ("average", "per-relation", "box"),
    ("deepsets", "per-relation", "box"),
    ("attention", "shared", "box"),
    ("deepsets", "per-relation", "point"),
    ("average", "per-relation", "point"),
)


def query_loss_and_grads(query, params, positive, negatives, grads) -> float:
    """Loss of one (query, positive, negatives) sample, the batch of one of
    `batch_loss_and_grads`; gradients of the loss are accumulated into `grads`."""
    return batch_loss_and_grads([([query], [positive], np.asarray(negatives)[None])], params,
                                grads)


def make_instance(rng, mode, dim=4, structure_name=None):
    """Random (splits-free) KG, grounded query, model, and a loss sample."""
    intersection_mode, offset_mode, geometry = mode
    kg = random_graph(rng, n_entities=6, n_relations=2, n_edges=14, augment=True)
    templates = [s for s in structure_templates()]
    if structure_name is not None:
        templates = [s for s in templates if s.name == structure_name]
    query = None
    while query is None:
        structure = templates[int(rng.integers(len(templates)))]
        query = try_instantiate(structure, kg, rng)
    answers = sorted(answer_exact(kg, query))
    non_answers = sorted(set(range(kg.n_entities)) - set(answers))
    if not non_answers:
        return None
    positive = answers[int(rng.integers(len(answers)))]
    k = min(3, len(non_answers))
    negatives = rng.choice(non_answers, size=k, replace=False)

    config = ModelConfig(
        dim=dim,
        alpha=0.2,
        gamma=1.0,
        negatives=k,
        intersection_mode=intersection_mode,
        offset_mode=offset_mode,
        geometry=geometry,
        seed=int(rng.integers(1 << 31)),
        epochs=1,
        batch_per_structure=1,
    )
    params = ModelParams(config, kg.n_entities, kg.n_relations)
    return params, query, positive, negatives


def loss_only(params, query, positive, negatives) -> float:
    """The loss of `query_loss_and_grads` without the backward pass, which
    would make the finite differences several times slower: the candidates'
    distances to their closest branch box, the distances `dist_box_grad`
    returns, through the margin loss."""
    cfg = params.config
    vecs = params.entity[np.concatenate(([positive], negatives))][None]
    boxes = QueryForward([[query]], params).boxes[0]
    dists = np.min([dist_box_rows(vecs, center, offset, cfg.alpha) for center, offset in boxes],
                   axis=0)
    return float(_losses(dists.astype(float), cfg.gamma)[0])


def check_instance(params, query, positive, negatives):
    """Compare every analytic partial against central differences.

    Returns (checked, skipped_kinks, failures) where failures is a list of
    (tensor, index, analytic, fd) tuples.
    """
    grads = params.zero_grads()
    base = query_loss_and_grads(query, params, positive, negatives, grads)
    checked = skipped = 0
    failures = []
    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        grad_flat = grads[name].reshape(-1)
        for idx in range(flat.shape[0]):
            original = flat[idx]
            flat[idx] = original + EPS
            plus = loss_only(params, query, positive, negatives)
            flat[idx] = original - EPS
            minus = loss_only(params, query, positive, negatives)
            flat[idx] = original
            right = (plus - base) / EPS
            left = (base - minus) / EPS
            scale = max(1.0, abs(right), abs(left))
            if abs(right - left) > KINK_TOLERANCE * scale:
                skipped += 1
                continue
            fd = (plus - minus) / (2 * EPS)
            analytic = grad_flat[idx]
            if abs(fd - analytic) > TOLERANCE * max(1.0, abs(fd), abs(analytic)):
                failures.append((name, idx, float(analytic), float(fd)))
            checked += 1
    return checked, skipped, failures
