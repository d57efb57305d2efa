"""Negative-sampling objective and the epoch loop over mixed query structures.

Each iteration draws a fixed-size batch from every trainable structure, one
positive answer and k negatives per query, and applies a single Adam step on
the summed loss. An epoch is one pass over the largest structure's query
list; smaller lists cycle. After each epoch the model is scored on the
validation queries and the best checkpoint (by average MRR) is retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SamplingError, TrainingError
from .geometry import dist_box, grad_dist_box
from .kg import GraphSplits
from .model import AdamState, ModelConfig, ModelParams, QueryForward, adam_step, sigmoid
from .sampling import GroundedQuery

_TRAIN_STREAM = 7


def _log_sigmoid(x: float) -> float:
    # -log(1 + exp(-x)), stable on both tails
    return -np.logaddexp(0.0, -x)


def loss(pos_dist: float, neg_dists, gamma: float) -> float:
    """Negative-sampling loss: pull the positive inside the margin, push the
    negatives beyond it. The negative term is averaged; summing in sorted
    order makes the value exactly independent of negative order."""
    value = -_log_sigmoid(gamma - pos_dist)
    terms = sorted(_log_sigmoid(nd - gamma) for nd in neg_dists)
    value -= sum(terms) / len(terms)
    return float(value)


def sample_negatives(
    q: GroundedQuery, k: int, splits: GraphSplits, rng: np.random.Generator
) -> np.ndarray:
    """k entities drawn uniformly without replacement from the non-answers
    of the query on the train graph."""
    if q.answers is None:
        raise ValueError("query must carry answer sets")
    candidates = np.setdiff1d(
        np.arange(splits.train.n_entities), np.asarray(q.answers.train, dtype=int)
    )
    if len(candidates) < k:
        raise SamplingError(
            f"need {k} negatives but only {len(candidates)} non-answers exist"
        )
    return rng.choice(candidates, size=k, replace=False)


def query_loss_and_grads(
    q: GroundedQuery,
    params: ModelParams,
    positive: int,
    negatives: np.ndarray,
    grads: dict[str, np.ndarray],
) -> float:
    """Loss for one (query, positive, negatives) sample; gradients of the
    loss are accumulated into `grads`."""
    cfg = params.config
    forward = QueryForward(q, params)

    candidates = np.concatenate(([positive], negatives)).astype(int)
    vecs = params.entity[candidates]
    per_box = np.stack([dist_box(vecs, box, cfg.alpha) for box in forward.boxes])
    branches = np.argmin(per_box, axis=0)
    dists = per_box[branches, np.arange(len(candidates))].astype(float)
    total = loss(dists[0], dists[1:], cfg.gamma)

    # d loss / d distance, then chain through the box distance of the
    # branch that is closest to each candidate
    dloss_ddist = np.concatenate((
        [sigmoid(dists[0] - cfg.gamma)],
        -sigmoid(cfg.gamma - dists[1:]) / len(negatives),
    ))
    for branch, box in enumerate(forward.boxes):
        rows = np.flatnonzero(branches == branch)
        if len(rows) == 0:
            continue
        dv, dc, do = grad_dist_box(vecs[rows], box, cfg.alpha)
        weight = dloss_ddist[rows, None]
        np.add.at(grads["entity"], candidates[rows], weight * dv)
        forward.add_box_adjoint(
            branch, np.sum(weight * dc, axis=0), np.sum(weight * do, axis=0)
        )
    forward.backward(grads)
    return total


@dataclass
class TrainState:
    """Mutable training bookkeeping: step counter, moments, rng, best model."""

    adam: AdamState
    rng: np.random.Generator | None = None
    step: int = 0
    epoch: int = 0
    best_metric: float = -1.0
    best_params: ModelParams | None = None
    history: list[dict] = field(default_factory=list)


@dataclass
class TrainResult:
    params: ModelParams  # best by validation MRR, else the final state
    final_params: ModelParams
    state: TrainState


def train(
    splits: GraphSplits,
    train_queries: list[GroundedQuery],
    config: ModelConfig,
    valid_queries: list[GroundedQuery] | None = None,
    log=None,
    max_iterations: int | None = None,
    diagnostic_path: str | None = None,
) -> TrainResult:
    """Run the full training loop and return the selected parameters.

    `max_iterations` truncates the run after that many optimizer steps
    (used by dry runs).

    A non-finite loss aborts the run; with `diagnostic_path` set, the
    parameters at the point of failure are checkpointed there first.
    """
    from .evaluation import aggregate  # late import, avoids a module cycle

    by_structure: dict[str, list[GroundedQuery]] = {}
    for q in train_queries:
        by_structure.setdefault(q.structure_name, []).append(q)
    structures = [s for s in config.train_structures if s in by_structure]
    if not structures:
        raise TrainingError(
            f"no training queries for structures {config.train_structures}"
        )

    params = ModelParams(config, splits.train.n_entities, splits.train.n_relations)
    rng = np.random.default_rng([config.seed, _TRAIN_STREAM])
    state = TrainState(adam=AdamState.init(params), rng=rng)
    batch = config.batch_per_structure
    largest = max(len(by_structure[s]) for s in structures)
    iters_per_epoch = max(1, math.ceil(largest / batch))

    stop = False
    for epoch in range(1, config.epochs + 1):
        orders = {
            s: rng.permutation(len(by_structure[s])) for s in structures
        }
        cursors = {s: 0 for s in structures}
        epoch_loss = 0.0
        n_queries = 0
        for _ in range(iters_per_epoch):
            samples = []
            for s in structures:
                qs = by_structure[s]
                order = orders[s]
                # lists shorter than the batch cycle, so every structure
                # contributes the same number of samples per iteration
                for _ in range(batch):
                    q = qs[order[cursors[s] % len(qs)]]
                    cursors[s] += 1
                    positive = int(
                        q.answers.train[rng.integers(len(q.answers.train))]
                    )
                    negatives = sample_negatives(q, config.negatives, splits, rng)
                    samples.append((q, positive, negatives))
            grads = params.zero_grads()
            batch_loss = sum(
                query_loss_and_grads(q, params, positive, negatives, grads)
                for q, positive, negatives in samples
            )
            n_queries += len(samples)
            if not np.isfinite(batch_loss):
                message = f"non-finite loss at epoch {epoch} step {state.step + 1}"
                if diagnostic_path is not None:
                    from .model import save_checkpoint

                    vocab = splits.vocab
                    save_checkpoint(
                        diagnostic_path, params, vocab.entity_hash(), vocab.relation_hash()
                    )
                    message += f"; parameters snapshotted to {diagnostic_path}"
                raise TrainingError(message)
            state.step += 1
            adam_step(params, grads, state.adam, config.learning_rate, state.step)
            epoch_loss += batch_loss
            if max_iterations is not None and state.step >= max_iterations:
                stop = True
                break

        state.epoch = epoch
        record = {"epoch": epoch, "loss": epoch_loss / max(1, n_queries)}
        if valid_queries:
            report = aggregate(valid_queries, params, splits, "validation")
            record["val_mrr"] = report.overall["mrr"]
            if report.overall["mrr"] > state.best_metric:
                state.best_metric = report.overall["mrr"]
                state.best_params = params.copy()
        state.history.append(record)
        if log is not None:
            parts = [f"epoch={epoch}", f"loss={record['loss']:.6f}"]
            if "val_mrr" in record:
                parts.append(f"val_mrr={record['val_mrr']:.6f}")
                parts.append(f"best_val_mrr={state.best_metric:.6f}")
            log(" ".join(parts))
        if stop:
            break

    best = state.best_params if state.best_params is not None else params
    return TrainResult(best, params, state)
