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
from .geometry import dist_box_grad
from .kg import GraphSplits
from .model import AdamState, ModelConfig, ModelParams, QueryForward, adam_step, sigmoid
from .sampling import GroundedQuery

_TRAIN_STREAM = 7
_CANDIDATE_BLOCK = 1 << 15  # candidate-vector elements scored and differentiated at a time


def _log_sigmoid(x):
    # -log(1 + exp(-x)), stable on both tails
    return -np.logaddexp(0.0, -x)


def _losses(dists: np.ndarray, gamma: float) -> np.ndarray:
    # one loss per row of (positive, negative...) distances; the sorted
    # negative terms are summed left to right (cumsum is sequential)
    terms = np.sort(_log_sigmoid(dists[:, 1:] - gamma), axis=1)
    return -_log_sigmoid(gamma - dists[:, 0]) - np.cumsum(terms, axis=1)[:, -1] / terms.shape[1]


def loss(pos_dist: float, neg_dists, gamma: float) -> float:
    """Negative-sampling loss: pull the positive inside the margin, push the
    negatives beyond it. The negative term is averaged; summing in sorted
    order makes the value exactly independent of negative order."""
    return float(_losses(np.concatenate(([pos_dist], neg_dists))[None].astype(float), gamma)[0])


def sample_negatives(
    q: GroundedQuery, k: int, splits: GraphSplits, rng: np.random.Generator
) -> np.ndarray:
    """k entities drawn uniformly without replacement from the non-answers
    of the query on the train graph."""
    if q.answers is None:
        raise ValueError("query must carry answer sets")
    allowed = np.ones(splits.train.n_entities, dtype=bool)
    allowed[np.asarray(q.answers.train, dtype=int)] = False
    candidates = np.flatnonzero(allowed)
    if len(candidates) < k:
        raise SamplingError(
            f"need {k} negatives but only {len(candidates)} non-answers exist"
        )
    return rng.choice(candidates, size=k, replace=False)


def batch_loss_and_grads(queries: list[GroundedQuery], params: ModelParams, positives,
                         negatives: np.ndarray, grads: dict[str, np.ndarray]) -> float:
    """Summed loss of B samples of one structure: query i with positive
    positives[i] and the k negatives in row i of `negatives`. Gradients of
    the loss are accumulated into `grads`."""
    cfg = params.config
    forward = QueryForward(queries, params)
    candidates = np.concatenate((np.asarray(positives)[:, None], negatives), axis=1).astype(int)
    b, width = candidates.shape
    adjoints = [(np.zeros((b, cfg.dim)), np.zeros((b, cfg.dim))) for _ in forward.boxes]
    losses, entity_rows = [], []
    # the candidates of a few queries at a time, so their blocks stay small
    chunk = max(1, _CANDIDATE_BLOCK // (width * cfg.dim))
    for rows in (slice(q, q + chunk) for q in range(0, b, chunk)):
        vecs = params.entity[candidates[rows]]
        # one fused distance and gradient pass per branch
        passes = [dist_box_grad(vecs, box.center[rows], box.offset[rows], cfg.alpha)
                  for box in forward.boxes]
        per_box = np.stack([dist for dist, _, _ in passes])
        branches = np.argmin(per_box, axis=0)
        dists = np.take_along_axis(per_box, branches[None], axis=0)[0].astype(float)
        losses.append(_losses(dists, cfg.gamma))
        # d loss / d distance, then chain through the box distance of the
        # branch that is closest to each candidate
        dloss_ddist = np.concatenate((sigmoid(dists[:, :1] - cfg.gamma),
                                      -sigmoid(cfg.gamma - dists[:, 1:]) / (width - 1)), axis=1)
        for branch, ((_, dv, do), (d_center, d_offset)) in enumerate(zip(passes, adjoints)):
            weight = np.where(branches == branch, dloss_ddist, 0.0)[:, :, None]
            dv *= weight  # zero in the rows of candidates another branch won
            entity_rows.append((candidates[rows].ravel(), dv.reshape(-1, cfg.dim)))
            d_center[rows] = -dv.sum(axis=1)  # the center gradient is -dv
            d_offset[rows] = (weight * do).sum(axis=1)
    forward.backward(adjoints, grads, entity_rows)
    return float(sum(np.concatenate(losses).tolist()))


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

    grads = params.zero_grads()  # reused: adam_step hands them back zeroed
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
                batch_qs, positives, negatives = [], [], []
                # lists shorter than the batch cycle, so every structure
                # contributes the same number of samples per iteration
                for _ in range(batch):
                    q = qs[order[cursors[s] % len(qs)]]
                    cursors[s] += 1
                    batch_qs.append(q)
                    positives.append(int(q.answers.train[rng.integers(len(q.answers.train))]))
                    negatives.append(sample_negatives(q, config.negatives, splits, rng))
                samples.append((batch_qs, positives, np.stack(negatives)))
            # one forward and backward pass per structure over its whole batch
            batch_loss = sum(
                batch_loss_and_grads(qs, params, positives, negatives, grads)
                for qs, positives, negatives in samples
            )
            n_queries += batch * len(samples)
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
