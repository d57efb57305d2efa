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
from .model import (AdamState, ModelConfig, ModelParams, QueryForward, _scatter_rows, adam_step,
                    sigmoid)
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


class Workspace:
    """Scratch buffers of the candidate pass and the box adjoints, reused
    from chunk to chunk and from call to call, so that a run allocates them
    once: one flat buffer per use, grown to the largest size asked of it,
    lent out as a view."""

    def __init__(self):
        self._buffers: dict = {}

    def buffer(self, key, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._buffers.get(key)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self._buffers[key] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _candidate_pass(candidates: np.ndarray, boxes, params: ModelParams, grads, workspace,
                    adjoints) -> float:
    """Summed loss of B samples of one structure, query i with the candidates
    in row i of `candidates` (its positive, then its negatives), given its
    boxes, one (center, offset) pair of (B, d) stacks per branch. The
    candidates' entity gradients are added to `grads` and the box adjoints
    written to `adjoints`, one (d_center, d_offset) pair of (B, d) arrays per
    branch, every row of which is written."""
    cfg = params.config
    entity = params.entity
    b, width = candidates.shape
    losses = []
    # the candidates of a few queries at a time, so their blocks stay small
    chunk = max(1, _CANDIDATE_BLOCK // (width * cfg.dim))
    for rows in (slice(q, q + chunk) for q in range(0, b, chunk)):
        ids = candidates[rows]
        shape = (*ids.shape, cfg.dim)
        vecs = np.take(entity, ids, axis=0, mode="wrap",  # in range: checked by the caller
                       out=workspace.buffer("vecs", shape, entity.dtype))
        chunk_boxes = [(center[rows], offset[rows]) for center, offset in boxes]
        # one fused distance and gradient pass per branch
        passes = [dist_box_grad(vecs, center, offset, cfg.alpha,
                                out=(workspace.buffer(("dv", i), shape),
                                     workspace.buffer(("do", i), shape)))
                  for i, (center, offset) in enumerate(chunk_boxes)]
        per_box = np.stack([dist for dist, *_ in passes])
        branches = np.argmin(per_box, axis=0)
        dists = np.take_along_axis(per_box, branches[None], axis=0)[0].astype(float)
        losses.append(_losses(dists, cfg.gamma))
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
    return float(sum(np.concatenate(losses).tolist()))


def batch_loss_and_grads(samples, params: ModelParams, grads: dict[str, np.ndarray],
                         workspace: Workspace | None = None) -> float:
    """Summed loss of the batches in `samples`, one (queries, positives,
    negatives) triple per structure: B queries of one structure, query i
    with positive positives[i] and the k negatives in row i of `negatives`.
    Gradients of the loss are accumulated into `grads`. One forward pass
    embeds every batch and one backward pass differentiates them; the
    candidates are scored per batch. The candidate pass and the (B, d) box
    adjoints use `workspace`, a fresh one if None. The loss is the sum of
    the batches' losses, in their order."""
    cfg = params.config
    n_entities = len(params.entity)
    candidates = [np.concatenate((np.asarray(positives)[:, None], negatives), axis=1).astype(int)
                  for _, positives, negatives in samples]
    if any(ids.min() < 0 or ids.max() >= n_entities for ids in candidates):
        raise IndexError(f"candidate entity ids must lie in [0, {n_entities})")
    workspace = Workspace() if workspace is None else workspace
    forward = QueryForward([queries for queries, _, _ in samples], params)
    totals, adjoints = [], []
    for i, ids in enumerate(candidates):
        adjoints.append([tuple(workspace.buffer((name, i, branch), (len(ids), cfg.dim))
                               for name in ("d_center", "d_offset"))
                         for branch in range(len(forward.boxes[i]))])
        totals.append(_candidate_pass(ids, forward.boxes[i], params, grads, workspace,
                                      adjoints[-1]))
    forward.backward(adjoints, grads)
    return sum(totals)


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
    workspace = Workspace()
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
            # one forward and one backward pass over the batches of every structure
            batch_loss = batch_loss_and_grads(samples, params, grads, workspace)
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
