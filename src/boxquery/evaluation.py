"""Filtered ranking, per-structure metric aggregation, and the two analyses.

Ranking is filtered: a true answer competes only against entities that are
not answers of the same query on the test graph. Ties are broken
optimistically (rank = 1 + number of strictly closer candidates). Metrics
are averaged per query first and per structure second, so a query with many
answers counts no more than a query with one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import dist_agg
from .kg import GraphSplits, KnowledgeGraph
from .model import ModelParams, embed_epfo
from .sampling import GroundedQuery

STAGES = ("train", "validation", "test")

METRIC_NAMES = ("mrr", "h1", "h3", "h10")


def _stage_answers(q: GroundedQuery, stage: str) -> list[int]:
    if q.answers is None:
        raise ValueError("query must carry answer sets")
    if stage == "validation":
        return sorted(set(q.answers.valid) - set(q.answers.train))
    if stage == "test":
        return sorted(set(q.answers.test) - set(q.answers.valid))
    if stage == "train":
        return sorted(q.answers.train)
    raise ValueError(f"unknown stage {stage!r}")


def entity_distances(q: GroundedQuery, params: ModelParams) -> np.ndarray:
    """Aggregated box distance from every entity to the query."""
    boxes = embed_epfo(q, params)
    return dist_agg(params.entity, boxes, params.config.alpha)


def rank_entity(
    v: int,
    q: GroundedQuery,
    params: ModelParams,
    splits: GraphSplits,
    distances: np.ndarray | None = None,
) -> int:
    """Filtered optimistic rank of answer `v` among the non-answers."""
    if q.answers is None or v not in q.answers.test:
        raise ValueError(f"entity {v} is not a test-graph answer of the query")
    if distances is None:
        distances = entity_distances(q, params)
    allowed = np.ones(splits.test.n_entities, dtype=bool)
    allowed[list(q.answers.test)] = False
    allowed[v] = True
    return 1 + int(np.count_nonzero(allowed & (distances < distances[v])))


def metrics_for_query(
    q: GroundedQuery, params: ModelParams, splits: GraphSplits, stage: str
) -> dict[str, float]:
    """Mean of the rank metrics over the stage's non-trivial answers."""
    answers = _stage_answers(q, stage)
    if not answers:
        raise ValueError(f"query has no answers to evaluate at stage {stage!r}")
    distances = entity_distances(q, params)
    totals = dict.fromkeys(METRIC_NAMES, 0.0)
    for v in answers:
        rank = rank_entity(v, q, params, splits, distances)
        totals["mrr"] += 1.0 / rank
        totals["h1"] += 1.0 if rank <= 1 else 0.0
        totals["h3"] += 1.0 if rank <= 3 else 0.0
        totals["h10"] += 1.0 if rank <= 10 else 0.0
    return {k: t / len(answers) for k, t in totals.items()}


@dataclass
class EvalReport:
    stage: str
    checkpoint_id: str
    structures: dict[str, dict[str, float]]  # per-structure metric means + count
    overall: dict[str, float]
    tie_rule: str = "optimistic"

    def to_json(self) -> str:
        return json.dumps(
            {
                "stage": self.stage,
                "checkpoint": self.checkpoint_id,
                "tie_rule": self.tie_rule,
                "structures": self.structures,
                "overall": self.overall,
            },
            sort_keys=True,
            indent=2,
        )

    def render_table(self) -> str:
        names = sorted(self.structures)
        lines = [
            f"stage={self.stage} checkpoint={self.checkpoint_id} ties={self.tie_rule}",
            f"{'structure':<10}{'queries':>9}" + "".join(f"{m:>9}" for m in METRIC_NAMES),
        ]
        for name in names:
            row = self.structures[name]
            lines.append(
                f"{name:<10}{int(row['count']):>9}"
                + "".join(f"{row[m]:>9.4f}" for m in METRIC_NAMES)
            )
        lines.append(
            f"{'overall':<10}{'':>9}" + "".join(f"{self.overall[m]:>9.4f}" for m in METRIC_NAMES)
        )
        return "\n".join(lines)


def aggregate(
    queries: list[GroundedQuery],
    params: ModelParams,
    splits: GraphSplits,
    stage: str,
    checkpoint_id: str = "-",
    workers: int = 1,
) -> EvalReport:
    """Per-structure means of per-query metrics; overall is the unweighted
    mean of the structure means. Evaluation is read-only on the checkpoint,
    so queries may be scored in parallel; the merge order is fixed."""
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(
                pool.map(lambda q: metrics_for_query(q, params, splits, stage), queries)
            )
    else:
        rows = [metrics_for_query(q, params, splits, stage) for q in queries]
    per_structure: dict[str, list[dict[str, float]]] = {}
    for q, row in zip(queries, rows):
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


def _rank_transform(values: np.ndarray) -> np.ndarray:
    # average ranks for ties
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Rank correlation with average ranks for ties."""
    rx = _rank_transform(np.asarray(x, dtype=float))
    ry = _rank_transform(np.asarray(y, dtype=float))
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt(np.sum(rx * rx) * np.sum(ry * ry))
    if denom == 0:
        return 0.0
    return float(np.sum(rx * ry) / denom)


@dataclass
class OffsetReport:
    rows: list[dict]  # relation, box_size, mean_answers; ascending box size
    correlation: float

    def render_table(self) -> str:
        lines = [f"{'relation':<50}{'box size':>12}{'mean answers':>14}"]
        for row in self.rows:
            lines.append(
                f"{row['relation']:<50}{row['box_size']:>12.3f}{row['mean_answers']:>14.2f}"
            )
        lines.append(f"rank correlation (box size vs answers): {self.correlation:.4f}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {"rows": self.rows, "correlation": self.correlation}, sort_keys=True, indent=2
        )


def offset_report(params: ModelParams, splits: GraphSplits) -> OffsetReport:
    """Per-relation box size (L1 norm of the effective offset) against the
    mean single-hop answer count on the train graph."""
    kg = splits.train
    heads_by_relation: dict[int, set[int]] = {}
    for h, r, _ in kg.edges:
        heads_by_relation.setdefault(r, set()).add(h)
    rows = []
    sizes = []
    counts = []
    for rid, name in enumerate(kg.vocab.relation_names):
        heads = sorted(heads_by_relation.get(rid, ()))
        if not heads:
            continue
        mean_answers = float(np.mean([len(kg.neighbors(h, rid)) for h in heads]))
        size = float(np.sum(params.effective_relation_offset(rid)))
        rows.append({"relation": name, "box_size": size, "mean_answers": mean_answers})
        sizes.append(size)
        counts.append(mean_answers)
    rows.sort(key=lambda r: (r["box_size"], r["relation"]))
    corr = spearman(np.array(sizes), np.array(counts)) if len(rows) >= 2 else 0.0
    return OffsetReport(rows, corr)


def count_disjoint_queries(
    kg: KnowledgeGraph, rng: np.random.Generator, pair_factor: int = 10
) -> tuple[int, int]:
    """Greedy count of single-hop and intersection queries with pairwise
    disjoint answer sets.

    Stage one walks every (entity, relation) pair with answers, keeping a
    query whenever its answers avoid everything kept so far. Stage two
    extends the count with sampled conjunctions of two multi-answer
    single-hop queries. Returns (stage-one count, final count).
    """
    pairs = sorted({(h, r) for (h, r, t) in kg.edges})
    seen = np.zeros(kg.n_entities, dtype=bool)
    m_1p = 0
    multi = []
    for h, r in pairs:
        answers = kg.neighbors(h, r)
        if len(answers) > 1:
            multi.append((h, r))
        ans = np.asarray(answers, dtype=int)
        if not seen[ans].any():
            seen[ans] = True
            m_1p += 1
    m_total = m_1p
    if multi:
        n_pairs = pair_factor * len(multi)
        lefts = rng.integers(len(multi), size=n_pairs)
        rights = rng.integers(len(multi), size=n_pairs)
        for li, ri in zip(lefts, rights):
            (h1, r1), (h2, r2) = multi[li], multi[ri]
            if (h1, r1) == (h2, r2):
                continue
            inter = set(kg.neighbors(h1, r1)) & set(kg.neighbors(h2, r2))
            if not inter:
                continue
            ans = np.asarray(sorted(inter), dtype=int)
            if not seen[ans].any():
                seen[ans] = True
                m_total += 1
    return m_1p, m_total
