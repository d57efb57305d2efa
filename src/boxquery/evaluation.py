"""Filtered ranking, per-structure metric aggregation, and the two analyses.

Ranking is filtered: a true answer competes only against entities that are
not answers of the same query on the test graph. Ties are broken
optimistically (rank = 1 + number of strictly closer candidates). Metrics
are averaged per query first and per structure second, so a query with many
answers counts no more than a query with one.

Queries are scored per structure chunk: `aggregate` groups them by
structure, embeds up to `_QUERY_CHUNK` queries of one structure with one
batched forward pass, and scores the chunk against the entity table in one
blocked pass, so the table is read once per chunk rather than once per
query; each query is then ranked on its own row of distances. A single
query (`entity_distances`, `metrics_for_query`) is a chunk of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import dist_agg
from .kg import GraphSplits, KnowledgeGraph
from .model import ModelParams, QueryForward
from .sampling import GroundedQuery

METRIC_NAMES = ("mrr", "h1", "h3", "h10")

# queries of one structure embedded and scored together; the (chunk, N)
# distance table bounds evaluation memory whatever the number of queries
_QUERY_CHUNK = 64


def _stage_answers(q: GroundedQuery, stage: str) -> list[int]:
    """The answers the stage's graph adds to the graph before it, as a list:
    numpy reads a tuple index as several axes."""
    field = {"train": "train", "validation": "valid_added", "test": "test_added"}.get(stage)
    if field is None:
        raise ValueError(f"unknown stage {stage!r}")
    answers = list(getattr(q.answers, field))
    if not answers:
        raise ValueError(f"query has no answers to evaluate at stage {stage!r}")
    return answers


def _chunk_distances(queries: list[GroundedQuery], params: ModelParams) -> np.ndarray:
    """(B, N) aggregated box distances from every entity to B queries of one
    structure: one forward pass, one blocked pass over the entity table."""
    boxes = QueryForward([queries], params).boxes[0]
    return dist_agg(params.entity, boxes, params.config.alpha)


def entity_distances(q: GroundedQuery, params: ModelParams) -> np.ndarray:
    """Aggregated box distance from every entity to the query."""
    return _chunk_distances([q], params)[0]


def _filtered_ranks(distances: np.ndarray, answers: list[int], q: GroundedQuery) -> np.ndarray:
    """Optimistic ranks of some of the query's answers: one plus the number
    of its non-answers on the test graph that lie strictly closer."""
    others = np.ones(len(distances), dtype=bool)
    others[[*q.answers.train, *q.answers.valid_added, *q.answers.test_added]] = False
    closer = np.sort(distances[others])
    return 1 + np.searchsorted(closer, distances[answers], side="left")


def _metrics(ranks: np.ndarray) -> dict[str, float]:
    totals = dict.fromkeys(METRIC_NAMES, 0.0)
    for rank in ranks.tolist():
        totals["mrr"] += 1.0 / rank
        totals["h1"] += 1.0 if rank <= 1 else 0.0
        totals["h3"] += 1.0 if rank <= 3 else 0.0
        totals["h10"] += 1.0 if rank <= 10 else 0.0
    return {k: t / len(ranks) for k, t in totals.items()}


def _ranks(queries: list[GroundedQuery], params: ModelParams, stage: str) -> list[np.ndarray]:
    """Filtered ranks of each query's stage answers, in the order of
    `queries`, scored one structure chunk at a time."""
    answers = [_stage_answers(q, stage) for q in queries]
    by_structure: dict[str, list[int]] = {}
    for i, q in enumerate(queries):
        by_structure.setdefault(q.structure_name, []).append(i)
    ranks = [None] * len(queries)
    for members in by_structure.values():
        for start in range(0, len(members), _QUERY_CHUNK):
            chunk = members[start : start + _QUERY_CHUNK]
            table = _chunk_distances([queries[i] for i in chunk], params)
            for i, row in zip(chunk, table):
                ranks[i] = _filtered_ranks(row, answers[i], queries[i])
            del table, row  # one (chunk, N) table alive at a time
    return ranks


def metrics_for_query(
    q: GroundedQuery, params: ModelParams, splits: GraphSplits, stage: str
) -> dict[str, float]:
    """Mean of the rank metrics over the stage's non-trivial answers."""
    answers = _stage_answers(q, stage)
    return _metrics(_filtered_ranks(entity_distances(q, params), answers, q))


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
) -> EvalReport:
    """Per-structure means of per-query metrics; overall is the unweighted
    mean of the structure means. Each structure's queries are averaged in
    their order in `queries`. No queries is a ValueError: there is no mean."""
    if not queries:
        raise ValueError("no queries to evaluate")
    per_structure: dict[str, list[dict[str, float]]] = {}
    for q, ranks in zip(queries, _ranks(queries, params, stage)):
        per_structure.setdefault(q.structure_name, []).append(_metrics(ranks))
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
    # a relation's mean answer count is its edges over its distinct heads
    edges = np.bincount(kg.triples[:, 1], minlength=kg.n_relations)
    heads = np.bincount(np.unique(kg.triples[:, :2], axis=0)[:, 1], minlength=kg.n_relations)
    rows = []
    sizes = []
    counts = []
    for rid, name in enumerate(kg.vocab.relation_names):
        if not heads[rid]:
            continue
        mean_answers = float(edges[rid] / heads[rid])
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
    pairs = np.unique(kg.triples[:, :2], axis=0).tolist()
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
