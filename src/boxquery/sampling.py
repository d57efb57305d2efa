"""Grounding query templates on a graph and answering them by traversal.

Instantiation walks the template in pre-order from the target: the root
entity is drawn uniformly, then each in-edge draws a relation uniformly from
the relations entering the current entity and a predecessor uniformly from
the entities reaching it via that relation. Degenerate assignments (an
inverse-relation backtrack along a path, or duplicated (anchor, relation)
branches in an intersection) are rejected and retried.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CompatibilityError, SamplingError
from .kg import GraphSplits, KnowledgeGraph, Vocabulary, _atomic_open
from .queries import (
    ANCHOR,
    PROJECTION,
    UNION,
    ComputationGraph,
    QueryStructure,
    bind,
    canonical_key,
    graph_from_text,
    graph_to_text,
    structure_templates,
)

DEFAULT_ATTEMPTS = 1000

# rng stream labels, combined with the master seed
_SPLIT_STREAM = {"train": 1, "valid": 2, "test": 3, "heldin": 4}


@dataclass(frozen=True)
class AnswerSet:
    """Per-snapshot answers; monotone in the edge sets."""

    train: tuple[int, ...]
    valid: tuple[int, ...]
    test: tuple[int, ...]

    def __post_init__(self):
        if not (set(self.train) <= set(self.valid) <= set(self.test)):
            raise ValueError("answer sets must nest: train <= valid <= test")


@dataclass(frozen=True)
class GroundedQuery:
    graph: ComputationGraph
    structure_name: str
    answers: AnswerSet | None = None


def _traversal_plan(graph: ComputationGraph):
    if not graph.is_grounded():
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


def answer_exact(kg: KnowledgeGraph, query: GroundedQuery | ComputationGraph) -> set[int]:
    """Exact denotation set by post-order traversal from the anchors."""
    graph = query.graph if isinstance(query, GroundedQuery) else query
    return _traverse(kg, _traversal_plan(graph), graph.target.id)


def answer_set(splits: GraphSplits, query: GroundedQuery | ComputationGraph) -> AnswerSet:
    graph = query.graph if isinstance(query, GroundedQuery) else query
    plan = _traversal_plan(graph)
    target = graph.target.id
    return AnswerSet(
        tuple(sorted(_traverse(splits.train, plan, target))),
        tuple(sorted(_traverse(splits.valid, plan, target))),
        tuple(sorted(_traverse(splits.test, plan, target))),
    )


def degeneracies(graph: ComputationGraph, kg: KnowledgeGraph) -> list[str]:
    """Static inspection for the two rejected binding patterns.

    Pattern 1: a relation followed by its inverse along one path (union
    edges are transparent, so the check also covers paths that a DNF merge
    would create). Pattern 2: two branches of one intersection bound to the
    same (anchor entity, relation) pair.
    """
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


def try_instantiate(
    structure: QueryStructure,
    kg: KnowledgeGraph,
    rng: np.random.Generator,
    root: int | None = None,
) -> GroundedQuery | None:
    """One pre-order grounding attempt; None on dead ends or degeneracy."""
    if kg.n_entities == 0:
        raise SamplingError("cannot instantiate on an empty graph")
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
    if degeneracies(grounded, kg):
        return None
    return GroundedQuery(grounded, structure.name)


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


def generate_queries(
    splits: GraphSplits,
    counts: dict[str, int],
    seed: int,
    attempts: int = DEFAULT_ATTEMPTS,
) -> dict[str, list[GroundedQuery]]:
    """Generate train/valid/test query sets with the non-trivial filters.

    Training queries use the five trainable structures on the train graph.
    Validation and test queries use all nine structures on their own graphs
    and must gain at least one answer over the previous snapshot, so that
    answering them requires imputing missing edges. Queries are deduplicated
    by canonical form within each structure; on budget exhaustion a warning
    is issued and the queries found so far are kept.

    Each (split, structure) pair draws from its own seeded stream.
    """
    out: dict[str, list[GroundedQuery]] = {"train": [], "valid": [], "test": []}
    for split_name in ("train", "valid", "test"):
        kg = getattr(splits, split_name)
        for struct_idx, structure in enumerate(structure_templates()):
            if split_name == "train" and not structure.trainable:
                continue
            want = counts.get(structure.name, 0)
            if want <= 0:
                continue
            rng = np.random.default_rng([seed, _SPLIT_STREAM[split_name], struct_idx])
            out[split_name].extend(
                _generate_for_structure(splits, kg, split_name, structure, want, rng, attempts)
            )
    return out


def generate_heldin_queries(
    splits: GraphSplits,
    counts: dict[str, int],
    seed: int,
    attempts: int = DEFAULT_ATTEMPTS,
) -> list[GroundedQuery]:
    """Evaluation queries over all nine structures answered by the train graph.

    No non-trivial filter is applied; useful on graphs without held-out
    edges, where the standard valid/test generation is empty by design.
    """
    queries: list[GroundedQuery] = []
    for struct_idx, structure in enumerate(structure_templates()):
        want = counts.get(structure.name, 0)
        if want <= 0:
            continue
        rng = np.random.default_rng([seed, _SPLIT_STREAM["heldin"], struct_idx])
        queries.extend(
            _generate_for_structure(
                splits, splits.train, "heldin", structure, want, rng, attempts
            )
        )
    return queries


def _generate_for_structure(
    splits: GraphSplits,
    kg: KnowledgeGraph,
    split_name: str,
    structure: QueryStructure,
    want: int,
    rng: np.random.Generator,
    attempts: int,
) -> list[GroundedQuery]:
    # without new edges over the previous snapshot, the non-trivial filter
    # can never pass; skip the doomed retry loop
    if split_name == "valid" and splits.valid.n_edges == splits.train.n_edges:
        warnings.warn(
            f"valid/{structure.name}: the valid graph adds no edges, "
            "so no non-trivial queries exist",
            stacklevel=3,
        )
        return []
    if split_name == "test" and splits.test.n_edges == splits.valid.n_edges:
        warnings.warn(
            f"test/{structure.name}: the test graph adds no edges, "
            "so no non-trivial queries exist",
            stacklevel=3,
        )
        return []
    found: list[GroundedQuery] = []
    seen: set[str] = set()
    budget = want * attempts
    while len(found) < want and budget > 0:
        budget -= 1
        q = try_instantiate(structure, kg, rng)
        if q is None:
            continue
        key = canonical_key(q.graph)
        if key in seen:
            continue
        answers = answer_set(splits, q)
        if split_name == "train" and not answers.train:
            continue
        if split_name == "valid" and not set(answers.valid) - set(answers.train):
            continue
        if split_name == "test" and not set(answers.test) - set(answers.valid):
            continue
        seen.add(key)
        found.append(GroundedQuery(q.graph, q.structure_name, answers))
    if len(found) < want:
        warnings.warn(
            f"{split_name}/{structure.name}: generated {len(found)} of {want} queries "
            f"before exhausting the retry budget",
            stacklevel=2,
        )
    return found


def answer_count_report(queries: list[GroundedQuery]) -> dict[str, float]:
    """Mean number of test-graph answers per structure."""
    totals: dict[str, list[int]] = {}
    for q in queries:
        if q.answers is None:
            raise ValueError("queries must carry answer sets")
        totals.setdefault(q.structure_name, []).append(len(q.answers.test))
    return {name: float(np.mean(counts)) for name, counts in sorted(totals.items())}


def _ids_to_text(ids: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in ids) if ids else "-"


def _ids_from_text(text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    return tuple(int(x) for x in text.split(","))


def write_query_file(path: str | Path, queries: list[GroundedQuery]) -> None:
    """One query per line: structure, graph, and the three answer id lists."""
    with _atomic_open(path) as f:
        for q in queries:
            if q.answers is None:
                raise ValueError("queries must carry answer sets")
            f.write(
                "\t".join(
                    (
                        q.structure_name,
                        graph_to_text(q.graph),
                        _ids_to_text(q.answers.train),
                        _ids_to_text(q.answers.valid),
                        _ids_to_text(q.answers.test),
                    )
                )
                + "\n"
            )


def _check_ids(q: GroundedQuery, vocab: Vocabulary, where: str) -> None:
    # answers nest (train <= valid <= test), so the test set covers all three
    ids = [("anchor entity", n.entity, vocab.n_entities) for n in q.graph.anchors]
    ids += [("relation", e.relation, vocab.n_relations)
            for e in q.graph.edges if e.op == PROJECTION]
    ids += [("answer", a, vocab.n_entities) for a in q.answers.test]
    for kind, value, n in ids:
        if value is None or not 0 <= value < n:
            raise CompatibilityError(
                f"{where}: {kind} id {value} is outside the snapshot's range [0, {n})"
            )


def read_query_file(path: str | Path, vocab: Vocabulary | None = None) -> list[GroundedQuery]:
    """Parse a query file; with `vocab`, every anchor, relation and answer
    id must lie in its range, else CompatibilityError names the line."""
    from .errors import ParseError

    queries = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                name, graph_text, train, valid, test = line.rstrip("\n").split("\t")
                q = GroundedQuery(
                    graph_from_text(graph_text),
                    name,
                    AnswerSet(
                        _ids_from_text(train),
                        _ids_from_text(valid),
                        _ids_from_text(test),
                    ),
                )
            except ValueError as exc:
                raise ParseError(str(exc), str(path), lineno) from exc
            if vocab is not None:
                _check_ids(q, vocab, f"{path}:{lineno}")
            queries.append(q)
    return queries
