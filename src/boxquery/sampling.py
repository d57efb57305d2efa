"""Grounding query templates on a graph and answering them by traversal.

Each structure compiles once into a plan over two id lists, an entity per
node and a relation per edge. An attempt walks the template in pre-order
from the target: the root is drawn uniformly, then each in-edge draws,
uniformly, a relation entering the current entity and a predecessor reaching
it via that relation. Degenerate attempts (an inverse-relation backtrack, or
duplicated (anchor, relation) intersection branches) are rejected and the
rest deduplicated and answered on the lists. A query is its structure name
and the ids bound to the template's slots; no graph is bound to generate it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CompatibilityError, ParseError, SamplingError
from .kg import GraphSplits, KnowledgeGraph, Vocabulary, _atomic_open, _open_text
from .queries import (
    ANCHOR,
    PROJECTION,
    UNION,
    ComputationGraph,
    QueryStructure,
    _in_edge_positions,
    _key_recipe,
    _key_text,
    bind,
    structure_templates,
    template,
)

DEFAULT_ATTEMPTS = 1000

# rng stream labels, combined with the master seed
_SPLIT_STREAM = {"train": 1, "valid": 2, "test": 3, "heldin": 4}


@dataclass(frozen=True)
class AnswerSet:
    """A query's answers as its file stores them, each id once in sorted
    tuples: the train graph's, then those the valid and the test graph add.
    `valid` and `test` are the valid and test graphs' answers, sorted."""

    train: tuple[int, ...]
    valid_added: tuple[int, ...]
    test_added: tuple[int, ...]

    def __post_init__(self):
        lists = (self.train, self.valid_added, self.test_added)
        every = self.train + self.valid_added + self.test_added
        if len(set(every)) < len(every) or any(x != tuple(sorted(x)) for x in lists):
            raise ValueError("the answer id lists must each increase strictly and share no id")

    @property
    def valid(self) -> tuple[int, ...]:
        return tuple(sorted(self.train + self.valid_added))

    @property
    def test(self) -> tuple[int, ...]:
        return tuple(sorted(self.train + self.valid_added + self.test_added))


@dataclass(frozen=True)
class GroundedQuery:
    """`anchors[i]` is the entity bound to anchor slot i of the structure's
    template and `relations[j]` the relation bound to projection slot j."""

    structure_name: str
    anchors: tuple[int, ...]
    relations: tuple[int, ...]
    answers: AnswerSet

    @property
    def graph(self) -> ComputationGraph:
        """The structure's template bound with the slot ids."""
        return bind(template(self.structure_name).graph, self.anchors, self.relations)


class _Plan:
    """A graph's topology compiled once, for queries held as two id lists:
    `ents[i]` binds `graph.nodes[i]` and `rels[i]` binds `graph.edges[i]`."""

    def __init__(self, graph: ComputationGraph):
        self.graph = graph
        nodes, edges = graph.nodes, graph.edges
        pos = {n.id: i for i, n in enumerate(nodes)}
        into = _in_edge_positions(graph)
        self.target = pos[graph.target.id]
        # the positions of the anchor nodes and projection edges, in slot order
        self.anchor_at = [pos[n.id] for n in sorted(graph.anchors, key=lambda n: n.slot)]
        self.relation_at = sorted((i for i, e in enumerate(edges) if e.op == PROJECTION),
                                  key=lambda i: edges[i].slot)
        self.key_recipe = _key_recipe(graph)
        order = graph.topological_order()  # raises on cycles, which the walk cannot end
        # pre-order grounding walk from the target: (node, source, projection
        # edge or None for a union edge)
        self.walk: list[tuple[int, int, int | None]] = []
        stack = [graph.target.id]
        while stack:
            nid = stack.pop()
            for i in into[nid]:
                self.walk.append((pos[nid], pos[edges[i].src], None if edges[i].op == UNION else i))
                if nodes[pos[edges[i].src]].kind != ANCHOR:
                    stack.append(edges[i].src)
        # degeneracies: (earlier, later) projection edges along a path through
        # unions, and the (anchor, edge) branches of multi-projection nodes
        self.backtracks: list[tuple[int, int]] = []
        for later, e in enumerate(edges):
            frontier = [e.src] if e.op == PROJECTION else []
            while frontier:
                for i in into[frontier.pop()]:
                    if edges[i].op == UNION:
                        frontier.append(edges[i].src)
                    else:
                        self.backtracks.append((i, later))
        projections = [[i for i in into[n.id] if edges[i].op == PROJECTION] for n in nodes]
        self.branches = [[(pos[edges[i].src], i) for i in ins
                          if nodes[pos[edges[i].src]].kind == ANCHOR]
                         for ins in projections if len(ins) > 1]
        # answer steps in topological order: (node, union?, ((source, edge), ...))
        self.steps = [(pos[nid], bool(into[nid]) and edges[into[nid][0]].op == UNION,
                       tuple((pos[edges[i].src], i) for i in into[nid])) for nid in order]

    def ground(self, kg: KnowledgeGraph, rng: np.random.Generator, root: int | None = None):
        """One grounding attempt: (ents, rels), or None on a dead end."""
        if kg.n_entities == 0:
            raise SamplingError("cannot instantiate on an empty graph")
        ents: list = [None] * len(self.graph.nodes)
        rels: list = [None] * len(self.graph.edges)
        ents[self.target] = int(rng.integers(kg.n_entities)) if root is None else root
        for node, src, edge in self.walk:
            if ents[src] is not None:  # reached twice: not an in-tree, a dead end
                return None
            if edge is None:
                # parents of a union must each produce the current entity
                ents[src] = ents[node]
                continue
            relations = kg.relations_into(ents[node])
            if not relations:
                return None
            rels[edge] = int(relations[rng.integers(len(relations))])
            heads = kg.sources(ents[node], rels[edge])
            ents[src] = int(heads[rng.integers(len(heads))])
        return ents, rels

    def degeneracies(self, ents: list, rels: list, inverse) -> list[str]:
        """The rejected binding patterns: a relation followed by its inverse
        along one path (union edges are transparent), and two branches of one
        intersection bound to the same (anchor, relation) pair. `inverse(r)`
        is the id of r's inverse relation, or None."""
        found = [f"inverse backtrack: relation {rels[a]} then {rels[b]}"
                 for a, b in self.backtracks if inverse(rels[a]) == rels[b]]
        for branches in self.branches:
            pairs = [(ents[node], rels[edge]) for node, edge in branches]
            found += [f"duplicate intersection branch: anchor {a} relation {r}"
                      for k, (a, r) in enumerate(pairs) if (a, r) in pairs[:k]]
        return found

    def answers(self, kg: KnowledgeGraph, ents: list, rels: list) -> set[int]:
        """Exact denotation set by post-order traversal from the anchors."""
        values: list = [None] * len(ents)
        for node, union, ins in self.steps:
            if not ins:
                if ents[node] is None:
                    raise ValueError(f"source node {self.graph.nodes[node].id} is not an anchor")
                values[node] = {ents[node]}
            elif union:
                values[node] = set().union(*(values[src] for src, _ in ins))
            else:
                result = kg.project_frontier(values[ins[0][0]], rels[ins[0][1]])
                for src, edge in ins[1:]:
                    result &= kg.project_frontier(values[src], rels[edge])
                values[node] = result
        return values[self.target]

    def slots(self, ents: list, rels: list) -> tuple[tuple, tuple]:
        """The ids bound to the anchor slots and to the relation slots."""
        return tuple(ents[i] for i in self.anchor_at), tuple(rels[i] for i in self.relation_at)


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
    counts the rejections and the queries found so far are kept.

    Each (split, structure) pair draws from its own seeded stream.
    """
    return _generate(splits, ("train", "valid", "test"), counts, seed, attempts)


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
    return _generate(splits, ("heldin",), counts, seed, attempts)["heldin"]


def _generate(
    splits: GraphSplits,
    split_names: tuple[str, ...],
    counts: dict[str, int],
    seed: int,
    attempts: int,
) -> dict[str, list[GroundedQuery]]:
    inverse = [splits.train.inverse_relation(r) for r in range(splits.vocab.n_relations)]
    out: dict[str, list[GroundedQuery]] = {name: [] for name in split_names}
    for split_name in split_names:
        for struct_idx, structure in enumerate(structure_templates()):
            want = counts.get(structure.name, 0)
            if want <= 0 or (split_name == "train" and not structure.trainable):
                continue
            rng = np.random.default_rng([seed, _SPLIT_STREAM[split_name], struct_idx])
            out[split_name] += _generate_for_structure(
                splits, split_name, structure, want, rng, attempts, inverse.__getitem__)
    return out


def _generate_for_structure(
    splits: GraphSplits,
    split_name: str,
    structure: QueryStructure,
    want: int,
    rng: np.random.Generator,
    attempts: int,
    inverse,
) -> list[GroundedQuery]:
    # stacklevel=4: warnings name the caller of generate_queries/generate_heldin_queries
    kg = splits.train if split_name == "heldin" else getattr(splits, split_name)
    # without new edges over the previous snapshot, the non-trivial filter
    # can never pass; skip the doomed retry loop
    previous = {"valid": splits.train, "test": splits.valid}.get(split_name)
    if previous is not None and kg.n_edges == previous.n_edges:
        warnings.warn(f"{split_name}/{structure.name}: the {split_name} graph adds no edges, "
                      "so no non-trivial queries exist", stacklevel=4)
        return []
    plan = _Plan(structure.graph)
    strict = {"train": 0, "valid": 1, "test": 2}.get(split_name)
    found: list[GroundedQuery] = []
    seen: set[str] = set()
    rejected = dict.fromkeys(("dead ends", "degenerate", "duplicates", "trivial"), 0)
    tried = 0
    while len(found) < want and tried < want * attempts:
        tried += 1
        ids = plan.ground(kg, rng)
        if ids is None:
            rejected["dead ends"] += 1
        elif plan.degeneracies(*ids, inverse):
            rejected["degenerate"] += 1
        elif (key := _key_text(plan.key_recipe, *ids)) in seen:
            rejected["duplicates"] += 1
        elif (answers := _answer_set(plan, splits, ids, strict)) is None:
            rejected["trivial"] += 1
        else:
            seen.add(key)
            found.append(GroundedQuery(structure.name, *plan.slots(*ids), answers))
    if len(found) < want:
        reasons = ", ".join(f"{n} {reason}" for reason, n in rejected.items())
        warnings.warn(f"{split_name}/{structure.name}: generated {len(found)} of {want} queries "
                      f"before exhausting the retry budget ({tried} attempts: {reasons})",
                      stacklevel=4)
    return found


def _answer_set(plan: _Plan, splits: GraphSplits, ids, strict: int | None = None):
    """The train answers and those the valid and test graphs add, or None
    once graph `strict` adds none, checked before later graphs are traversed."""
    sets: list[set[int]] = [set()]
    for i, kg in enumerate((splits.train, splits.valid, splits.test)):
        sets.append(plan.answers(kg, *ids))
        if i == strict and not sets[-1] - sets[-2]:
            return None
    return AnswerSet(*(tuple(sorted(b - a)) for a, b in zip(sets, sets[1:])))


def answer_count_report(queries: list[GroundedQuery]) -> dict[str, float]:
    """Mean number of test-graph answers per structure."""
    totals: dict[str, list[int]] = {}
    for q in queries:
        a = q.answers
        totals.setdefault(q.structure_name, []).append(len(a.train + a.valid_added + a.test_added))
    return {name: float(np.mean(counts)) for name, counts in sorted(totals.items())}


QUERY_MAGIC = "boxquery-queries v3"

# the anchor and relation slot counts of each structure
_SLOTS = {s.name: (len(s.graph.anchors), sum(e.op == PROJECTION for e in s.graph.edges))
          for s in structure_templates()}


def _ids_to_text(ids) -> str:
    return ",".join(map(str, ids)) if ids else "-"


def _ids_from_text(text: str) -> tuple[int, ...]:
    """The ids of a list exactly as `_ids_to_text` writes them."""
    try:
        ids = () if text == "-" else tuple(map(int, text.split(",")))
        if _ids_to_text(ids) == text:
            return ids
    except ValueError:  # an empty or non-integer id
        pass
    raise ValueError(f"id list {text!r} is not written as comma-separated integers")


def write_query_file(path: str | Path, queries: list[GroundedQuery], splits: GraphSplits) -> None:
    """A header with the format and the snapshot's digest, then one
    record per query: structure, anchor ids, relation ids, the train answers,
    and the answers the valid graph adds and then the test graph adds."""
    with _atomic_open(path) as f:
        f.write(f"{QUERY_MAGIC}\t{splits.digest()}\n")
        for q in queries:
            a = q.answers
            lists = (q.anchors, q.relations, a.train, a.valid_added, a.test_added)
            f.write("\t".join([q.structure_name, *map(_ids_to_text, lists)]) + "\n")


def _check_ids(q: GroundedQuery, vocab: Vocabulary, where: str) -> None:
    a = q.answers
    for kind, ids, n in (("anchor entity", q.anchors, vocab.n_entities),
                         ("relation", q.relations, vocab.n_relations),
                         ("answer", a.train + a.valid_added + a.test_added, vocab.n_entities)):
        for value in ids:
            if not 0 <= value < n:
                raise CompatibilityError(
                    f"{where}: {kind} id {value} is outside the snapshot's range [0, {n})")


def _query_from_record(line: str) -> GroundedQuery:
    """A record's query; ValueError unless the writer could have written it."""
    name, *fields = line.rstrip("\n").split("\t")
    if len(fields) != 5:
        raise ValueError(f"expected 6 tab-separated fields, got {len(fields) + 1}")
    anchors, relations, *answers = map(_ids_from_text, fields)
    if _SLOTS.get(name) != (len(anchors), len(relations)):
        raise ValueError(f"{name!r} is not a query structure with {len(anchors)} anchor "
                         f"and {len(relations)} relation slots")
    return GroundedQuery(name, anchors, relations, AnswerSet(*answers))


def read_query_file(path: str | Path, splits: GraphSplits) -> list[GroundedQuery]:
    """Parse a query file that `write_query_file` wrote for the snapshot
    `splits`. ParseError names the line of a missing header or a malformed
    record. CompatibilityError names the file when its header is another
    snapshot's, and the line when an id lies outside the snapshot's range."""
    queries = []
    with _open_text(path) as f:
        magic, *found = f.readline().rstrip("\n").split("\t")
        if magic != QUERY_MAGIC or len(found) != 1:
            raise ParseError(f"not a {QUERY_MAGIC!r} query file; regenerate it with "
                             "generate-queries", str(path), 1)
        if found != [splits.digest()]:
            raise CompatibilityError(f"{path}: generated from another snapshot "
                                     f"(digest {found[0][:12]})")
        for lineno, line in enumerate(f, start=2):
            try:
                q = _query_from_record(line)
            except ValueError as exc:
                raise ParseError(str(exc), str(path), lineno) from exc
            _check_ids(q, splits.vocab, f"{path}:{lineno}")
            queries.append(q)
    return queries
