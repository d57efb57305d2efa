"""Output checks whose failures make up the result's `failed` count.

The answer-set oracle is written here on purpose: it reads the raw triple
files and walks the query graph itself, so a bug shared by the program's
graph index and its `answer_exact` cannot hide.
"""

from __future__ import annotations

import math
from pathlib import Path

INVERSE = "^-1"
LEVELS = ("train", "valid", "test")


class Checks:
    """Counts attempted and failed checks, keeping a few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, message: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(message)


class TripleOracle:
    """Name-level adjacency of the raw files; each edge remembers the first
    snapshot (0 train, 1 valid, 2 test) that contains it."""

    def __init__(self, paths: dict[str, Path]) -> None:
        self.out: dict[tuple[str, str], dict[str, int]] = {}
        for level, split in enumerate(LEVELS):
            with open(paths[split], encoding="utf-8") as f:
                for line in f:
                    h, r, t = line.rstrip("\n").split("\t")
                    self._add(h, r, t, level)
                    self._add(t, r + INVERSE, h, level)

    def _add(self, h: str, r: str, t: str, level: int) -> None:
        tails = self.out.setdefault((h, r), {})
        tails[t] = min(level, tails.get(t, level))

    def answers(self, graph, entity_names, relation_names, level: int) -> set[str]:
        """Denotation of a grounded query graph on snapshot `level`."""
        nodes = {n.id: n for n in graph.nodes}
        into: dict[int, list] = {}
        for e in graph.edges:
            into.setdefault(e.dst, []).append(e)

        def value(nid: int) -> set[str]:
            edges = into.get(nid)
            if not edges:
                return {entity_names[nodes[nid].entity]}
            if edges[0].op == "union":
                return set().union(*(value(e.src) for e in edges))
            result = None
            for e in edges:
                rel = relation_names[e.relation]
                step = {
                    t
                    for v in value(e.src)
                    for t, first in self.out.get((v, rel), {}).items()
                    if first <= level
                }
                result = step if result is None else result & step
            return result

        target = next(n.id for n in graph.nodes if n.kind == "target")
        return value(target)


def check_generation(checks: Checks, queries, counts: dict[str, int], trainable) -> None:
    """Each (split, structure) pair got the count it asked for."""
    for split, qs in queries.items():
        got: dict[str, int] = {}
        for q in qs:
            got[q.structure_name] = got.get(q.structure_name, 0) + 1
        for name, want in counts.items():
            if split == "train" and name not in trainable:
                continue
            short = max(0, want - got.get(name, 0))
            checks.add(want, short, f"{split}/{name}: {got.get(name, 0)} of {want} queries")


def check_answers(checks: Checks, oracle: TripleOracle, queries, vocab, per_pair: int) -> None:
    """Answer sets of the first `per_pair` queries of each (split, structure)
    pair equal the oracle's traversal on all three snapshots."""
    ents, rels = vocab.entity_names, vocab.relation_names
    for split, qs in queries.items():
        taken: dict[str, int] = {}
        for q in qs:
            if taken.get(q.structure_name, 0) >= per_pair:
                continue
            taken[q.structure_name] = taken.get(q.structure_name, 0) + 1
            stored = (q.answers.train, q.answers.valid, q.answers.test)
            bad = sum(
                {ents[i] for i in ids} != oracle.answers(q.graph, ents, rels, level)
                for level, ids in enumerate(stored)
            )
            checks.add(1, int(bad > 0), f"{split}/{q.structure_name}: answer set mismatch")


def check_training(checks: Checks, steps: list[tuple], want: int) -> None:
    """Every step's loss is finite, and training lowered the loss.

    `steps` holds one (round, samples, seconds, loss) row per step."""
    checks.add(1, int(len(steps) != want), f"trained {len(steps)} of {want} steps")
    for i, (_, _, _, loss) in enumerate(steps, start=1):
        checks.add(1, int(not math.isfinite(loss)), f"step {i}: non-finite loss {loss}")
    checks.add(1, int(not steps[-1][3] < steps[0][3]),
               f"loss did not fall: {steps[0][3]} -> {steps[-1][3]}")


def check_report(checks: Checks, report, test_queries) -> None:
    """One row per evaluated structure, with its query count and an MRR
    in (0, 1]."""
    want: dict[str, int] = {}
    for q in test_queries:
        want[q.structure_name] = want.get(q.structure_name, 0) + 1
    for name, count in want.items():
        row = report.structures.get(name)
        ok = row is not None and row["count"] == count and 0.0 < row["mrr"] <= 1.0
        checks.add(1, int(not ok), f"eval row {name}: {row}")
    checks.add(1, int(set(report.structures) != set(want)), "eval rows for unknown structures")
    mrr = report.overall["mrr"]
    checks.add(1, int(not 0.0 < mrr <= 1.0), f"overall MRR {mrr} outside (0, 1]")
