"""Computation-graph representation of logical queries.

A query is a DAG whose sources are anchor entities and whose unique sink is
the target variable. Edges apply relation projections or set union; a node
with several projection in-edges intersects the projected sets. Templates
carry unbound slots; grounding binds entity ids to anchors and relation ids
to projection edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

ANCHOR = "anchor"
VARIABLE = "variable"
TARGET = "target"

PROJECTION = "projection"
UNION = "union"

STRUCTURE_NAMES = ("1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u", "up")
TRAINABLE_NAMES = ("1p", "2p", "3p", "2i", "3i")


@dataclass(frozen=True)
class Node:
    id: int
    kind: str
    slot: int | None = None  # anchor slot index
    entity: int | None = None  # bound entity id (grounded anchors only)


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    op: str
    slot: int | None = None  # relation slot index (projection edges only)
    relation: int | None = None  # bound relation id


@dataclass(frozen=True)
class ComputationGraph:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    def node(self, node_id: int) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def in_edges(self, node_id: int) -> tuple[Edge, ...]:
        return tuple(sorted((e for e in self.edges if e.dst == node_id), key=lambda e: e.src))

    @property
    def target(self) -> Node:
        targets = [n for n in self.nodes if n.kind == TARGET]
        if len(targets) != 1:
            raise ValueError(f"graph has {len(targets)} target nodes, expected 1")
        return targets[0]

    @property
    def anchors(self) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.kind == ANCHOR)

    def topological_order(self) -> list[int]:
        """Node ids sorted so that every edge goes forward. Raises on cycles."""
        indeg = {n.id: 0 for n in self.nodes}
        for e in self.edges:
            indeg[e.dst] += 1
        ready = sorted(i for i, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            nid = ready.pop(0)
            order.append(nid)
            for e in sorted(self.edges, key=lambda e: e.dst):
                if e.src == nid:
                    indeg[e.dst] -= 1
                    if indeg[e.dst] == 0:
                        ready.append(e.dst)
            ready.sort()
        if len(order) != len(self.nodes):
            raise ValueError("graph contains a cycle")
        return order


@dataclass(frozen=True)
class QueryStructure:
    name: str
    graph: ComputationGraph
    trainable: bool


def _mk(nodes, edges) -> ComputationGraph:
    return ComputationGraph(tuple(nodes), tuple(edges))


def _chain(length: int) -> ComputationGraph:
    nodes = [Node(0, ANCHOR, slot=0)]
    nodes += [Node(i, VARIABLE) for i in range(1, length)]
    nodes.append(Node(length, TARGET))
    edges = [Edge(i, i + 1, PROJECTION, slot=i) for i in range(length)]
    return _mk(nodes, edges)


def _intersection(n_branches: int) -> ComputationGraph:
    nodes = [Node(i, ANCHOR, slot=i) for i in range(n_branches)]
    nodes.append(Node(n_branches, TARGET))
    edges = [Edge(i, n_branches, PROJECTION, slot=i) for i in range(n_branches)]
    return _mk(nodes, edges)


def _ip() -> ComputationGraph:
    nodes = [Node(0, ANCHOR, slot=0), Node(1, ANCHOR, slot=1), Node(2, VARIABLE),
             Node(3, TARGET)]
    edges = [Edge(0, 2, PROJECTION, slot=0), Edge(1, 2, PROJECTION, slot=1),
             Edge(2, 3, PROJECTION, slot=2)]
    return _mk(nodes, edges)


def _pi() -> ComputationGraph:
    nodes = [Node(0, ANCHOR, slot=0), Node(1, VARIABLE), Node(2, ANCHOR, slot=1),
             Node(3, TARGET)]
    edges = [Edge(0, 1, PROJECTION, slot=0), Edge(1, 3, PROJECTION, slot=1),
             Edge(2, 3, PROJECTION, slot=2)]
    return _mk(nodes, edges)


def _2u() -> ComputationGraph:
    nodes = [Node(0, ANCHOR, slot=0), Node(1, ANCHOR, slot=1), Node(2, VARIABLE),
             Node(3, VARIABLE), Node(4, TARGET)]
    edges = [Edge(0, 2, PROJECTION, slot=0), Edge(1, 3, PROJECTION, slot=1),
             Edge(2, 4, UNION), Edge(3, 4, UNION)]
    return _mk(nodes, edges)


def _up() -> ComputationGraph:
    nodes = [Node(0, ANCHOR, slot=0), Node(1, ANCHOR, slot=1), Node(2, VARIABLE),
             Node(3, VARIABLE), Node(4, VARIABLE), Node(5, TARGET)]
    edges = [Edge(0, 2, PROJECTION, slot=0), Edge(1, 3, PROJECTION, slot=1),
             Edge(2, 4, UNION), Edge(3, 4, UNION), Edge(4, 5, PROJECTION, slot=2)]
    return _mk(nodes, edges)


_TEMPLATES = {
    "1p": _chain(1),
    "2p": _chain(2),
    "3p": _chain(3),
    "2i": _intersection(2),
    "3i": _intersection(3),
    "ip": _ip(),
    "pi": _pi(),
    "2u": _2u(),
    "up": _up(),
}


def structure_templates() -> tuple[QueryStructure, ...]:
    """The nine fixed query structures, in canonical order."""
    return tuple(
        QueryStructure(name, _TEMPLATES[name], name in TRAINABLE_NAMES)
        for name in STRUCTURE_NAMES
    )


def template(name: str) -> QueryStructure:
    if name not in _TEMPLATES:
        raise KeyError(f"unknown query structure {name!r}")
    return QueryStructure(name, _TEMPLATES[name], name in TRAINABLE_NAMES)


def bind(
    graph: ComputationGraph,
    anchors: dict[int, int] | tuple[int, ...],
    relations: dict[int, int] | tuple[int, ...],
) -> ComputationGraph:
    """Bind anchor slot s to entity `anchors[s]` and relation slot s to `relations[s]`."""
    nodes = tuple(
        replace(n, entity=anchors[n.slot]) if n.kind == ANCHOR else n for n in graph.nodes
    )
    edges = tuple(
        replace(e, relation=relations[e.slot]) if e.op == PROJECTION else e
        for e in graph.edges
    )
    return ComputationGraph(nodes, edges)


def to_dnf(g: ComputationGraph) -> tuple[list[ComputationGraph], int]:
    """Rewrite an EPFO graph into union-free conjunctive branches.

    For every assignment choosing one parent per union node, union edges are
    removed and each union node is merged into its chosen parent (the parent
    keeps its id); nodes that no longer reach the target are dropped. The
    answer to the original query is the union of the branch answers. Branches
    are enumerated lexicographically over (union node id, parent id).
    """
    union_nodes = sorted(
        {e.dst for e in g.edges if e.op == UNION}
    )
    if not union_nodes:
        return [g], 1
    parents = {
        v: sorted(e.src for e in g.edges if e.op == UNION and e.dst == v) for v in union_nodes
    }
    n_branches = 1
    for v in union_nodes:
        n_branches *= len(parents[v])

    target_id = g.target.id
    branches: list[ComputationGraph] = []
    for choice in itertools.product(*(parents[v] for v in union_nodes)):
        merged = dict(zip(union_nodes, choice))

        def resolve(nid: int) -> int:
            while nid in merged:
                nid = merged[nid]
            return nid

        new_target = resolve(target_id)
        edges = [
            replace(e, src=resolve(e.src), dst=resolve(e.dst))
            for e in g.edges
            if e.op != UNION
        ]
        # keep only nodes that still reach the target
        keep = {new_target}
        frontier = [new_target]
        while frontier:
            nid = frontier.pop()
            for e in edges:
                if e.dst == nid and e.src not in keep:
                    keep.add(e.src)
                    frontier.append(e.src)
        nodes = []
        for n in g.nodes:
            if n.id not in keep:
                continue
            if n.id == new_target:
                nodes.append(replace(n, kind=TARGET))
            elif n.kind == TARGET:
                nodes.append(replace(n, kind=VARIABLE))
            else:
                nodes.append(n)
        branch = ComputationGraph(
            tuple(nodes), tuple(e for e in edges if e.src in keep and e.dst in keep)
        )
        branches.append(branch)
    return branches, n_branches


def _in_edge_positions(g: ComputationGraph) -> dict[int, list[int]]:
    """Each node's in-edges as positions in `g.edges`, in `in_edges` order."""
    into: dict[int, list[int]] = {n.id: [] for n in g.nodes}
    for i in sorted(range(len(g.edges)), key=lambda i: g.edges[i].src):
        into[g.edges[i].dst].append(i)
    return into


def _key_recipe(g: ComputationGraph):
    """The nesting of a query's order-independent key, fixed by the topology: a source
    node as its position in `g.nodes`, another node as ((edge position, or None for
    union, source recipe), ...)."""
    position = {n.id: i for i, n in enumerate(g.nodes)}
    into = _in_edge_positions(g)

    def recipe(nid: int):
        if not into[nid]:
            return position[nid]
        return tuple((i if g.edges[i].op == PROJECTION else None, recipe(g.edges[i].src))
                     for i in into[nid])

    return recipe(g.target.id)


def _key_text(recipe, ents: list, rels: list) -> str:
    """The key of the query that binds node i to `ents[i]` and edge i to `rels[i]`."""
    if isinstance(recipe, int):
        return f"a{ents[recipe]}"
    return "&".join(sorted((f"p{rels[edge]}" if edge is not None else "u")
                           + f"({_key_text(src, ents, rels)})" for edge, src in recipe))


def graph_to_text(g: ComputationGraph) -> str:
    """Compact single-line serialization, deterministic for equal graphs."""
    node_parts = []
    for n in sorted(g.nodes, key=lambda n: n.id):
        if n.kind == ANCHOR:
            ent = "-" if n.entity is None else str(n.entity)
            node_parts.append(f"{n.id}:a:{n.slot}:{ent}")
        elif n.kind == VARIABLE:
            node_parts.append(f"{n.id}:v")
        else:
            node_parts.append(f"{n.id}:t")
    edge_parts = []
    for e in sorted(g.edges, key=lambda e: (e.src, e.dst, e.slot if e.slot is not None else -1)):
        if e.op == PROJECTION:
            rel = "-" if e.relation is None else str(e.relation)
            edge_parts.append(f"{e.src}-{e.dst}:p:{e.slot}:{rel}")
        else:
            edge_parts.append(f"{e.src}-{e.dst}:u")
    return ",".join(node_parts) + ";" + ",".join(edge_parts)
