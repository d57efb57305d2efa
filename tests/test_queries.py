import pytest

from boxquery.queries import (
    ANCHOR,
    PROJECTION,
    TARGET,
    UNION,
    VARIABLE,
    ComputationGraph,
    Edge,
    Node,
    bind,
    structure_templates,
    template,
    to_dnf,
)

from conftest import random_graph
from oracles import answer_exact, canonical_key, validate_dag


class TestTemplates:
    def test_nine_templates_in_order(self):
        names = [s.name for s in structure_templates()]
        assert names == ["1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u", "up"]

    def test_trainable_flags(self):
        trainable = {s.name for s in structure_templates() if s.trainable}
        assert trainable == {"1p", "2p", "3p", "2i", "3i"}

    def test_2i_shape(self):
        g = template("2i").graph
        assert len(g.anchors) == 2
        target = g.target
        in_es = g.in_edges(target.id)
        assert len(in_es) == 2
        assert all(e.op == PROJECTION for e in in_es)

    def test_3p_is_a_path_of_length_three(self):
        g = template("3p").graph
        assert len(g.nodes) == 4
        assert len(g.edges) == 3
        assert len(g.anchors) == 1
        # single chain: every node has at most one in-edge
        assert all(len(g.in_edges(n.id)) <= 1 for n in g.nodes)

    def test_all_templates_validate(self):
        for s in structure_templates():
            assert validate_dag(s.graph) == []

    def test_unknown_template_rejected(self):
        with pytest.raises(KeyError):
            template("4p")


class TestValidateDag:
    def test_cycle_detected(self):
        g = ComputationGraph(
            (Node(0, VARIABLE), Node(1, TARGET)),
            (Edge(0, 1, PROJECTION, 0), Edge(1, 0, PROJECTION, 1)),
        )
        assert any("acyclic" in v for v in validate_dag(g))

    def test_two_sinks_detected(self):
        g = ComputationGraph(
            (Node(0, ANCHOR, slot=0), Node(1, TARGET), Node(2, TARGET)),
            (Edge(0, 1, PROJECTION, 0), Edge(0, 2, PROJECTION, 1)),
        )
        assert any("sink" in v for v in validate_dag(g))

    def test_mixed_in_edges_detected(self):
        g = ComputationGraph(
            (Node(0, ANCHOR, slot=0), Node(1, ANCHOR, slot=1), Node(2, TARGET)),
            (Edge(0, 2, PROJECTION, 0), Edge(1, 2, UNION)),
        )
        assert any("mixes" in v for v in validate_dag(g))

    def test_single_parent_union_detected(self):
        g = ComputationGraph(
            (Node(0, ANCHOR, slot=0), Node(1, VARIABLE), Node(2, TARGET)),
            (Edge(0, 1, PROJECTION, 0), Edge(1, 2, UNION)),
        )
        assert any("fewer than 2" in v for v in validate_dag(g))

    def test_non_anchor_source_detected(self):
        g = ComputationGraph(
            (Node(0, VARIABLE), Node(1, TARGET)),
            (Edge(0, 1, PROJECTION, 0),),
        )
        assert any("not an anchor" in v for v in validate_dag(g))

    def test_all_violations_reported(self):
        g = ComputationGraph(
            (Node(0, VARIABLE), Node(1, TARGET), Node(2, TARGET)),
            (Edge(0, 1, PROJECTION, 0), Edge(0, 2, UNION)),
        )
        assert len(validate_dag(g)) >= 2


class TestToDnf:
    def test_2u_becomes_two_1p_branches(self):
        branches, n = to_dnf(template("2u").graph)
        assert n == 2
        assert len(branches) == 2
        for b in branches:
            assert validate_dag(b) == []
            assert len(b.edges) == 1
            assert b.edges[0].op == PROJECTION
            assert len(b.anchors) == 1

    def test_up_becomes_two_2p_chains(self):
        branches, n = to_dnf(template("up").graph)
        assert n == 2
        for b in branches:
            assert validate_dag(b) == []
            assert len(b.edges) == 2
            assert len(b.anchors) == 1
            # chain shape: anchor -> variable -> target
            assert all(len(b.in_edges(node.id)) <= 1 for node in b.nodes)

    def test_conjunctive_graph_passes_through(self):
        g = template("3i").graph
        branches, n = to_dnf(g)
        assert n == 1
        assert branches == [g]

    def test_no_union_edges_in_branches(self):
        for s in structure_templates():
            branches, _ = to_dnf(s.graph)
            for b in branches:
                assert all(e.op != UNION for e in b.edges)

    def test_branch_count_is_parent_product(self):
        # two union nodes feeding a final union: 2 * 3 branches
        nodes = (
            Node(0, ANCHOR, slot=0), Node(1, ANCHOR, slot=1), Node(2, ANCHOR, slot=2),
            Node(3, VARIABLE), Node(4, VARIABLE), Node(5, VARIABLE),
            Node(6, VARIABLE), Node(7, VARIABLE),
            Node(8, VARIABLE), Node(9, TARGET),
        )
        edges = (
            Edge(0, 3, PROJECTION, 0), Edge(1, 4, PROJECTION, 1),
            Edge(0, 5, PROJECTION, 2), Edge(1, 6, PROJECTION, 3),
            Edge(2, 7, PROJECTION, 4),
            Edge(3, 8, UNION), Edge(4, 8, UNION),
            Edge(5, 9, UNION), Edge(6, 9, UNION), Edge(7, 9, UNION),
        )
        g = ComputationGraph(nodes, edges)
        # node 8 never reaches node 9 here, so make 8 project into 9's parent 5
        edges = tuple(e for e in edges) + (Edge(8, 5, PROJECTION, 5),)
        g = ComputationGraph(nodes, edges)
        assert validate_dag(g) == []
        branches, n = to_dnf(g)
        assert n == 2 * 3
        assert len(branches) == 6
        for b in branches:
            assert validate_dag(b) == []

    def test_merge_keeps_parent_id(self):
        g = template("2u").graph
        branches, _ = to_dnf(g)
        # parents of the union target are nodes 2 and 3, enumerated in order
        assert branches[0].target.id == 2
        assert branches[1].target.id == 3

    def test_nested_unions_on_one_path(self):
        # (V1 u V2) u V3 through a chained union node: 2 * 2 enumerated
        # branches, each a valid single-hop graph
        nodes = (
            Node(0, ANCHOR, slot=0), Node(1, ANCHOR, slot=1), Node(2, ANCHOR, slot=2),
            Node(3, VARIABLE), Node(4, VARIABLE), Node(5, VARIABLE),
            Node(6, VARIABLE), Node(7, TARGET),
        )
        edges = (
            Edge(0, 3, PROJECTION, 0), Edge(1, 4, PROJECTION, 1),
            Edge(2, 5, PROJECTION, 2),
            Edge(3, 6, UNION), Edge(4, 6, UNION),
            Edge(6, 7, UNION), Edge(5, 7, UNION),
        )
        g = ComputationGraph(nodes, edges)
        assert validate_dag(g) == []
        branches, n = to_dnf(g)
        assert n == 4
        for b in branches:
            assert validate_dag(b) == []
            assert len(b.edges) == 1

    def test_nested_union_semantics(self, rng):
        from boxquery.queries import bind
        from conftest import make_graph

        kg = make_graph(
            [("A", "r", "X"), ("A", "r", "Y"), ("B", "s", "Y"), ("C", "t", "Z")]
        )
        v = kg.vocab
        nodes = (
            Node(0, ANCHOR, slot=0), Node(1, ANCHOR, slot=1), Node(2, ANCHOR, slot=2),
            Node(3, VARIABLE), Node(4, VARIABLE), Node(5, VARIABLE),
            Node(6, VARIABLE), Node(7, TARGET),
        )
        edges = (
            Edge(0, 3, PROJECTION, 0), Edge(1, 4, PROJECTION, 1),
            Edge(2, 5, PROJECTION, 2),
            Edge(3, 6, UNION), Edge(4, 6, UNION),
            Edge(6, 7, UNION), Edge(5, 7, UNION),
        )
        g = bind(
            ComputationGraph(nodes, edges),
            {0: v.entity_id("A"), 1: v.entity_id("B"), 2: v.entity_id("C")},
            {0: v.relation_id("r"), 1: v.relation_id("s"), 2: v.relation_id("t")},
        )
        direct = answer_exact(kg, g)
        assert direct == {v.entity_id("X"), v.entity_id("Y"), v.entity_id("Z")}
        unioned = set()
        for b in to_dnf(g)[0]:
            unioned |= answer_exact(kg, b)
        assert unioned == direct

    def test_dnf_semantic_equivalence(self, rng):
        # union of branch answers equals the direct answer, on random KGs
        from oracles import try_instantiate

        checked = 0
        for trial in range(30):
            kg = random_graph(rng, n_entities=10, n_edges=25)
            for name in ("2u", "up"):
                q = try_instantiate(template(name), kg, rng)
                if q is None:
                    continue
                direct = answer_exact(kg, q)
                branches, _ = to_dnf(q.graph)
                unioned = set()
                for b in branches:
                    unioned |= answer_exact(kg, b)
                assert unioned == direct
                checked += 1
        assert checked > 20


class TestSerialization:
    def test_canonical_key_ignores_branch_order(self):
        g = template("2i").graph
        a = bind(g, {0: 5, 1: 7}, {0: 1, 1: 2})
        b = bind(g, {0: 7, 1: 5}, {0: 2, 1: 1})
        assert canonical_key(a) == canonical_key(b)
        c = bind(g, {0: 5, 1: 7}, {0: 2, 1: 1})
        assert canonical_key(a) != canonical_key(c)
