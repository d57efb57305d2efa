import warnings

import pytest

from boxquery.errors import SamplingError
from boxquery.queries import bind, template, structure_templates, validate_dag
from boxquery.sampling import (
    AnswerSet,
    GroundedQuery,
    answer_count_report,
    answer_exact,
    answer_set,
    degeneracies,
    generate_heldin_queries,
    generate_queries,
    instantiate,
    read_query_file,
    try_instantiate,
    write_query_file,
)

from conftest import make_graph, make_splits, random_graph
from oracles import answer_by_assignment_enumeration, answer_by_satisfiability


class TestInstantiate:
    def test_chain_has_unique_assignment(self, rng):
        kg = make_graph([("A", "r", "B"), ("B", "s", "C")])
        c = kg.vocab.entity_id("C")
        q = try_instantiate(template("2p"), kg, rng, root=c)
        assert q is not None
        anchor = q.graph.anchors[0]
        assert anchor.entity == kg.vocab.entity_id("A")
        rels = {e.slot: e.relation for e in q.graph.edges}
        assert rels == {0: kg.vocab.relation_id("r"), 1: kg.vocab.relation_id("s")}

    def test_inverse_backtrack_rejected(self, rng):
        kg = make_graph([("A", "r", "B")], augment=True)
        a = kg.vocab.entity_id("A")
        for _ in range(20):
            assert try_instantiate(template("2p"), kg, rng, root=a) is None

    def test_duplicate_intersection_branch_rejected(self, rng):
        kg = make_graph([("A", "r", "B")], augment=True)
        b = kg.vocab.entity_id("B")
        for _ in range(20):
            assert try_instantiate(template("2i"), kg, rng, root=b) is None

    def test_dead_end_rejected(self, rng):
        # B has no in-edges beyond r, and A has none at all
        kg = make_graph([("A", "r", "B")])
        a = kg.vocab.entity_id("A")
        assert try_instantiate(template("1p"), kg, rng, root=a) is None

    def test_retry_budget_exhaustion_raises(self, rng):
        kg = make_graph([("A", "r", "B")], augment=True)
        with pytest.raises(SamplingError):
            instantiate(template("3i"), kg, rng, attempts=50)

    def test_instantiated_queries_are_valid_and_clean(self, rng):
        kg = random_graph(rng, n_entities=15, n_edges=60)
        for s in structure_templates():
            for _ in range(5):
                q = try_instantiate(s.graph and s, kg, rng)
                if q is None:
                    continue
                assert q.graph.is_grounded()
                assert validate_dag(q.graph) == []
                assert degeneracies(q.graph, kg) == []

    def test_root_is_always_an_answer(self, rng):
        kg = random_graph(rng, n_entities=15, n_edges=60)
        for s in structure_templates():
            for _ in range(10):
                root = int(rng.integers(kg.n_entities))
                q = try_instantiate(s, kg, rng, root=root)
                if q is not None:
                    assert root in answer_exact(kg, q)


class TestAnswerExact:
    def graph_abc(self):
        return make_graph([("A", "r", "B"), ("A", "r", "C"), ("D", "s", "C"),
                           ("E", "t", "E")])

    def test_2i_hand_example(self):
        kg = self.graph_abc()
        v = kg.vocab
        g = bind(template("2i").graph, {0: v.entity_id("A"), 1: v.entity_id("D")},
                 {0: v.relation_id("r"), 1: v.relation_id("s")})
        assert answer_exact(kg, g) == {v.entity_id("C")}

    def test_2u_hand_example(self):
        kg = self.graph_abc()
        v = kg.vocab
        g = bind(template("2u").graph, {0: v.entity_id("A"), 1: v.entity_id("D")},
                 {0: v.relation_id("r"), 1: v.relation_id("s")})
        assert answer_exact(kg, g) == {v.entity_id("B"), v.entity_id("C")}

    def test_empty_projection(self):
        kg = self.graph_abc()
        v = kg.vocab
        g = bind(template("1p").graph, {0: v.entity_id("A")}, {0: v.relation_id("t")})
        assert answer_exact(kg, g) == set()

    def test_matches_satisfiability_oracle_all_structures(self, rng):
        checked = {s.name: 0 for s in structure_templates()}
        for _ in range(40):
            kg = random_graph(rng, n_entities=12, n_edges=45)
            for s in structure_templates():
                q = try_instantiate(s, kg, rng)
                if q is None:
                    continue
                assert answer_exact(kg, q) == answer_by_satisfiability(kg, q)
                checked[s.name] += 1
        assert all(n > 0 for n in checked.values()), checked

    def test_matches_assignment_enumeration_on_conjunctive(self, rng):
        for _ in range(20):
            kg = random_graph(rng, n_entities=10, n_edges=35)
            for name in ("1p", "2p", "3p", "2i", "3i", "ip", "pi"):
                q = try_instantiate(template(name), kg, rng)
                if q is None:
                    continue
                assert answer_exact(kg, q) == answer_by_assignment_enumeration(kg, q)

    def test_parallel_edges_intersect(self):
        # one anchor, two projection edges into the target: the target set is
        # the intersection of both projections
        from boxquery.queries import ComputationGraph, Edge, Node, ANCHOR, TARGET, PROJECTION

        kg = make_graph([("A", "r", "B"), ("A", "r", "C"), ("A", "s", "C")])
        v = kg.vocab
        g = ComputationGraph(
            (Node(0, ANCHOR, slot=0, entity=v.entity_id("A")), Node(1, TARGET)),
            (
                Edge(0, 1, PROJECTION, slot=0, relation=v.relation_id("r")),
                Edge(0, 1, PROJECTION, slot=1, relation=v.relation_id("s")),
            ),
        )
        from boxquery.queries import validate_dag

        assert validate_dag(g) == []
        assert answer_exact(kg, g) == {v.entity_id("C")}
        assert answer_by_satisfiability(kg, g) == {v.entity_id("C")}

    def test_monotone_over_splits(self, rng):
        splits = make_splits(
            [("A", "r", "B"), ("B", "s", "C"), ("C", "r", "D"), ("D", "s", "A")],
            valid_extra=[("A", "r", "C")],
            test_extra=[("B", "s", "D")],
        )
        for s in structure_templates():
            for _ in range(10):
                q = try_instantiate(s, splits.test, rng)
                if q is None:
                    continue
                ans = answer_set(splits, q)
                assert set(ans.train) <= set(ans.valid) <= set(ans.test)


class TestGenerateQueries:
    def small_splits(self):
        return make_splits(
            [("A", "r", "B"), ("B", "s", "C"), ("C", "r", "D"), ("D", "s", "A"),
             ("A", "s", "C"), ("B", "r", "D")],
            valid_extra=[("A", "r", "C")],
            test_extra=[("C", "s", "B")],
        )

    def test_no_new_edges_means_no_valid_queries(self):
        splits = make_splits([("A", "r", "B"), ("B", "s", "C")])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = generate_queries(splits, {"1p": 5}, seed=1, attempts=30)
        assert out["valid"] == []
        assert out["test"] == []

    def test_filters_hold_on_emitted_queries(self):
        splits = self.small_splits()
        counts = {name: 3 for name in ("1p", "2p", "2i", "2u", "up")}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = generate_queries(splits, counts, seed=5, attempts=200)
        assert out["train"], "expected some training queries"
        for q in out["train"]:
            assert q.answers.train
            # oracle recheck against the stored sets
            assert set(q.answers.train) == answer_exact(splits.train, q)
        for q in out["valid"]:
            assert set(q.answers.valid) - set(q.answers.train)
        for q in out["test"]:
            assert set(q.answers.test) - set(q.answers.valid)
            assert set(q.answers.test) == answer_exact(splits.test, q)

    def test_deduplication_within_structure(self):
        splits = self.small_splits()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = generate_queries(splits, {"1p": 50}, seed=2, attempts=50)
        from boxquery.queries import canonical_key

        keys = [canonical_key(q.graph) for q in out["train"]]
        assert len(keys) == len(set(keys))

    def test_budget_exhaustion_warns_and_keeps_partial(self):
        splits = make_splits([("A", "r", "B"), ("B", "s", "C")])
        with pytest.warns(UserWarning, match="1p"):
            out = generate_queries(splits, {"1p": 1000}, seed=1, attempts=2)
        assert len(out["train"]) < 1000

    def test_heldin_generation_covers_all_structures(self):
        splits = self.small_splits()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            queries = generate_heldin_queries(splits, {s.name: 2 for s in structure_templates()}, seed=3)
        names = {q.structure_name for q in queries}
        assert "ip" in names and "2u" in names
        for q in queries:
            assert q.answers.train


class TestAnswerCountReport:
    def test_single_query_mean(self):
        q = GroundedQuery(
            bind(template("1p").graph, {0: 0}, {0: 0}), "1p", AnswerSet((1,), (1, 2), (1, 2, 3))
        )
        assert answer_count_report([q]) == {"1p": 3.0}

    def test_bijective_graph_means_are_one(self, rng):
        # one-relation cycle: every relation is a bijection
        n = 8
        triples = [(f"e{i}", "next", f"e{(i + 1) % n}") for i in range(n)]
        triples += [(f"e{i}", "jump", f"e{(i + 3) % n}") for i in range(n)]
        splits = make_splits(triples)
        queries = generate_heldin_queries(
            splits, {name: 4 for name in ("1p", "2p", "3p", "2i", "3i", "ip", "pi")}, seed=11
        )
        report = answer_count_report(
            [q for q in queries if q.structure_name not in ("2u", "up")]
        )
        for name, mean in report.items():
            assert mean == 1.0, (name, mean)


class TestQueryFiles:
    def test_malformed_line_reports_location(self, tmp_path):
        from boxquery.errors import ParseError

        path = tmp_path / "bad.txt"
        path.write_text("1p\tnot-a-graph\t-\t-\t-\n", encoding="utf-8")
        with pytest.raises(ParseError, match="bad.txt:1"):
            read_query_file(path)

    def test_round_trip(self, rng, tmp_path):
        splits = make_splits(
            [("A", "r", "B"), ("B", "s", "C"), ("C", "r", "D"), ("D", "s", "A")]
        )
        queries = generate_heldin_queries(
            splits, {name: 3 for name in ("1p", "2p", "2i", "2u", "up")}, seed=4
        )
        assert queries
        path = tmp_path / "queries.txt"
        write_query_file(path, queries)
        back = read_query_file(path)
        assert back == queries

    def test_failed_write_keeps_previous_file(self, tmp_path):
        # the serializer raises part-way, at a query without answer sets
        import dataclasses

        splits = make_splits([("A", "r", "B"), ("B", "s", "C"), ("C", "r", "A")])
        queries = generate_heldin_queries(splits, {"1p": 3, "2p": 3}, seed=4)
        path = tmp_path / "queries.txt"
        write_query_file(path, queries)
        before = path.read_bytes()
        broken = queries + [dataclasses.replace(queries[0], answers=None)]
        with pytest.raises(ValueError, match="answer sets"):
            write_query_file(path, broken)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["queries.txt"]
