import hashlib
import warnings
from collections import Counter

import numpy as np
import pytest

from boxquery.errors import CompatibilityError, ParseError, SamplingError
from boxquery.queries import (
    STRUCTURE_NAMES,
    TRAINABLE_NAMES,
    ComputationGraph,
    _key_text,
    bind,
    graph_to_text,
    structure_templates,
    template,
)
from boxquery.sampling import (
    AnswerSet,
    GroundedQuery,
    _answer_set,
    _Plan,
    answer_count_report,
    generate_heldin_queries,
    generate_queries,
    read_query_file,
    write_query_file,
)
from boxquery.synth import synthesize_triples

from conftest import make_graph, make_splits, random_graph
from oracles import (
    answer_by_assignment_enumeration,
    answer_by_satisfiability,
    answer_exact,
    answer_set,
    answer_set_on_graph,
    canonical_key,
    canonical_key_on_graph,
    degeneracies,
    degeneracies_on_graph,
    instantiate,
    is_grounded,
    try_instantiate,
    try_instantiate_on_graph,
    validate_dag,
)


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
                q = try_instantiate(s, kg, rng)
                if q is None:
                    continue
                assert is_grounded(q.graph)
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
        from oracles import validate_dag

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
        from oracles import canonical_key

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
        q = GroundedQuery("1p", (0,), (0,), AnswerSet((1,), (1, 2), (1, 2, 3)))
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
    @pytest.mark.parametrize("record, error", [
        ("1p\t0\t1\t3,03,+1\t-\t-\n", ParseError),
        ("1p\t0\t1\t 3,3,1\t-\t-\n", ParseError),
        ("1p\t0\t1\t1,1\t-\t-\n", ParseError),
        ("1p\t0\t1\t3,1\t-\t-\n", ParseError),
        ("1p\t0\t1\t1,3\t3\t-\n", ParseError),
        ("1p\t0\t1\t\t-\t-\n", ParseError),
        ("1p\t0\t1\t1,,3\t-\t-\n", ParseError),
        ("2i\t0\t1\t-\t-\t-\n", ParseError),
        ("zz\t0\t1\t-\t-\t-\n", ParseError),
        ("1p\t0\t1\t-\t-\n", ParseError),
        ("1p\t0\t1\t-\t-\t-\t-\n", ParseError),
        # `-1` is written as `str` writes it; like any id outside the snapshot
        # it is a CompatibilityError (exit 2), as TestQueryFileIds pins
        ("1p\t-1\t1\t-\t-\t-\n", CompatibilityError),
        ("1p\t0\t1\t-\t-\t-1\n", CompatibilityError),
    ], ids=["padded-and-signed", "spaced-duplicate", "duplicate", "unsorted",
            "valid-adds-a-train-answer", "empty-field", "empty-id", "slot-count",
            "unknown-structure", "five-fields", "seven-fields", "negative-anchor",
            "negative-answer"])
    def test_malformed_line_reports_location(self, tmp_path, record, error):
        splits = make_splits([("A", "r", "B"), ("B", "s", "C"), ("C", "r", "D")])
        path = tmp_path / "bad.txt"
        write_query_file(path, [], splits)
        with open(path, "a", encoding="utf-8") as f:
            f.write(record)
        with pytest.raises(error, match="bad.txt:2"):
            read_query_file(path, splits)

    @pytest.mark.parametrize("triples, other", [
        ([("A", "r", "B"), ("B", "s", "C")], [("A", "r", "B"), ("B", "t", "C")]),
        # the same entity and relation names: only the edges differ, and
        # (A, r^-1) answers C in the first snapshot alone
        ([("A", "r", "B"), ("B", "s", "C"), ("C", "r", "A")],
         [("A", "r", "B"), ("B", "s", "C"), ("C", "s", "A")]),
    ], ids=["relation-names", "edges"])
    def test_header_binds_the_snapshot(self, tmp_path, triples, other):
        splits, other = make_splits(triples), make_splits(other)
        path = tmp_path / "q.txt"
        write_query_file(path, generate_heldin_queries(splits, {"1p": 2}, seed=1), splits)
        with pytest.raises(CompatibilityError, match="q.txt: generated from another snapshot"):
            read_query_file(path, other)

    @pytest.mark.parametrize("text", [
        "", "1p\t0:a:0:0,1:t;0-1:p:0:1\t1\t1\t1\n", "boxquery-queries v1\tx\ty\n",
        # the vocabulary-hash header of the format before the snapshot digest
        "boxquery-queries v2\t{entities}\t{relations}\n1p\t0\t0\t1\t-\t-\n",
    ], ids=["empty", "graph-text", "v1", "v2"])
    def test_file_without_header_asks_to_regenerate(self, tmp_path, text):
        splits = make_splits([("A", "r", "B")])
        vocab = splits.vocab
        path = tmp_path / "q.txt"
        path.write_text(text.format(entities=vocab.entity_hash(), relations=vocab.relation_hash()),
                        encoding="utf-8")
        with pytest.raises(ParseError, match="q.txt:1: .*regenerate"):
            read_query_file(path, splits)

    @pytest.mark.parametrize("split", ["train", "valid", "test", "heldin"])
    def test_round_trip(self, tmp_path, split):
        splits = _held_out_splits(np.random.default_rng(5), 14, 3, 60)
        counts = dict.fromkeys(STRUCTURE_NAMES, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = generate_queries(splits, counts, seed=4)
        out["heldin"] = generate_heldin_queries(splits, counts, seed=4)
        queries = out[split]
        assert {q.structure_name for q in queries} == set(
            TRAINABLE_NAMES if split == "train" else STRUCTURE_NAMES)
        path = tmp_path / "queries.txt"
        write_query_file(path, queries, splits)
        assert read_query_file(path, splits) == queries
        # every answer is written once: the three answer lists partition the test set
        records = path.read_text(encoding="utf-8").splitlines()[1:]
        for q, record in zip(queries, records, strict=True):
            lists = [f.split(",") for f in record.split("\t")[3:] if f != "-"]
            assert sorted(int(i) for ids in lists for i in ids) == list(q.answers.test)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        # the serializer raises part-way, at a query without answer sets
        import dataclasses

        splits = make_splits([("A", "r", "B"), ("B", "s", "C"), ("C", "r", "A")])
        queries = generate_heldin_queries(splits, {"1p": 3, "2p": 3}, seed=4)
        path = tmp_path / "queries.txt"
        write_query_file(path, queries, splits)
        before = path.read_bytes()
        broken = queries + [dataclasses.replace(queries[0], answers=None)]
        with pytest.raises(ValueError, match="answer sets"):
            write_query_file(path, broken, splits)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["queries.txt"]


def _held_out_splits(rng, n_entities, n_relations, n_triples, zipf_exponent=0.0):
    """Random triples, entities drawn with Zipf weights (uniform at exponent
    0); the last tenth is held out as valid and test extras."""
    weights = 1.0 / np.arange(1, n_entities + 1) ** zipf_exponent
    p = weights / weights.sum()
    triples = sorted({(f"e{rng.choice(n_entities, p=p)}", f"r{rng.integers(n_relations)}",
                       f"e{rng.choice(n_entities, p=p)}") for _ in range(n_triples)})
    held = len(triples) // 20
    return make_splits(triples[:-2 * held], valid_extra=triples[-2 * held:-held],
                       test_extra=triples[-held:])


class TestPlanMatchesGraphWalk:
    """The slot plans against the graph-walking grounding, degeneracy check,
    traversal and key they replaced, attempt by attempt."""

    @pytest.mark.parametrize("seed, zipf_exponent", [(1, 0.0), (2, 0.0), (3, 1.0)],
                             ids=["random-1", "random-2", "zipf"])
    def test_same_queries_draws_answers_and_keys(self, seed, zipf_exponent):
        splits = _held_out_splits(np.random.default_rng(seed), 14, 3, 60, zipf_exponent)
        kg = splits.test
        for idx, s in enumerate(structure_templates()):
            plan = _Plan(s.graph)
            rngs = [np.random.default_rng([seed, idx]) for _ in range(3)]
            accepted = 0
            for _ in range(200):
                q = try_instantiate(s, kg, rngs[0])
                expected = try_instantiate_on_graph(s, kg, rngs[1])
                ids = plan.ground(kg, rngs[2])
                states = [r.bit_generator.state for r in rngs]
                assert states[0] == states[1] == states[2]
                if ids is not None:
                    bound = GroundedQuery(s.name, *plan.slots(*ids)).graph
                    assert degeneracies(bound, kg) == degeneracies_on_graph(bound, kg)
                if expected is None:
                    assert q is None
                    continue
                accepted += 1
                assert graph_to_text(q.graph) == graph_to_text(expected.graph)
                answers = answer_set_on_graph(splits, expected)
                assert answer_set(splits, q) == answers == _answer_set(plan, splits, ids)
                key = canonical_key_on_graph(expected.graph)
                assert _key_text(plan.key_recipe, *ids) == canonical_key(q.graph) == key
            assert accepted > 0, s.name

    def test_degenerate_groundings_match(self):
        # on a chain, 2p and up groundings often backtrack and every 3i
        # grounding repeats a branch
        kg = make_splits(synthesize_triples("chain", 8)).train
        for name in ("2p", "up", "3i"):
            plan = _Plan(template(name).graph)
            rng = np.random.default_rng(4)
            messages = []
            for _ in range(30):
                bound = GroundedQuery(name, *plan.slots(*plan.ground(kg, rng))).graph
                messages += degeneracies(bound, kg)
                assert degeneracies(bound, kg) == degeneracies_on_graph(bound, kg)
            assert messages, name


class TestOracleEntryPointsRunThePlan:
    def test_single_query_calls_reach_the_plan(self, monkeypatch, rng):
        # the single-query entry points of the oracles module drive the
        # program's plan; one that walked the graph itself would count nothing
        calls = Counter()
        for name in ("ground", "degeneracies", "answers"):
            def counted(self, *args, _name=name, _method=getattr(_Plan, name)):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(_Plan, name, counted)
        splits = _held_out_splits(np.random.default_rng(5), 14, 3, 60)
        q = None
        while q is None:
            calls.clear()
            q = try_instantiate(template("2i"), splits.test, rng)
        assert calls == {"ground": 1, "degeneracies": 1}
        calls.clear()
        assert degeneracies(q.graph, splits.test) == []
        assert calls == {"degeneracies": 1}
        calls.clear()
        answers = answer_exact(splits.test, q)
        assert calls == {"answers": 1}
        calls.clear()
        assert set(answer_set(splits, q).test) == answers
        assert calls == {"answers": 3}


class TestGenerationWork:
    def test_graph_methods_do_not_scale_with_counts(self, monkeypatch):
        # topology is compiled once per structure; attempts work on id lists
        calls = Counter()
        for name in ("in_edges", "topological_order"):
            def counted(self, *args, _name=name, _method=getattr(ComputationGraph, name)):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(ComputationGraph, name, counted)
        splits = _held_out_splits(np.random.default_rng(5), 14, 3, 60)
        seen = []
        for count in (3, 30):
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = generate_queries(splits, {n: count for n in STRUCTURE_NAMES}, seed=1,
                                       attempts=20)
            assert sum(len(v) for v in out.values()) > 3 * len(STRUCTURE_NAMES)
            seen.append(dict(calls))
        assert seen[0] == seen[1]

    def test_accepted_queries_bind_no_graph(self, monkeypatch):
        # generation holds a query as its slot ids; no template is bound
        import boxquery.queries
        import boxquery.sampling

        calls = []
        original = boxquery.queries.bind

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(boxquery.sampling, "bind", counting)
        monkeypatch.setattr(boxquery.queries, "bind", counting)
        splits = _held_out_splits(np.random.default_rng(5), 14, 3, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = generate_queries(splits, {n: 3 for n in STRUCTURE_NAMES}, seed=1, attempts=20)
        assert sum(len(v) for v in out.values()) > 3 * len(STRUCTURE_NAMES)
        assert calls == []

    def test_query_files_are_pinned(self, tmp_path):
        # `content` hashes the queries read back from the train, valid, test
        # and heldin files: split, structure, slot ids and the three answer
        # sets. Its value was recorded from the graph-text files of the
        # generator that the slot plans replaced; `files` pins the bytes of
        # the files with slot-id records under the snapshot-digest header
        rng = np.random.default_rng(5)
        triples = sorted({(f"e{rng.integers(20)}", f"r{rng.integers(4)}", f"e{rng.integers(20)}")
                          for _ in range(80)})
        splits = make_splits(triples[:60], valid_extra=triples[60:68], test_extra=triples[68:])
        counts = {name: 4 for name in STRUCTURE_NAMES}
        out = generate_queries(splits, counts, seed=13, attempts=40)
        out["heldin"] = generate_heldin_queries(splits, counts, seed=13, attempts=40)
        files, content = hashlib.sha256(), hashlib.sha256()
        for name in ("train", "valid", "test", "heldin"):
            write_query_file(tmp_path / name, out[name], splits)
            files.update((tmp_path / name).read_bytes())
            for q in read_query_file(tmp_path / name, splits):
                a = q.answers
                fields = (q.anchors, q.relations, a.train, a.valid, a.test)
                content.update(f"{name}\t{q.structure_name}\t{fields}\n".encode())
        assert [len(out[n]) for n in ("train", "valid", "test", "heldin")] == [20, 36, 36, 36]
        assert content.hexdigest() == (
            "a9f5178a67307818b747e9b2459f122241295537e9e26c68e313026a9719692a")
        assert files.hexdigest() == (
            "a3e9fe8e4c3b27641c06a2e105b816d84299003456c8a6f27627309b4901478b")

    def test_shortfall_warning_counts_rejections_at_the_caller(self):
        # on a chain every entity has at most two (anchor, relation) in-branches,
        # so every 3i grounding repeats one
        splits = make_splits(synthesize_triples("chain", 12))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            generate_queries(splits, {"3i": 3}, seed=1, attempts=10)
            generate_heldin_queries(splits, {"3i": 3}, seed=1, attempts=10)
        assert {w.filename for w in caught} == {__file__}
        assert [str(w.message) for w in caught] == [
            "train/3i: generated 0 of 3 queries before exhausting the retry budget "
            "(30 attempts: 0 dead ends, 30 degenerate, 0 duplicates, 0 trivial)",
            "valid/3i: the valid graph adds no edges, so no non-trivial queries exist",
            "test/3i: the test graph adds no edges, so no non-trivial queries exist",
            "heldin/3i: generated 0 of 3 queries before exhausting the retry budget "
            "(30 attempts: 0 dead ends, 30 degenerate, 0 duplicates, 0 trivial)",
        ]
