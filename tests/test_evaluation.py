import tracemalloc
import warnings

import numpy as np
import pytest

from boxquery import evaluation, geometry
from boxquery.evaluation import (
    _chunk_distances,
    _filtered_ranks,
    _ranks,
    _stage_answers,
    aggregate,
    count_disjoint_queries,
    entity_distances,
    metrics_for_query,
    offset_report,
    spearman,
)
from boxquery.model import ModelConfig, ModelParams
from boxquery.queries import STRUCTURE_NAMES
from boxquery.sampling import AnswerSet, GroundedQuery, generate_queries
from boxquery.training import batch_loss_and_grads

from conftest import make_graph, make_splits
from gradcheck import MODE_GRID
from oracles import aggregate_per_query, rank_entity, rank_per_answer


def line_world(positions, test_answers, train_answers=()):
    """d=1 point-mode fixture whose query-to-entity distances are |position|.

    Entities sit at the given coordinates; the single query is a 1p whose
    box center lands at 0, so ranks are fully hand-controlled.
    """
    n = len(positions)
    ring = [(f"e{i}", "z", f"e{(i + 1) % n}") for i in range(n)]
    ring.append(("e0", "r", "e1"))
    splits = make_splits(ring)
    v = splits.vocab
    config = ModelConfig(dim=1, gamma=2.0, negatives=1, geometry="point", seed=0)
    params = ModelParams(config, splits.train.n_entities, splits.train.n_relations)
    for i, pos in enumerate(positions):
        params.tensors["entity"][v.entity_id(f"e{i}")] = pos
    rid = v.relation_id("r")
    anchor = v.entity_id("e0")
    params.tensors["relation_center"][rid] = -positions[0]
    answers = AnswerSet(
        tuple(sorted(v.entity_id(e) for e in train_answers)),
        tuple(sorted(v.entity_id(e) for e in train_answers)),
        tuple(sorted(v.entity_id(e) for e in test_answers)),
    )
    q = GroundedQuery("1p", (anchor,), (rid,), answers)
    return splits, params, q, v


class TestRankEntity:
    def test_unique_minimum_is_rank_one(self):
        splits, params, q, v = line_world([10, 1, 2, 3, 0.5], ["e4"])
        assert rank_entity(v.entity_id("e4"), q, params, splits) == 1

    def test_direct_count_examples(self):
        # three candidates with hand distances 0.1/0.2/0.3 and 0.2/0.1/0.3
        splits, params, q, v = line_world([10, 0.2, 0.3, 0.1], ["e3"])
        assert rank_entity(v.entity_id("e3"), q, params, splits) == 1
        splits, params, q, v = line_world([10, 0.1, 0.3, 0.2], ["e3"])
        assert rank_entity(v.entity_id("e3"), q, params, splits) == 2

    def test_all_equidistant_is_rank_one(self):
        splits, params, q, v = line_world([10, 1.0, 1.0, 1.0, 1.0], ["e4"])
        assert rank_entity(v.entity_id("e4"), q, params, splits) == 1

    def test_non_answer_rejected(self):
        splits, params, q, v = line_world([10, 1, 2, 3], ["e3"])
        with pytest.raises(ValueError):
            rank_entity(v.entity_id("e1"), q, params, splits)

    def test_other_answers_filtered_out(self):
        # e1 is closer than e4 but is itself a test answer, so it is excluded
        splits, params, q, v = line_world([10, 0.1, 5, 6, 1.0], ["e1", "e4"])
        assert rank_entity(v.entity_id("e4"), q, params, splits) == 1

    def test_invariant_under_monotone_transform(self):
        splits, params, q, v = line_world([10, 1, 2, 3, 1.5, 3.5], ["e4", "e5"])
        distances = entity_distances(q, params)
        base = [rank_entity(v.entity_id(e), q, params, splits) for e in ("e4", "e5")]
        transformed = np.exp(2.0 * distances) + 7.0
        after = [
            rank_entity(v.entity_id(e), q, params, splits, distances=transformed)
            for e in ("e4", "e5")
        ]
        assert base == after


class TestMetricsForQuery:
    def test_single_rank_one(self):
        splits, params, q, v = line_world([10, 1, 2, 3, 0.5], ["e4"])
        metrics = metrics_for_query(q, params, splits, "test")
        assert metrics == {"mrr": 1.0, "h1": 1.0, "h3": 1.0, "h10": 1.0}

    def test_ranks_two_and_four(self):
        positions = [10, 1.0, 2.0, 3.0, 1.5, 3.5]
        splits, params, q, v = line_world(positions, ["e4", "e5"])
        metrics = metrics_for_query(q, params, splits, "test")
        assert metrics["mrr"] == pytest.approx(0.375)
        assert metrics["h3"] == pytest.approx(0.5)
        assert metrics["h1"] == 0.0
        assert metrics["h10"] == 1.0

    def test_ranks_five_and_twenty(self):
        fillers = [float(i) for i in range(1, 22)]
        positions = [100.0] + fillers + [4.5, 19.5]
        answers = [f"e{len(positions) - 2}", f"e{len(positions) - 1}"]
        splits, params, q, v = line_world(positions, answers)
        assert rank_entity(v.entity_id(answers[0]), q, params, splits) == 5
        assert rank_entity(v.entity_id(answers[1]), q, params, splits) == 20
        metrics = metrics_for_query(q, params, splits, "test")
        assert metrics["h10"] == pytest.approx(0.5)
        assert metrics["h1"] == 0.0

    def test_hits_monotone_in_k(self):
        positions = [10, 1.0, 2.0, 3.0, 4.0, 2.5, 11.0]
        splits, params, q, _ = line_world(positions, ["e5", "e6"])
        metrics = metrics_for_query(q, params, splits, "test")
        assert metrics["h1"] <= metrics["h3"] <= metrics["h10"]

    def test_validation_stage_uses_val_minus_train(self):
        splits, params, q, v = line_world([10, 1, 2, 0.5, 0.7], ["e3", "e4"])
        answers = AnswerSet(
            (v.entity_id("e3"),),
            (v.entity_id("e3"), v.entity_id("e4")),
            (v.entity_id("e3"), v.entity_id("e4")),
        )
        q = GroundedQuery("1p", q.anchors, q.relations, answers)
        metrics = metrics_for_query(q, params, splits, "validation")
        # only e4 is evaluated; e3 stays filtered from its candidates
        assert metrics["mrr"] == pytest.approx(
            1.0 / rank_entity(v.entity_id("e4"), q, params, splits)
        )

    def test_empty_stage_answers_rejected(self):
        splits, params, q, v = line_world([10, 1, 2, 0.5], ["e3"])
        with pytest.raises(ValueError):
            metrics_for_query(q, params, splits, "validation")


class TestRanksMatchPerAnswerOracle:
    """One sort of the non-answers per query against one mask per answer,
    on distances with many ties, some of them between answers and
    non-answers."""

    def test_rank_entity(self, rng):
        n = 40
        splits, params, q, _ = line_world([0.0] * n, ["e1"])
        tied = 0
        for trial in range(200):
            answers = sorted(rng.choice(n, size=rng.integers(1, 8), replace=False).tolist())
            q = GroundedQuery("1p", q.anchors, q.relations, AnswerSet((), (), tuple(answers)))
            if trial % 2:
                distances = rng.integers(0, 5, n).astype(float)
            else:
                distances = rng.uniform(0, 5, n)
                distances[rng.integers(n, size=10)] = distances[answers[0]]
            others = np.setdiff1d(np.arange(n), answers)
            tied += np.isin(distances[answers], distances[others]).sum()
            for a in answers:
                expected = rank_per_answer(a, distances, answers)
                assert rank_entity(a, q, params, splits, distances=distances) == expected
        assert tied > 100

    def test_metrics_for_query(self, rng):
        n = 30
        tied = 0
        for _ in range(30):
            positions = rng.integers(0, 5, n).astype(float).tolist()
            picks = rng.choice(n, size=rng.integers(1, 8), replace=False)
            splits, params, q, _ = line_world(positions, [f"e{i}" for i in picks])
            distances = entity_distances(q, params)
            answers = sorted(q.answers.test)
            others = np.setdiff1d(np.arange(n), answers)
            tied += np.isin(distances[answers], distances[others]).sum()
            ranks = [rank_per_answer(a, distances, answers) for a in answers]
            expected = {
                "mrr": sum(1.0 / r for r in ranks) / len(ranks),
                "h1": sum(1.0 if r <= 1 else 0.0 for r in ranks) / len(ranks),
                "h3": sum(1.0 if r <= 3 else 0.0 for r in ranks) / len(ranks),
                "h10": sum(1.0 if r <= 10 else 0.0 for r in ranks) / len(ranks),
            }
            assert metrics_for_query(q, params, splits, "test") == expected
        assert tied > 20


class TestAggregate:
    def test_per_query_average_ignores_answer_counts(self):
        # one query at rank 1 (single answer), one far away (many answers):
        # the structure mean weighs them equally
        splits1, params, q1, _ = line_world([10, 1, 2, 3, 0.5], ["e4"])
        positions = [10, 0.1, 0.2, 0.3, 5.0, 6.0, 7.0]
        splits2, params2, q2, _ = line_world(positions, ["e4", "e5", "e6"])
        report = aggregate([q1], params, splits1, "test")
        assert report.structures["1p"]["mrr"] == 1.0
        report2 = aggregate([q1, q2], params2, splits2, "test")
        per_query = [
            metrics_for_query(q, params2, splits2, "test")["mrr"] for q in (q1, q2)
        ]
        assert report2.structures["1p"]["mrr"] == pytest.approx(np.mean(per_query))

    def test_single_structure_overall(self):
        splits, params, q, _ = line_world([10, 1, 2, 3, 0.5], ["e4"])
        report = aggregate([q], params, splits, "test")
        assert report.overall == {
            m: report.structures["1p"][m] for m in ("mrr", "h1", "h3", "h10")
        }

    def test_report_round_trip_and_table(self):
        import json

        splits, params, q, _ = line_world([10, 1, 2, 3, 0.5], ["e4"])
        report = aggregate([q], params, splits, "test", checkpoint_id="abc123")
        data = json.loads(report.to_json())
        assert data["checkpoint"] == "abc123"
        assert data["tie_rule"] == "optimistic"
        table = report.render_table()
        assert "1p" in table and "overall" in table

    def test_trained_beats_untrained(self, trained_bipartite):
        splits, queries, config, result = trained_bipartite
        untrained = ModelParams(config, splits.train.n_entities, splits.train.n_relations)
        trained_report = aggregate(queries, result.params, splits, "train")
        untrained_report = aggregate(queries, untrained, splits, "train")
        assert trained_report.overall["mrr"] > untrained_report.overall["mrr"]

    def test_point_1p_order_matches_translation(self, rng):
        splits, params, q, v = line_world([10, 1, 2, 3, 4, 5], ["e5"])
        distances = entity_distances(q, params)
        anchor = params.entity[v.entity_id("e0")]
        shift = params.tensors["relation_center"][v.relation_id("r")]
        manual = np.sum(np.abs(anchor + shift - params.entity), axis=1)
        assert np.argsort(distances).tolist() == np.argsort(manual).tolist()


@pytest.fixture(scope="module")
def mixed_structures():
    """Test-stage queries of all nine structures, five each, interleaved
    structure by structure, on a random 24-entity graph."""
    rng = np.random.default_rng(5)
    triples = sorted({(f"e{rng.integers(24)}", f"r{rng.integers(3)}", f"e{rng.integers(24)}")
                      for _ in range(90)})
    order = rng.permutation(len(triples))
    train, valid, test = ([triples[i] for i in part] for part in np.split(order, [70, 80]))
    splits = make_splits(train, valid, valid + test)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        queries = generate_queries(splits, {s: 5 for s in STRUCTURE_NAMES}, 3)["test"]
    by_structure = [[q for q in queries if q.structure_name == s] for s in STRUCTURE_NAMES]
    assert all(len(group) == 5 for group in by_structure)
    return splits, [q for round_ in zip(*by_structure) for q in round_]


class TestSlotIdsOnly:
    """Training and evaluation read each query's slot ids; none binds its
    template into a graph."""

    def test_runs_with_graph_unavailable(self, mixed_structures, monkeypatch):
        splits, queries = mixed_structures
        params = ModelParams(ModelConfig(dim=8, negatives=4, seed=11),
                             splits.train.n_entities, splits.train.n_relations)

        def unavailable(self):
            raise AssertionError("a query's graph was bound")

        monkeypatch.setattr(GroundedQuery, "graph", property(unavailable))
        rng = np.random.default_rng(0)
        samples = []
        for name in STRUCTURE_NAMES:
            group = [q for q in queries if q.structure_name == name]
            positives = [q.answers.test[0] for q in group]
            negatives = rng.integers(splits.train.n_entities, size=(len(group), 4))
            samples.append((group, positives, negatives))
        assert np.isfinite(batch_loss_and_grads(samples, params, params.zero_grads()))
        assert aggregate(queries, params, splits, "test").overall["mrr"] > 0
        assert metrics_for_query(queries[0], params, splits, "test")["mrr"] > 0


class TestAggregateMatchesPerQueryOracle:
    """Structure chunks scored in one pass over the entity blocks against
    one query at a time, with entity blocks of 7 rows and query chunks of 3,
    so both split mid-structure, and with duplicated entity vectors, so
    answers tie with non-answers."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mode", MODE_GRID)
    def test_every_structure(self, mixed_structures, mode, dtype, monkeypatch):
        monkeypatch.setattr(geometry, "_BLOCK_ELEMENTS", 7 * 8)
        monkeypatch.setattr(evaluation, "_QUERY_CHUNK", 3)
        splits, queries = mixed_structures
        intersection_mode, offset_mode, geometry_name = mode
        config = ModelConfig(dim=8, intersection_mode=intersection_mode, offset_mode=offset_mode,
                             geometry=geometry_name, dtype=dtype, seed=11)
        params = ModelParams(config, splits.train.n_entities, splits.train.n_relations)
        entity = params.tensors["entity"]
        entity[1::3] = entity[0::3][: len(entity[1::3])]
        # the forward pass is not bit-identical across batch sizes, so a
        # distance may move by a rounding; ranks may differ only where an
        # answer ties a non-answer within that
        eps = 8 * np.finfo(dtype).eps
        tied = flipped = 0
        for q, got in zip(queries, _ranks(queries, params, "test")):
            answers = _stage_answers(q, "test")
            distances = entity_distances(q, params)
            want = _filtered_ranks(distances, answers, q)
            others = np.setdiff1d(np.arange(len(distances)), q.answers.test)
            tied += np.isin(distances[answers], distances[others]).sum()
            for a, g, w in zip(answers, got, want):
                if g != w:
                    flipped += 1
                    gap = np.min(np.abs(distances[others] - distances[a]))
                    assert gap <= eps * max(1.0, abs(distances[a])), (q.structure_name, a)
        assert tied > 0
        for name in STRUCTURE_NAMES:
            group = [q for q in queries if q.structure_name == name]
            batched = _chunk_distances(group, params)
            single = np.stack([entity_distances(q, params) for q in group])
            assert np.all(np.abs(batched - single) <= eps * np.maximum(1.0, np.abs(single))), name

        report = aggregate(queries, params, splits, "test", checkpoint_id="c")
        assert report.to_json() == aggregate(queries, params, splits, "test", "c").to_json()
        if not flipped:  # equal ranks give equal means, summed in the same order
            oracle = aggregate_per_query(queries, params, splits, "test", "c")
            assert report.to_json() == oracle.to_json()

    def test_peak_memory_bounded_by_one_chunk(self):
        # ten chunks of 1p queries on 4,000 entities peak no higher than one
        # chunk plus its (chunk, N) distance table; scoring a structure at
        # once would hold ten such tables
        n = 4000
        splits = make_splits([(f"e{i}", "r", f"e{(i + 1) % n}") for i in range(n)],
                             augment=False)
        params = ModelParams(ModelConfig(dim=8, seed=0), n, 1)
        queries = [
            GroundedQuery("1p", (i,), (0,), AnswerSet((), (), ((i + 1) % n,)))
            for i in range(10 * evaluation._QUERY_CHUNK)
        ]
        one = queries[: evaluation._QUERY_CHUNK]
        aggregate(one, params, splits, "test")
        peaks = []
        tracemalloc.start()
        try:
            for batch in (one, queries):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                aggregate(batch, params, splits, "test")
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        table = evaluation._QUERY_CHUNK * n * params.entity.itemsize
        assert peaks[0] > table
        assert peaks[1] - peaks[0] < table


class TestSpearman:
    def test_perfect_correlations(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(x, x * 10) == pytest.approx(1.0)
        assert spearman(x, -x) == pytest.approx(-1.0)

    def test_ties_average(self):
        assert abs(spearman(np.array([1.0, 1.0, 2.0]), np.array([3.0, 3.0, 4.0])) - 1.0) < 1e-12

    def test_constant_input_is_zero(self):
        assert spearman(np.ones(5), np.arange(5.0)) == 0.0


class TestOffsetReport:
    def test_rows_sorted_and_counts_right(self, trained_bipartite):
        splits, _, _, result = trained_bipartite
        report = offset_report(result.params, splits)
        sizes = [r["box_size"] for r in report.rows]
        assert sizes == sorted(sizes)
        # every augmented relation with at least one edge appears
        assert len(report.rows) == splits.train.n_relations

    def test_untrained_correlation_near_zero(self):
        triples = [(f"x{i}", "one", f"y{i}") for i in range(8)]
        triples += [(f"x{i}", "many", f"y{j}") for i in range(3) for j in range(8)]
        splits = make_splits(triples)
        config = ModelConfig(dim=16, gamma=2.0, negatives=4, seed=0)
        # average over fresh initializations: no systematic correlation
        corrs = []
        for seed in range(12):
            cfg = ModelConfig(dim=16, gamma=2.0, negatives=4, seed=seed)
            params = ModelParams(cfg, splits.train.n_entities, splits.train.n_relations)
            corrs.append(offset_report(params, splits).correlation)
        assert abs(np.mean(corrs)) < 0.45

    def test_mean_answer_counts(self):
        triples = [("a", "one", "b"), ("a", "many", "b"), ("a", "many", "c"),
                   ("d", "many", "b")]
        splits = make_splits(triples, augment=False)
        config = ModelConfig(dim=4, gamma=2.0, negatives=1, seed=0)
        params = ModelParams(config, splits.train.n_entities, splits.train.n_relations)
        report = offset_report(params, splits)
        by_name = {r["relation"]: r["mean_answers"] for r in report.rows}
        assert by_name["one"] == 1.0
        assert by_name["many"] == pytest.approx(1.5)  # heads a: 2, d: 1


class TestCountDisjointQueries:
    def test_empty_graph(self, rng):
        from boxquery.kg import KnowledgeGraph, Vocabulary

        kg = KnowledgeGraph(Vocabulary(), [])
        assert count_disjoint_queries(kg, rng) == (0, 0)

    def test_bijections_with_disjoint_ranges(self, rng):
        # x_i -r-> y_i and y_i -s-> z_i: every (entity, relation) pair has a
        # single private answer, so all pairs are kept
        triples = [(f"x{i}", "r", f"y{i}") for i in range(6)]
        triples += [(f"y{i}", "s", f"z{i}") for i in range(6)]
        kg = make_graph(triples)
        pairs = {(h, r) for (h, r, t) in kg.edges}
        m_1p, m_total = count_disjoint_queries(kg, rng)
        assert m_1p == len(pairs) == 12
        assert m_total == m_1p  # no multi-answer pairs, so no 2i stage

    def test_overlapping_answers_counted_once(self, rng):
        triples = [("a", "r", "x"), ("b", "r", "x"), ("c", "r", "y")]
        kg = make_graph(triples)
        m_1p, m_total = count_disjoint_queries(kg, rng)
        # greedy order (a,r) then (b,r) blocked, (c,r) kept
        assert m_1p == 2
        assert m_total >= m_1p

    def test_2i_stage_extends_count(self, rng):
        # two fan-out pairs whose answer sets overlap pairwise, but whose
        # conjunction isolates a fresh disjoint set
        triples = [
            ("a", "r", "x"), ("a", "r", "y"),
            ("b", "r", "y"), ("b", "r", "z"),
        ]
        kg = make_graph(triples)
        m_1p, m_total = count_disjoint_queries(kg, rng, pair_factor=50)
        # (a,r) kept, (b,r) overlaps on y; 2i of (a,r)&(b,r) = {y}... already
        # seen via (a,r). Total stays at stage one here.
        assert (m_1p, m_total) == (1, 1)

        triples.append(("c", "s", "z"))
        triples.append(("c", "s", "w"))
        kg = make_graph(triples)
        m_1p2, m_total2 = count_disjoint_queries(kg, rng, pair_factor=50)
        # (a,r) kept; (b,r), (c,s) blocked at stage one ((b,r) hits y;
        # (c,s)? answers {z,w} disjoint -> kept). 2i((b,r),(c,s)) = {z} is
        # inside what (c,s) already covers.
        assert m_total2 >= m_1p2
