import math
import warnings

import numpy as np
import pytest

from boxquery.errors import SamplingError, TrainingError
from boxquery.geometry import Box, dist_box
from boxquery.model import ModelConfig, ModelParams, embed_epfo, save_checkpoint
from boxquery.queries import bind, structure_templates, template
from boxquery.sampling import AnswerSet, GroundedQuery, answer_exact, generate_queries, try_instantiate
from boxquery.training import (
    batch_loss_and_grads,
    loss,
    sample_negatives,
    train,
)

from conftest import make_splits, random_graph
from gradcheck import MODE_GRID, make_instance, query_loss_and_grads
from oracles import query_loss_and_grads_per_candidate


class TestLoss:
    def test_at_margin_everywhere(self):
        for k in (1, 4, 128):
            value = loss(24.0, [24.0] * k, gamma=24.0)
            assert value == pytest.approx(2 * math.log(2.0), abs=1e-12)

    def test_perfect_separation_limit(self):
        value = loss(0.0, [1e9] * 4, gamma=24.0)
        expected = -math.log(1.0 / (1.0 + math.exp(-24.0)))
        assert value == pytest.approx(expected, rel=1e-6)
        assert value == pytest.approx(3.8e-11, rel=0.02)

    def test_monotone_in_positive_distance(self):
        negs = [3.0, 5.0]
        values = [loss(d, negs, gamma=4.0) for d in np.linspace(0, 10, 25)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_order_irrelevant(self):
        negs = [1.0, 7.0, 3.0, 2.5]
        assert loss(2.0, negs, 4.0) == loss(2.0, list(reversed(negs)), 4.0)

    def test_positive_inside_box_bound(self, rng):
        # a positive inside its box is at most alpha*|offset|_1 away, so the
        # positive term never exceeds -log sigmoid(gamma - alpha*|offset|_1)
        from boxquery.geometry import dist_box

        gamma, alpha = 4.0, 0.2
        for _ in range(200):
            box = Box(rng.uniform(-2, 2, 6), rng.uniform(0, 2, 6))
            v = box.center + rng.uniform(-1, 1, 6) * box.offset
            pos = dist_box(v, box, alpha)
            bound = -math.log(1 / (1 + math.exp(-(gamma - alpha * float(np.sum(box.offset))))))
            positive_term = loss(pos, [gamma], gamma) - math.log(2)
            assert positive_term <= bound + 1e-12


class TestLossAndGradsMatchReference:
    # union structures (2u, up) have two DNF branches, so candidates split
    # between branches and each branch gets its own gradient block
    @pytest.mark.parametrize("mode", MODE_GRID)
    def test_every_structure(self, mode):
        rng = np.random.default_rng(1000 + MODE_GRID.index(mode))
        for structure in structure_templates():
            for _ in range(3):
                instance = None
                while instance is None:
                    instance = make_instance(rng, mode, dim=8, structure_name=structure.name)
                params, query, positive, negatives = instance
                got = params.zero_grads()
                want = params.zero_grads()
                assert query_loss_and_grads(
                    query, params, positive, negatives, got
                ) == query_loss_and_grads_per_candidate(query, params, positive, negatives, want)
                for name in got:
                    assert np.max(np.abs(got[name] - want[name])) <= 1e-12, (structure.name, name)


def make_batch(rng, mode, structure_name, size, k=2, dim=8):
    """One random graph and model, and `size` samples of one structure, the
    last a repeat of the first; None when the graph cannot supply them."""
    intersection_mode, offset_mode, geometry = mode
    kg = random_graph(rng, n_entities=6, n_relations=2, n_edges=14, augment=True)
    samples = []
    for _ in range(200):
        query = try_instantiate(template(structure_name), kg, rng)
        if query is None:
            continue
        answers = sorted(answer_exact(kg, query))
        non_answers = sorted(set(range(kg.n_entities)) - set(answers))
        if len(non_answers) < k:
            continue
        positive = answers[int(rng.integers(len(answers)))]
        samples.append((query, positive, rng.choice(non_answers, size=k, replace=False)))
        if len(samples) == max(1, size - 1):
            break
    else:
        return None
    if size > 1:
        samples.append(samples[0])
    config = ModelConfig(
        dim=dim, alpha=0.2, gamma=1.0, negatives=k, intersection_mode=intersection_mode,
        offset_mode=offset_mode, geometry=geometry, seed=int(rng.integers(1 << 31)),
    )
    return ModelParams(config, kg.n_entities, kg.n_relations), samples


class TestBatchMatchesPerQueryOracle:
    """One batched pass per structure against the per-query oracle summed
    over the batch: shared negatives, a repeated query and union candidates
    that split between the DNF branches."""

    @pytest.mark.parametrize("size", [1, 2, 5])
    @pytest.mark.parametrize("mode", MODE_GRID)
    def test_every_structure(self, mode, size, monkeypatch):
        import boxquery.training as training_module

        # candidates of two queries per chunk, so a batch of 5 spans three
        monkeypatch.setattr(training_module, "_CANDIDATE_BLOCK", 2 * 3 * 8)
        rng = np.random.default_rng(2000 + 10 * MODE_GRID.index(mode) + size)
        shared_negatives = 0
        for structure in structure_templates():
            union = structure.name in ("2u", "up")
            split = 0
            for attempt in range(30):
                if attempt >= 2 and (split or not union):
                    break
                made = None
                while made is None:
                    made = make_batch(rng, mode, structure.name, size)
                params, samples = made
                queries, positives, negatives = zip(*samples)
                got, want = params.zero_grads(), params.zero_grads()
                batch = batch_loss_and_grads(
                    list(queries), params, list(positives), np.stack(negatives), got
                )
                total = sum(
                    query_loss_and_grads_per_candidate(q, params, pos, negs, want)
                    for q, pos, negs in samples
                )
                if size == 1:
                    assert batch == total
                assert abs(batch - total) <= 1e-12 * abs(total), structure.name
                for name in got:
                    assert np.max(np.abs(got[name] - want[name])) <= 1e-12, (structure.name, name)

                distinct = {id(q): set(n.tolist()) for q, _, n in samples}
                pairs = [(a, b) for a in distinct.values() for b in distinct.values() if a is not b]
                shared_negatives += any(a & b for a, b in pairs)
                for q, pos, negs in samples:
                    boxes = embed_epfo(q, params)
                    vecs = params.entity[np.concatenate(([pos], negs))]
                    closest = np.argmin([dist_box(vecs, b, params.config.alpha) for b in boxes], axis=0)
                    split += len(set(closest.tolist())) > 1
            assert split or not union, structure.name
        if size > 2:  # two distinct queries at least
            assert shared_negatives > 0


class TestSampleNegatives:
    def splits_and_query(self):
        splits = make_splits(
            [("A", "r", "B"), ("A", "r", "C"), ("D", "s", "E")], augment=False
        )
        v = splits.vocab
        g = bind(template("1p").graph, {0: v.entity_id("A")}, {0: v.relation_id("r")})
        answers = (v.entity_id("B"), v.entity_id("C"))
        q = GroundedQuery(g, "1p", AnswerSet(answers, answers, answers))
        return splits, q, v

    def test_forced_complement(self, rng):
        splits, q, v = self.splits_and_query()
        negs = sample_negatives(q, 3, splits, rng)
        expected = {v.entity_id("A"), v.entity_id("D"), v.entity_id("E")}
        assert set(int(n) for n in negs) == expected

    def test_too_few_non_answers(self, rng):
        splits, q, _ = self.splits_and_query()
        with pytest.raises(SamplingError):
            sample_negatives(q, 4, splits, rng)

    def test_draws_match_setdiff_candidates(self, rng):
        # the complement mask yields the setdiff1d array, so the same
        # generator state draws the same negatives
        triples = [(f"e{i}", "r", f"e{(i + 1) % 100}") for i in range(100)]
        splits = make_splits(triples, augment=False)
        n = splits.train.n_entities
        g = bind(template("1p").graph, {0: 0}, {0: 0})
        k = 5
        for trial in range(500):
            size = n - k if trial % 10 == 0 else int(rng.integers(0, n - k + 1))
            answers = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            q = GroundedQuery(g, "1p", AnswerSet(answers, answers, answers))
            seed = int(rng.integers(1 << 31))
            got = sample_negatives(q, k, splits, np.random.default_rng(seed))
            candidates = np.setdiff1d(np.arange(n), np.asarray(answers, dtype=int))
            want = np.random.default_rng(seed).choice(candidates, size=k, replace=False)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_uniform_distribution(self, rng):
        triples = [(f"e{i}", "r", f"e{(i + 1) % 100}") for i in range(100)]
        splits = make_splits(triples, augment=False)
        v = splits.vocab
        g = bind(template("1p").graph, {0: v.entity_id("e0")}, {0: v.relation_id("r")})
        answers = (v.entity_id("e1"),)
        q = GroundedQuery(g, "1p", AnswerSet(answers, answers, answers))
        counts = np.zeros(100)
        draws = 10_000
        for _ in range(draws):
            for n in sample_negatives(q, 1, splits, rng):
                counts[int(n)] += 1
        assert counts[v.entity_id("e1")] == 0
        # chi-squared against uniform over the 99 allowed entities
        allowed = np.delete(counts, v.entity_id("e1"))
        expected = draws / 99
        chi2 = float(np.sum((allowed - expected) ** 2 / expected))
        # 99 - 1 = 98 degrees of freedom; 99.9th percentile is about 146
        assert chi2 < 146.0


class TestTrainLoop:
    def tiny_setup(self, seed=5):
        ring = [(f"e{i}", "r", f"e{(i + 1) % 8}") for i in range(8)]
        chords = [(f"e{i}", "s", f"e{(i + 3) % 8}") for i in range(8)]
        splits = make_splits(ring + chords)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            queries = generate_queries(
                splits, {n: 6 for n in ("1p", "2p", "2i")}, seed=2
            )["train"]
        config = ModelConfig(
            dim=8, gamma=2.0, negatives=3, learning_rate=0.01, epochs=3,
            batch_per_structure=4, seed=seed,
        )
        return splits, queries, config

    def test_no_training_queries_rejected(self):
        splits, queries, config = self.tiny_setup()
        only_3i = [q for q in queries if q.structure_name == "3i"]
        with pytest.raises(TrainingError):
            train(splits, only_3i, config)

    def test_zero_learning_rate_changes_nothing(self):
        splits, queries, config = self.tiny_setup()
        config.learning_rate = 0.0
        result = train(splits, queries, config, log=None)
        fresh = ModelParams(config, splits.train.n_entities, splits.train.n_relations)
        for name in fresh.tensors:
            assert np.array_equal(result.final_params.tensors[name], fresh.tensors[name])

    def test_bit_identical_checkpoints(self, tmp_path):
        splits, queries, config = self.tiny_setup()
        files = []
        for run in range(2):
            result = train(splits, queries, config, log=None)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(path, result.final_params, "e", "r")
            files.append(path)
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_history_and_log(self):
        splits, queries, config = self.tiny_setup()
        lines = []
        result = train(splits, queries, config, log=lines.append)
        assert len(result.state.history) == config.epochs
        assert len(lines) == config.epochs
        assert lines[0].startswith("epoch=1 loss=")

    def test_max_iterations_smoke(self):
        splits, queries, config = self.tiny_setup()
        result = train(splits, queries, config, max_iterations=1)
        assert result.state.step == 1

    def test_1p_only_regime(self):
        # restricting the regime to 1p is the same as dropping the other
        # structures from the corpus
        splits, queries, config = self.tiny_setup()
        config.train_structures = ("1p",)
        restricted = train(splits, queries, config, log=None)
        only_1p = [q for q in queries if q.structure_name == "1p"]
        config_default = ModelConfig(**{**config.to_dict(),
                                        "train_structures": ("1p", "2p", "3p", "2i", "3i")})
        filtered = train(splits, only_1p, config_default, log=None)
        for name in restricted.final_params.tensors:
            assert np.array_equal(
                restricted.final_params.tensors[name], filtered.final_params.tensors[name]
            )

    def test_nonfinite_loss_writes_diagnostic_snapshot(self, tmp_path, monkeypatch):
        import boxquery.training as training_module

        splits, queries, config = self.tiny_setup()
        monkeypatch.setattr(
            training_module, "batch_loss_and_grads", lambda *a, **k: float("nan")
        )
        diag = tmp_path / "failed.ckpt.diag"
        with pytest.raises(TrainingError, match="non-finite loss"):
            train(splits, queries, config, log=None, diagnostic_path=str(diag))
        assert diag.exists()
        from boxquery.model import load_checkpoint

        loaded, _, _ = load_checkpoint(diag)
        assert loaded.config == config

    def test_one_mlp_backward_per_network_and_structure(self, monkeypatch):
        # a batch of one intersection structure runs each network once:
        # attention, then the offset set network's outer and inner MLPs
        import boxquery.model as model_module

        ring = [(f"e{i}", "r", f"e{(i + 1) % 8}") for i in range(8)]
        chords = [(f"e{i}", "s", f"e{(i + 3) % 8}") for i in range(8)]
        splits = make_splits(ring + chords)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            queries = generate_queries(splits, {"2i": 6, "3i": 6}, seed=2)["train"]
        assert {q.structure_name for q in queries} == {"2i", "3i"}
        config = ModelConfig(dim=8, gamma=2.0, negatives=3, batch_per_structure=5, seed=5)
        calls = []
        original = model_module._mlp_backward

        def counted(dy, cache, params, prefix, grads):
            calls.append(prefix)
            return original(dy, cache, params, prefix, grads)

        monkeypatch.setattr(model_module, "_mlp_backward", counted)
        train(splits, queries, config, max_iterations=1)
        assert sorted(calls) == sorted(["attn", "offset_net.outer", "offset_net.inner"] * 2)

    def test_best_checkpoint_tracking(self):
        ring = [(f"e{i}", "r", f"e{(i + 1) % 8}") for i in range(8)]
        chords = [(f"e{i}", "s", f"e{(i + 3) % 8}") for i in range(8)]
        splits = make_splits(ring + chords, valid_extra=[("e0", "s", "e2")])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = generate_queries(splits, {n: 6 for n in ("1p", "2p", "2i")}, seed=4)
        config = ModelConfig(
            dim=8, gamma=2.0, negatives=3, learning_rate=0.01, epochs=4,
            batch_per_structure=4, seed=9,
        )
        result = train(splits, out["train"], config, valid_queries=out["valid"], log=None)
        assert result.state.best_metric > 0
        assert result.state.best_params is not None
        assert all("val_mrr" in rec for rec in result.state.history)


class TestBlockedAdamInTraining:
    """`train` keeps one gradient dict for the run, which `adam_step` hands
    back zeroed, and updates in blocks; a replay of its samples with fresh
    `zero_grads()` per step and the whole-tensor reference step must give
    bit-equal parameters and moments. The block constant is patched down so
    that tensors span several blocks and end on a partial one, and the
    second step gets no gradient at all, so a leaked gradient would show."""

    ZERO_STEP = 2

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mode", MODE_GRID)
    def test_four_steps_match_fresh_buffers_and_reference(self, mode, dtype, monkeypatch):
        import boxquery.model as model_module
        import boxquery.training as training_module
        from boxquery.model import AdamState
        from oracles import adam_step_reference

        monkeypatch.setattr(model_module, "_BLOCK_ELEMENTS", 37)
        intersection_mode, offset_mode, geometry = mode
        ring = [(f"e{i}", "r", f"e{(i + 1) % 8}") for i in range(8)]
        chords = [(f"e{i}", "s", f"e{(i + 3) % 8}") for i in range(8)]
        splits = make_splits(ring + chords)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            queries = generate_queries(splits, {n: 6 for n in ("1p", "2p", "2i", "3i")},
                                       seed=2)["train"]
        config = ModelConfig(
            dim=8, gamma=2.0, negatives=3, learning_rate=0.01, epochs=4,
            batch_per_structure=6, seed=5, dtype=dtype, intersection_mode=intersection_mode,
            offset_mode=offset_mode, geometry=geometry,
        )
        per_step = len({q.structure_name for q in queries})  # one batch per structure
        steps = []  # the samples of each step

        def recorded(qs, params, positives, negatives, grads):
            if not steps or len(steps[-1]) == per_step:
                steps.append([])
            steps[-1].append((qs, positives, negatives))
            if len(steps) == self.ZERO_STEP:
                return 0.0
            return batch_loss_and_grads(qs, params, positives, negatives, grads)

        monkeypatch.setattr(training_module, "batch_loss_and_grads", recorded)
        result = train(splits, queries, config, log=None)
        assert result.state.step == len(steps) == 4

        params = ModelParams(config, splits.train.n_entities, splits.train.n_relations)
        state = AdamState.init(params)
        for t, samples in enumerate(steps, start=1):
            grads = params.zero_grads()
            if t != self.ZERO_STEP:
                for qs, positives, negatives in samples:
                    batch_loss_and_grads(qs, params, positives, negatives, grads)
            adam_step_reference(params, grads, state, config.learning_rate, t)
        got = result.final_params
        for name, tensor in params.tensors.items():
            assert got.tensors[name].dtype == np.dtype(dtype)
            assert got.tensors[name].tobytes() == tensor.tobytes(), name
            assert result.state.adam.m[name].tobytes() == state.m[name].tobytes(), name
            assert result.state.adam.v[name].tobytes() == state.v[name].tobytes(), name


class TestFloat32Switch:
    def test_float32_training_and_checkpoint(self, tmp_path):
        ring = [(f"e{i}", "r", f"e{(i + 1) % 8}") for i in range(8)]
        chords = [(f"e{i}", "s", f"e{(i + 3) % 8}") for i in range(8)]
        splits = make_splits(ring + chords)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            queries = generate_queries(splits, {"1p": 6, "2i": 6}, seed=2)["train"]
        config = ModelConfig(
            dim=8, gamma=2.0, negatives=3, learning_rate=0.01, epochs=2,
            batch_per_structure=4, seed=5, dtype="float32",
        )
        result = train(splits, queries, config, log=None)
        assert all(t.dtype == np.float32 for t in result.final_params.tensors.values())
        assert np.isfinite(result.state.history[-1]["loss"])

        from boxquery.model import load_checkpoint

        path = tmp_path / "f32.ckpt"
        save_checkpoint(path, result.final_params, "e", "r")
        loaded, _, _ = load_checkpoint(path)
        assert all(t.dtype == np.float32 for t in loaded.tensors.values())
        for name in loaded.tensors:
            assert np.array_equal(loaded.tensors[name], result.final_params.tensors[name])


class TestDeskScaleRun:
    def test_loss_drops_below_quarter(self, trained_bipartite):
        _, _, _, result = trained_bipartite
        history = result.state.history
        assert history[-1]["loss"] < 0.25 * history[0]["loss"]

    def test_heldin_h3_above_point_nine(self, trained_bipartite):
        from boxquery.evaluation import aggregate

        splits, queries, _, result = trained_bipartite
        report = aggregate(queries, result.params, splits, "train")
        h3 = np.mean([report.structures[s]["h3"] for s in report.structures])
        assert h3 > 0.9
