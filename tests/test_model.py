import json
import warnings

import numpy as np
import pytest

from boxquery.errors import CompatibilityError, TrainingError
from boxquery.geometry import Box
from boxquery.model import (
    AdamState,
    ModelConfig,
    ModelParams,
    adam_step,
    embed_conjunctive,
    embed_epfo,
    load_checkpoint,
    save_checkpoint,
)
from boxquery.queries import bind, template
from boxquery.sampling import try_instantiate

from conftest import make_graph, random_graph
from gradcheck import MODE_GRID, check_instance, make_instance, query_loss_and_grads
from oracles import attention_weights, deepsets_forward


def small_params(n_entities=6, n_relations=4, dim=4, **kwargs) -> ModelParams:
    config = ModelConfig(dim=dim, gamma=2.0, negatives=2, seed=kwargs.pop("seed", 3), **kwargs)
    return ModelParams(config, n_entities, n_relations)


def boxes_for(params, n, rng):
    d = params.config.dim
    return [
        Box(rng.uniform(-1, 1, d), rng.uniform(0.01, 1, d)) for _ in range(n)
    ]


class TestDeepSets:
    def test_permutation_invariance(self, rng):
        params = small_params()
        xs = [rng.uniform(-1, 1, 8) for _ in range(4)]
        out = deepsets_forward(xs, params)
        perm = [xs[2], xs[0], xs[3], xs[1]]
        assert np.array_equal(out, deepsets_forward(perm, params))
        # a single fixture can agree by luck in the last bit; many random
        # sets of 2-5 inputs cannot
        for _ in range(300):
            xs = [rng.uniform(-1, 1, 8) for _ in range(rng.integers(2, 6))]
            out = deepsets_forward(xs, params)
            perm = [xs[i] for i in rng.permutation(len(xs))]
            assert np.array_equal(out, deepsets_forward(perm, params))

    def test_single_input_is_composed_mlps(self, rng):
        from boxquery.model import _mlp_forward

        params = small_params()
        x = rng.uniform(-1, 1, 8)
        inner = _mlp_forward(params, "offset_net.inner", x)[0]
        expected = _mlp_forward(params, "offset_net.outer", inner)[0]
        assert np.allclose(deepsets_forward([x], params), expected)

    def test_zero_weights_leave_bias_image(self, rng):
        params = small_params()
        for name, t in params.tensors.items():
            if name.startswith("offset_net") and name.endswith(("w1", "w2")):
                t[:] = 0.0
        params.tensors["offset_net.inner.b2"][:] = rng.uniform(-1, 1, 8)
        params.tensors["offset_net.outer.b2"][:] = rng.uniform(-1, 1, 4)
        xs = [rng.uniform(-1, 1, 8) for _ in range(3)]
        out = deepsets_forward(xs, params)
        # inner output is its bias, pooled; outer weights are zero too
        assert np.allclose(out, params.tensors["offset_net.outer.b2"])


class TestMlpBlockMatchesReference:
    """The row-block MLP backward against the per-row `np.outer` reference."""

    @pytest.mark.parametrize("dim", [4, 400])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_gradients(self, rng, dim, rows):
        from boxquery.model import _mlp_backward, _mlp_forward
        from oracles import mlp_backward_per_row

        params = small_params(dim=dim)
        for name, t in params.tensors.items():
            if name.endswith(("b1", "b2")):
                t[:] = rng.uniform(-0.1, 0.1, t.shape)
        for prefix in ("attn", "offset_net.inner", "center_net.outer"):
            x = rng.uniform(-1, 1, (rows, 2 * dim))
            y, cache = _mlp_forward(params, prefix, x)
            dy = rng.uniform(-1, 1, y.shape)
            block, reference = params.zero_grads(), params.zero_grads()
            dx = _mlp_backward(dy, cache, params, prefix, block)
            dx_ref = mlp_backward_per_row(dy, cache, params, prefix, reference)
            assert np.max(np.abs(dx - dx_ref)) <= 1e-12
            for name in block:
                assert np.max(np.abs(block[name] - reference[name])) <= 1e-12, name
            assert any(block[f"{prefix}.{w}"].any() for w in ("w1", "w2"))


class TestAttention:
    def test_identical_boxes_uniform(self, rng):
        params = small_params()
        b = boxes_for(params, 1, rng)[0]
        weights = attention_weights([b, b, b], params)
        for w in weights:
            assert np.allclose(w, 1.0 / 3.0)

    def test_single_box_all_ones(self, rng):
        params = small_params()
        weights = attention_weights(boxes_for(params, 1, rng), params)
        assert np.allclose(weights[0], 1.0)

    def test_weights_sum_to_one_per_dimension(self, rng):
        params = small_params()
        weights = attention_weights(boxes_for(params, 5, rng), params)
        total = np.sum(np.stack(weights), axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_shift_invariance(self, rng):
        params = small_params()
        boxes = boxes_for(params, 2, rng)
        base = attention_weights(boxes, params)
        params.tensors["attn.b2"] += 3.7  # constant shift of every logit
        shifted = attention_weights(boxes, params)
        for w1, w2 in zip(base, shifted):
            assert np.allclose(w1, w2)


class TestEmbedConjunctive:
    def test_1p_is_translated_relation_box(self, rng):
        kg = make_graph([("A", "r", "B")], augment=True)
        params = small_params(kg.n_entities, kg.n_relations)
        a, r = kg.vocab.entity_id("A"), kg.vocab.relation_id("r")
        g = bind(template("1p").graph, {0: a}, {0: r})
        box = embed_conjunctive(g, params)
        assert np.allclose(box.center, params.entity[a] + params.relation_center[r])
        assert np.allclose(box.offset, params.effective_relation_offset(r))

    def test_2p_offsets_sum(self, rng):
        kg = make_graph([("A", "r", "B"), ("B", "s", "C")], augment=True)
        params = small_params(kg.n_entities, kg.n_relations)
        v = kg.vocab
        g = bind(
            template("2p").graph,
            {0: v.entity_id("A")},
            {0: v.relation_id("r"), 1: v.relation_id("s")},
        )
        box = embed_conjunctive(g, params)
        expected = params.effective_relation_offset(
            v.relation_id("r")
        ) + params.effective_relation_offset(v.relation_id("s"))
        assert np.allclose(box.offset, expected)

    def test_identical_branches_keep_center(self, rng):
        kg = make_graph([("A", "r", "B"), ("C", "s", "B")], augment=True)
        params = small_params(kg.n_entities, kg.n_relations)
        v = kg.vocab
        # two identical branches: equal logits make the attention uniform,
        # and a convex combination of equal centers is that center
        g = bind(
            template("2i").graph,
            {0: v.entity_id("A"), 1: v.entity_id("A")},
            {0: v.relation_id("r"), 1: v.relation_id("r")},
        )
        box = embed_conjunctive(g, params)
        branch = params.entity[v.entity_id("A")] + params.relation_center[v.relation_id("r")]
        assert np.allclose(box.center, branch)

    def test_branch_permutation_bit_identical(self, rng):
        kg = make_graph([("A", "r", "B"), ("C", "s", "B"), ("D", "t", "B")], augment=True)
        params = small_params(kg.n_entities, kg.n_relations)
        v = kg.vocab
        ids = [("A", "r"), ("C", "s"), ("D", "t")]
        for mode in ("attention", "average", "deepsets"):
            params_m = small_params(
                kg.n_entities, kg.n_relations, intersection_mode=mode
            )
            def embed(order):
                g = bind(
                    template("3i").graph,
                    {i: v.entity_id(e) for i, (e, _) in enumerate(order)},
                    {i: v.relation_id(r) for i, (_, r) in enumerate(order)},
                )
                return embed_conjunctive(g, params_m)

            base = embed(ids)
            for perm in ([ids[1], ids[2], ids[0]], [ids[2], ids[0], ids[1]]):
                other = embed(perm)
                assert np.array_equal(base.center, other.center)
                assert np.array_equal(base.offset, other.offset)

    def test_union_edge_rejected(self):
        kg = make_graph([("A", "r", "B"), ("C", "s", "D")], augment=True)
        params = small_params(kg.n_entities, kg.n_relations)
        v = kg.vocab
        g = bind(
            template("2u").graph,
            {0: v.entity_id("A"), 1: v.entity_id("C")},
            {0: v.relation_id("r"), 1: v.relation_id("s")},
        )
        with pytest.raises(ValueError, match="union"):
            embed_conjunctive(g, params)

    def test_point_mode_is_pure_translation(self, rng):
        kg = make_graph([("A", "r", "B")], augment=True)
        params = small_params(kg.n_entities, kg.n_relations, geometry="point")
        v = kg.vocab
        g = bind(template("1p").graph, {0: v.entity_id("A")}, {0: v.relation_id("r")})
        box = embed_conjunctive(g, params)
        assert np.array_equal(box.offset, np.zeros(4))
        from boxquery.geometry import dist_box

        target = params.entity[v.entity_id("B")]
        expected = float(
            np.sum(np.abs(params.entity[v.entity_id("A")]
                          + params.relation_center[v.relation_id("r")] - target))
        )
        assert dist_box(target, box, params.config.alpha) == pytest.approx(expected)

    def test_offsets_nonnegative_for_any_raw_values(self, rng):
        # raw offsets may go negative during training; every box produced by
        # the forward pass still satisfies the nonnegativity invariant
        kg = make_graph([("A", "r", "B"), ("C", "s", "B"), ("B", "t", "D")], augment=True)
        v = kg.vocab
        pi = bind(
            template("pi").graph,
            {0: v.entity_id("A"), 1: v.entity_id("C")},
            {0: v.relation_id("r"), 1: v.relation_id("t"), 2: v.relation_id("s")},
        )
        for offset_mode in ("per-relation", "shared"):
            params = small_params(kg.n_entities, kg.n_relations, offset_mode=offset_mode)
            params.tensors["relation_offset"][:] = rng.uniform(-1, 1, (kg.n_relations, 4))
            params.tensors["shared_offset"][:] = rng.uniform(-1, -0.1, 4)
            box = embed_conjunctive(pi, params)
            assert np.all(box.offset >= 0)

    def test_saturated_shrink_is_zero_without_warning(self):
        from boxquery.model import _branch_forward

        kg = make_graph([("A", "r", "B"), ("C", "s", "B")], augment=True)
        v = kg.vocab
        g = bind(
            template("2i").graph,
            {0: v.entity_id("A"), 1: v.entity_id("C")},
            {0: v.relation_id("r"), 1: v.relation_id("s")},
        )
        params = small_params(kg.n_entities, kg.n_relations)
        params.tensors["offset_net.outer.b2"][:] = -1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, offset, steps = _branch_forward([g], params)
        shrink = steps[-1].offset_ds[1]
        assert np.all(shrink == 0.0)
        assert np.all(offset == 0.0)

    def test_mode_aliases_accepted(self):
        config = ModelConfig(
            dim=4, intersection_mode="deepsets-center", offset_mode="shared-global"
        )
        assert config.intersection_mode == "deepsets"
        assert config.offset_mode == "shared"

    def test_shared_offset_everywhere(self, rng):
        kg = make_graph([("A", "r", "B"), ("B", "s", "C")], augment=True)
        params = small_params(kg.n_entities, kg.n_relations, offset_mode="shared")
        v = kg.vocab
        g = bind(
            template("2p").graph,
            {0: v.entity_id("A")},
            {0: v.relation_id("r"), 1: v.relation_id("s")},
        )
        box = embed_conjunctive(g, params)
        assert np.array_equal(box.offset, params.effective_shared_offset())


class TestEmbedEpfo:
    def test_conjunctive_is_singleton(self, rng):
        kg = random_graph(rng)
        params = small_params(kg.n_entities, kg.n_relations)
        q = None
        while q is None:
            q = try_instantiate(template("2i"), kg, rng)
        boxes = embed_epfo(q, params)
        single = embed_conjunctive(q.graph, params)
        assert len(boxes) == 1
        assert np.array_equal(boxes[0].center, single.center)

    def test_2u_matches_direct_1p_embeddings(self, rng):
        kg = make_graph([("A", "r", "B"), ("C", "s", "D")], augment=True)
        params = small_params(kg.n_entities, kg.n_relations)
        v = kg.vocab
        g = bind(
            template("2u").graph,
            {0: v.entity_id("A"), 1: v.entity_id("C")},
            {0: v.relation_id("r"), 1: v.relation_id("s")},
        )
        boxes = embed_epfo(g, params)
        assert len(boxes) == 2
        for (anchor, rel), box in zip((("A", "r"), ("C", "s")), boxes):
            direct = embed_conjunctive(
                bind(template("1p").graph, {0: v.entity_id(anchor)},
                     {0: v.relation_id(rel)}),
                params,
            )
            assert np.allclose(box.center, direct.center)
            assert np.allclose(box.offset, direct.offset)

    def test_up_matches_2p_chains(self, rng):
        kg = make_graph(
            [("A", "r", "B"), ("C", "s", "B"), ("B", "t", "D")], augment=True
        )
        params = small_params(kg.n_entities, kg.n_relations)
        v = kg.vocab
        g = bind(
            template("up").graph,
            {0: v.entity_id("A"), 1: v.entity_id("C")},
            {0: v.relation_id("r"), 1: v.relation_id("s"), 2: v.relation_id("t")},
        )
        boxes = embed_epfo(g, params)
        assert len(boxes) == 2
        for (anchor, rel), box in zip((("A", "r"), ("C", "s")), boxes):
            chain = bind(
                template("2p").graph,
                {0: v.entity_id(anchor)},
                {0: v.relation_id(rel), 1: v.relation_id("t")},
            )
            direct = embed_conjunctive(chain, params)
            assert np.allclose(box.center, direct.center)
            assert np.allclose(box.offset, direct.offset)


class TestBackward:
    def test_gradients_match_finite_differences(self, rng):
        for mode in MODE_GRID:
            instance = None
            while instance is None:
                instance = make_instance(rng, mode)
            checked, skipped, failures = check_instance(*instance)
            assert not failures, (mode, failures[:5])
            assert checked > 100

    def test_untouched_entity_rows_zero(self, rng):
        instance = None
        while instance is None:
            instance = make_instance(rng, ("attention", "per-relation", "box"))
        params, query, positive, negatives = instance
        grads = params.zero_grads()
        query_loss_and_grads(query, params, positive, negatives, grads)
        touched = {n.entity for n in query.graph.anchors}
        touched.add(positive)
        touched.update(int(n) for n in negatives)
        for row in range(params.n_entities):
            if row not in touched:
                assert not grads["entity"][row].any()

    def test_duplicated_query_doubles_gradients(self, rng):
        instance = None
        while instance is None:
            instance = make_instance(rng, ("average", "per-relation", "box"))
        params, query, positive, negatives = instance
        once = params.zero_grads()
        query_loss_and_grads(query, params, positive, negatives, once)
        twice = params.zero_grads()
        query_loss_and_grads(query, params, positive, negatives, twice)
        query_loss_and_grads(query, params, positive, negatives, twice)
        for name in once:
            assert np.allclose(2 * once[name], twice[name])


class TestAdam:
    def test_zero_gradient_is_noop_from_fresh_state(self):
        params = small_params()
        state = AdamState.init(params)
        before = {k: t.copy() for k, t in params.tensors.items()}
        adam_step(params, params.zero_grads(), state, lr=0.1, t=1)
        for name in before:
            assert np.array_equal(before[name], params.tensors[name])

    def test_moments_decay(self):
        params = small_params()
        state = AdamState.init(params)
        state.m["entity"][:] = 1.0
        state.v["entity"][:] = 1.0
        adam_step(params, params.zero_grads(), state, lr=0.0, t=1)
        assert np.allclose(state.m["entity"], 0.9)
        assert np.allclose(state.v["entity"], 0.999)

    def test_first_step_matches_hand_computation(self):
        params = small_params()
        g = 0.37
        grads = params.zero_grads()
        grads["shared_offset"][:] = g
        before = params.tensors["shared_offset"].copy()
        state = AdamState.init(params)
        adam_step(params, grads, state, lr=0.01, t=1)
        # m_hat = g, v_hat = g^2 after bias correction at t=1
        expected = before - 0.01 * g / (abs(g) + 1e-8)
        assert np.allclose(params.tensors["shared_offset"], expected, atol=1e-15)

    def test_constant_gradient_updates_bounded_by_lr(self):
        # scalar simulation of the recurrence
        beta1, beta2, eps, lr, g = 0.9, 0.999, 1e-8, 0.05, 2.3
        m = v = 0.0
        theta = 1.0
        deltas = []
        for t in range(1, 200):
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            step = lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
            deltas.append(step)
            theta -= step
        assert all(abs(d) <= lr * (1 + 1e-9) for d in deltas)
        assert deltas[-1] == pytest.approx(lr, rel=1e-6)

        params = small_params(n_entities=1, n_relations=1, dim=1)
        state = AdamState.init(params)
        grads = params.zero_grads()
        start = params.tensors["entity"].copy()
        previous = start.copy()
        for t in range(1, 200):
            grads["entity"][:] = g
            adam_step(params, grads, state, lr=lr, t=t)
            assert abs(previous - params.tensors["entity"])[0, 0] <= lr * (1 + 1e-9)
            previous = params.tensors["entity"].copy()

    def test_moment_shapes_mirror_parameters(self):
        params = small_params()
        state = AdamState.init(params)
        assert set(state.m) == set(state.v) == set(params.tensors)
        for name, tensor in params.tensors.items():
            assert state.m[name].shape == tensor.shape
            assert state.v[name].shape == tensor.shape

    def test_skipped_tensors_match_dense_update(self, rng):
        # attention mode never reads center_net.*, so its gradient and moments
        # stay zero and the update is skipped; the result must not change.
        # Even steps get zero gradients, so only the moments move the rest.
        from oracles import adam_step_dense

        instance = None
        while instance is None:
            instance = make_instance(rng, ("attention", "per-relation", "box"), structure_name="3i")
        params, query, positive, negatives = instance
        start, dense = params.copy(), params.copy()
        state, dense_state = AdamState.init(params), AdamState.init(dense)
        for t in range(1, 5):
            for p, s, step in ((params, state, adam_step), (dense, dense_state, adam_step_dense)):
                grads = p.zero_grads()
                if t % 2:
                    query_loss_and_grads(query, p, positive, negatives, grads)
                step(p, grads, s, lr=0.01, t=t)
        for name in params.tensors:
            assert np.array_equal(params.tensors[name], dense.tensors[name]), name
            if name.startswith("center_net."):
                assert np.array_equal(params.tensors[name], start.tensors[name]), name

    def test_nonfinite_gradient_names_parameter(self):
        params = small_params()
        grads = params.zero_grads()
        grads["attn.w1"][0, 0] = np.nan
        with pytest.raises(TrainingError, match="attn.w1"):
            adam_step(params, grads, AdamState.init(params), lr=0.1, t=1)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_blocked_update_matches_reference(self, dtype, rng, monkeypatch):
        # blocks of 37 elements: every tensor but the biases spans several
        # and ends on a partial one; step 3 has an all-zero gradient, and
        # center_net.* never gets one, as in attention mode
        import boxquery.model as model_module
        from oracles import adam_step_reference

        monkeypatch.setattr(model_module, "_BLOCK_ELEMENTS", 37)
        params = small_params(n_entities=9, n_relations=5, dim=6, dtype=dtype)
        reference = params.copy()
        state, ref_state = AdamState.init(params), AdamState.init(reference)
        for t in range(1, 6):
            grads = params.zero_grads()
            if t != 3:
                for name, g in grads.items():
                    if not name.startswith("center_net."):
                        g[...] = rng.standard_normal(g.shape)
            ref_grads = {name: g.copy() for name, g in grads.items()}
            adam_step(params, grads, state, lr=0.01, t=t)
            adam_step_reference(reference, ref_grads, ref_state, lr=0.01, t=t)
            assert not any(g.any() for g in grads.values())  # handed back zeroed
            for name in params.tensors:
                for got, want in ((params.tensors, reference.tensors), (state.m, ref_state.m),
                                  (state.v, ref_state.v)):
                    assert got[name].dtype == np.dtype(dtype)
                    assert got[name].tobytes() == want[name].tobytes(), (t, name)

    def test_peak_memory_is_a_few_blocks(self, rng):
        # one step over every tensor of a d=400 model allocates scratch
        # blocks only; the reference's tensor-sized temporaries exceed that
        import tracemalloc

        import boxquery.model as model_module
        from oracles import adam_step_reference

        params = small_params(n_entities=10, n_relations=4, dim=400, dtype="float32")
        bound = 4 * model_module._BLOCK_ELEMENTS * np.dtype(np.float32).itemsize
        assert params.tensors["attn.w1"].nbytes > 4 * bound
        peaks = []
        for step in (adam_step, adam_step_reference):
            state = AdamState.init(params)
            grads = params.zero_grads()
            for g in grads.values():
                g[...] = rng.standard_normal(g.shape, dtype=np.float32)
            tracemalloc.start()
            try:
                step(params, grads, state, lr=0.01, t=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del state, grads
        assert peaks[0] < bound < peaks[1], peaks


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = small_params(intersection_mode="deepsets", geometry="point")
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, "enthash", "relhash")
        loaded, ent_hash, rel_hash = load_checkpoint(path)
        assert (ent_hash, rel_hash) == ("enthash", "relhash")
        assert loaded.config == params.config
        for name in params.tensors:
            assert np.array_equal(loaded.tensors[name], params.tensors[name])

    def test_byte_identical_across_runs(self, tmp_path):
        p1 = small_params(seed=42)
        p2 = small_params(seed=42)
        f1, f2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(f1, p1, "e", "r")
        save_checkpoint(f2, p2, "e", "r")
        assert f1.read_bytes() == f2.read_bytes()

    def test_garbage_rejected(self, tmp_path):
        from boxquery.errors import CompatibilityError

        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(CompatibilityError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        from boxquery.errors import CompatibilityError

        path = tmp_path / "short.ckpt"
        save_checkpoint(path, small_params(), "e", "r")
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CompatibilityError, match="truncated") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        from boxquery.errors import CompatibilityError

        path = tmp_path / "long.ckpt"
        save_checkpoint(path, small_params(), "e", "r")
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(CompatibilityError, match="trailing") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    @staticmethod
    def edit_header(path, edit):
        header_line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        for spec in header["tensors"]:
            edit(spec)
        path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload)

    def rename(spec):
        if spec["name"] == "attn.w1":
            spec["name"] = "attn.weight1"

    def reshape(spec):
        if spec["name"] == "relation_center":
            spec["shape"] = [spec["shape"][0], spec["shape"][1] + 1]

    @pytest.mark.parametrize("edit, tensor", [(rename, "attn.w1"), (reshape, "relation_center")])
    def test_tensor_set_checked(self, tmp_path, edit, tensor):
        path = tmp_path / "edited.ckpt"
        save_checkpoint(path, small_params(), "e", "r")
        self.edit_header(path, edit)
        with pytest.raises(CompatibilityError, match=tensor) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_nonfinite_value_rejected(self, tmp_path):
        params = small_params()
        params.tensors["offset_net.inner.b1"][1] = np.nan
        path = tmp_path / "nan.ckpt"
        save_checkpoint(path, params, "e", "r")
        with pytest.raises(CompatibilityError, match="offset_net.inner.b1.*non-finite") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)
