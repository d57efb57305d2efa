import numpy as np
import pytest

from boxquery.errors import ParseError, VocabularyError
from boxquery.kg import (
    _atomic_open,
    INVERSE_MARKER,
    KnowledgeGraph,
    Vocabulary,
    build_split_graphs,
    load_splits,
    prepare_nell,
    save_splits,
)
from boxquery.synth import synthesize_triples, write_synthetic_split

from conftest import make_graph, random_graph
from oracles import augment_inverses, load_triples


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTriples:
    def test_duplicates_collapse(self, tmp_path):
        f = write(tmp_path / "t.txt", "A\tr\tB\nA\tr\tB\nB\ts\tC\n")
        g = load_triples(f)
        assert g.n_entities == 3
        assert g.n_relations == 2
        assert g.n_edges == 2

    def test_empty_file(self, tmp_path):
        f = write(tmp_path / "t.txt", "")
        g = load_triples(f)
        assert g.n_entities == 0
        assert g.n_edges == 0

    def test_wrong_field_count_reports_line(self, tmp_path):
        f = write(tmp_path / "t.txt", "A\tr\tB\nA\tr\n")
        with pytest.raises(ParseError, match="2$|line|:2"):
            load_triples(f)

    def test_blank_line_rejected(self, tmp_path):
        f = write(tmp_path / "t.txt", "A\tr\tB\n\nB\ts\tC\n")
        with pytest.raises(ParseError):
            load_triples(f)

    def test_comment_line_rejected(self, tmp_path):
        f = write(tmp_path / "t.txt", "# a comment\tx\ty\n")
        with pytest.raises(ParseError):
            load_triples(f)

    def test_non_utf8_byte_reports_its_line(self, tmp_path):
        # far past the first chunk the text reader decodes
        f = tmp_path / "t.txt"
        f.write_bytes(b"".join(b"e%d\tr\te%d\n" % (i, i + 1) for i in range(3000))
                      + b"caf\xe9\tr\tB\n")
        with pytest.raises(ParseError, match=r"t\.txt:3001: not UTF-8 text"):
            load_triples(f)

    def test_reserved_marker_rejected(self, tmp_path):
        f = write(tmp_path / "t.txt", f"A\tr{INVERSE_MARKER}\tB\n")
        with pytest.raises(VocabularyError):
            load_triples(f)

    def test_ids_follow_first_appearance(self, tmp_path):
        f = write(tmp_path / "t.txt", "B\ts\tA\nA\tr\tB\n")
        g = load_triples(f)
        assert g.vocab.entity_names[:2] == ["B", "A"]
        assert g.vocab.relation_names[:2] == ["s", "r"]

    def test_crlf_and_missing_final_newline(self, tmp_path):
        lf = load_triples(write(tmp_path / "lf.txt", "A\tr\tB\nB\ts\tC\n"))
        for name, data in (("crlf.txt", b"A\tr\tB\r\nB\ts\tC\r\n"),
                           ("open.txt", b"A\tr\tB\nB\ts\tC")):
            (tmp_path / name).write_bytes(data)
            g = load_triples(tmp_path / name)
            assert g.edges == lf.edges, name
            assert g.vocab.entity_names == lf.vocab.entity_names, name

    @pytest.mark.parametrize("line, message", [(" \t\t ", "blank line not allowed"),
                                               ("\t\t", "blank line not allowed"),
                                               ("#A\tr\tB", "comment lines not allowed"),
                                               (" \t# A\tr\tB", "comment lines not allowed")])
    def test_three_field_blank_or_comment_line_reports_line(self, tmp_path, line, message):
        f = write(tmp_path / "t.txt", f"A\tr\tB\n{line}\nB\ts\tC\n")
        with pytest.raises(ParseError, match=rf"t\.txt:2: {message}$"):
            load_triples(f)


class TestAugmentInverses:
    def test_single_edge(self):
        g = make_graph([("A", "r", "B")])
        aug = augment_inverses(g)
        assert aug.n_relations == 2
        assert aug.n_edges == 2
        r = aug.vocab.relation_id("r")
        rinv = aug.vocab.relation_id("r" + INVERSE_MARKER)
        a, b = aug.vocab.entity_id("A"), aug.vocab.entity_id("B")
        assert aug.neighbors(b, rinv) == (a,)
        assert aug.inverse_relation(r) == rinv
        assert aug.inverse_relation(rinv) == r

    def test_edge_count_doubles(self, rng):
        g = random_graph(rng, augment=False)
        edges_before, relations_before = g.n_edges, g.n_relations
        aug = augment_inverses(g)
        assert aug.n_edges == 2 * edges_before
        assert aug.n_relations == 2 * relations_before

    def test_reaugmentation_rejected(self):
        aug = augment_inverses(make_graph([("A", "r", "B")]))
        with pytest.raises(VocabularyError):
            augment_inverses(aug)

    def test_inverse_answering_matches_reversed_answering(self, rng):
        g = random_graph(rng, augment=False)
        aug = augment_inverses(g)
        for h, r, t in g.edges:
            rinv = aug.inverse_relation(r)
            assert h in aug.neighbors(t, rinv)
            assert aug.neighbors(t, rinv) == g.sources(t, r)


class TestNeighbors:
    def test_basic(self):
        g = make_graph([("A", "r", "B"), ("A", "r", "C")])
        a = g.vocab.entity_id("A")
        r = g.vocab.relation_id("r")
        assert g.neighbors(a, r) == tuple(
            sorted((g.vocab.entity_id("B"), g.vocab.entity_id("C")))
        )

    def test_missing_pair_is_empty(self):
        g = make_graph([("A", "r", "B")])
        assert g.neighbors(g.vocab.entity_id("B"), g.vocab.relation_id("r")) == ()

    def test_matches_linear_scan(self, rng):
        g = random_graph(rng, n_edges=50)
        for e in range(g.n_entities):
            for r in range(g.n_relations):
                expected = tuple(sorted(t for (h, rr, t) in g.edges if h == e and rr == r))
                assert g.neighbors(e, r) == expected

    def test_project_frontier_matches_per_entity_lookups(self, rng):
        # frontiers from one entity up to most of the graph
        g = random_graph(rng, n_entities=40, n_edges=200)
        for _ in range(50):
            size = int(rng.integers(1, 30))
            frontier = {int(e) for e in rng.choice(40, size=size, replace=False)}
            r = int(rng.integers(g.n_relations))
            expected = set()
            for v in frontier:
                expected.update(g.neighbors(v, r))
            assert g.project_frontier(frontier, r) == expected

    def test_indices_agree_with_edges(self, rng):
        g = random_graph(rng)
        rebuilt = set()
        for e in range(g.n_entities):
            for r in range(g.n_relations):
                rebuilt.update((e, r, t) for t in g.neighbors(e, r))
        assert rebuilt == set(g.edges)
        rebuilt_in = set()
        for e in range(g.n_entities):
            for r in range(g.n_relations):
                rebuilt_in.update((h, r, e) for h in g.sources(e, r))
        assert rebuilt_in == set(g.edges)


class TestIdRangeCheck:
    def test_entity_ids_outside_range_rejected(self, rng):
        g = random_graph(rng)
        for bad in (-1, g.n_entities):
            with pytest.raises(VocabularyError, match=f"entity id {bad} out of range"):
                g.neighbors(bad, 0)
            with pytest.raises(VocabularyError, match=f"entity id {bad} out of range"):
                g.sources(bad, 0)
            with pytest.raises(VocabularyError, match=f"entity id {bad} out of range"):
                g.relations_into(bad)

    def test_relation_ids_outside_range_rejected(self, rng):
        g = random_graph(rng)
        for bad in (-1, g.n_relations):
            with pytest.raises(VocabularyError, match=f"relation id {bad} out of range"):
                g.neighbors(0, bad)
            with pytest.raises(VocabularyError, match=f"relation id {bad} out of range"):
                g.sources(0, bad)

    def test_ids_at_the_ends_of_the_range_accepted(self, rng):
        g = random_graph(rng)
        last_e, last_r = g.n_entities - 1, g.n_relations - 1
        assert g.neighbors(0, 0) == tuple(sorted(t for h, r, t in g.edges if (h, r) == (0, 0)))
        assert g.sources(last_e, last_r) == tuple(
            sorted(h for h, r, t in g.edges if (r, t) == (last_r, last_e)))
        assert g.relations_into(last_e) == tuple(sorted({r for _, r, t in g.edges if t == last_e}))

    def test_range_follows_the_shared_vocabulary(self):
        # augment_inverses grows the vocabulary in place; graphs built
        # before it must accept the new relation ids
        g = make_graph([("A", "r", "B")])
        with pytest.raises(VocabularyError):
            g.neighbors(0, 1)
        augment_inverses(g)
        assert g.neighbors(0, g.vocab.relation_id("r" + INVERSE_MARKER)) == ()


def assert_same_graph(got, want):
    """Equal edge sets and equal answers to every index lookup."""
    assert got.edges == want.edges
    assert got.n_edges == want.n_edges
    for e in range(want.n_entities):
        assert got.relations_into(e) == want.relations_into(e)
        for r in range(want.n_relations):
            assert got.neighbors(e, r) == want.neighbors(e, r)
            assert got.sources(e, r) == want.sources(e, r)


def repeating_split_files(tmp_path, seed=5, n_entities=15, n_relations=3):
    """Train/valid/test files of a seeded random graph in which valid and
    test repeat some train triples and test repeats some valid triples.
    Returns the paths and the name triples of each file."""
    rng = np.random.default_rng(seed)

    def draw(n):
        return {(f"e{rng.integers(n_entities)}", f"r{rng.integers(n_relations)}",
                 f"e{rng.integers(n_entities)}") for _ in range(n)}

    # every entity and relation appears in train, as build_split_graphs requires
    train = draw(60) | {(f"e{i}", f"r{i % n_relations}", f"e{(i + 1) % n_entities}")
                        for i in range(n_entities)}
    fresh = sorted(draw(30) - train)
    ordered_train = sorted(train)
    valid = set(fresh[:10]) | {ordered_train[i] for i in rng.choice(len(train), 4, replace=False)}
    test = (set(fresh[10:]) | {ordered_train[i] for i in rng.choice(len(train), 4, replace=False)}
            | set(sorted(valid)[:3]))
    assert valid & train and test & train and test & valid and test - valid - train
    files = []
    for name, triples in (("train", train), ("valid", valid), ("test", test)):
        files.append(write(tmp_path / f"{name}.txt",
                           "".join(f"{h}\t{r}\t{t}\n" for h, r, t in sorted(triples))))
    return files, (train, valid, test)


class TestDeltaBuild:
    def expected_graphs(self, vocab, triples):
        train, valid, test = (
            {(vocab.entity_id(h), vocab.relation_id(r), vocab.entity_id(t)) for h, r, t in part}
            for part in triples)
        return [augment_inverses(KnowledgeGraph(vocab, base))
                for base in (train, train | valid, train | valid | test)]

    def assert_matches_full_builds(self, splits, triples):
        n_ent, n_rel = splits.vocab.n_entities, splits.vocab.n_relations
        wants = self.expected_graphs(splits.vocab, triples)
        # building the references registers no new names
        assert (splits.vocab.n_entities, splits.vocab.n_relations) == (n_ent, n_rel)
        for got, want in zip((splits.train, splits.valid, splits.test), wants):
            assert_same_graph(got, want)

    def assert_shares_untouched_keys(self, base, graph):
        added = graph.edges - base.edges
        assert added
        for index, touched in (("_out", {(h, r) for h, r, _ in added}),
                               ("_in", {(t, r) for _, r, t in added}),
                               ("_relations_into", {t for _, _, t in added})):
            base_index, index = getattr(base, index), getattr(graph, index)
            untouched = [k for k in base_index if k not in touched]
            assert untouched and touched
            for k in untouched:
                assert index[k] is base_index[k]
            assert all(k in index for k in touched)

    def test_split_graphs_equal_full_builds(self, tmp_path):
        files, triples = repeating_split_files(tmp_path)
        self.assert_matches_full_builds(build_split_graphs(*files), triples)

    def test_snapshot_graphs_equal_full_builds(self, tmp_path):
        files, triples = repeating_split_files(tmp_path)
        snap = tmp_path / "snapshot.txt"
        save_splits(build_split_graphs(*files), snap)
        self.assert_matches_full_builds(load_splits(snap), triples)

    def test_untouched_index_entries_are_shared(self, tmp_path):
        files, _ = repeating_split_files(tmp_path)
        splits = build_split_graphs(*files)
        snap = tmp_path / "snapshot.txt"
        save_splits(splits, snap)
        for s in (splits, load_splits(snap)):
            self.assert_shares_untouched_keys(s.train, s.valid)
            self.assert_shares_untouched_keys(s.valid, s.test)

    def test_base_edges_in_the_delta_are_dropped(self):
        base = make_graph([("A", "r", "B"), ("B", "r", "C")])
        a, b, c = (base.vocab.entity_id(n) for n in "ABC")
        r = base.vocab.relation_id("r")
        g = KnowledgeGraph(base.vocab, [(a, r, b), (a, r, c), (a, r, c)], base=base)
        assert g.edges == {(a, r, b), (b, r, c), (a, r, c)}
        assert g.neighbors(a, r) == tuple(sorted((b, c)))
        assert g.relations_into(b) == (r,)
        assert base.neighbors(a, r) == (b,)

    def test_out_of_range_delta_edge_rejected(self):
        base = make_graph([("A", "r", "B")])
        with pytest.raises(VocabularyError, match="unknown entity id"):
            KnowledgeGraph(base.vocab, [(0, 0, 2)], base=base)
        with pytest.raises(VocabularyError, match="unknown relation id"):
            KnowledgeGraph(base.vocab, [(0, 1, 1)], base=base)


class TestBuildSplitGraphs:
    def test_hand_counts(self, tmp_path):
        train = write(tmp_path / "train.txt", "A\tr\tB\n")
        valid = write(tmp_path / "valid.txt", "B\tr\tA\n")
        test = write(tmp_path / "test.txt", "A\tr\tA\n")
        splits = build_split_graphs(train, valid, test)
        assert splits.train.n_edges == 2
        assert splits.valid.n_edges == 4
        assert splits.test.n_edges == 6

    def test_duplicate_edge_collapses(self, tmp_path):
        train = write(tmp_path / "train.txt", "A\tr\tB\nB\tr\tA\n")
        valid = write(tmp_path / "valid.txt", "A\tr\tB\n")
        test = write(tmp_path / "test.txt", "B\tr\tA\n")
        splits = build_split_graphs(train, valid, test)
        assert splits.valid.n_edges == splits.train.n_edges
        assert splits.test.n_edges == splits.train.n_edges

    def test_nesting_invariant(self, tmp_path):
        train = write(tmp_path / "train.txt", "A\tr\tB\nB\ts\tC\n")
        valid = write(tmp_path / "valid.txt", "C\tr\tA\n")
        test = write(tmp_path / "test.txt", "A\ts\tC\n")
        splits = build_split_graphs(train, valid, test)
        assert splits.train.edges <= splits.valid.edges <= splits.test.edges
        for h, r, t in splits.train.edges:
            assert t in splits.valid.neighbors(h, r)
            assert t in splits.test.neighbors(h, r)

    def test_new_entity_outside_train_rejected(self, tmp_path):
        train = write(tmp_path / "train.txt", "A\tr\tB\n")
        valid = write(tmp_path / "valid.txt", "A\tr\tZ\n")
        test = write(tmp_path / "test.txt", "A\tr\tB\n")
        with pytest.raises(VocabularyError, match="Z"):
            build_split_graphs(train, valid, test)

    def test_graphs_equal_augmented_base_graphs(self, tmp_path):
        train = write(tmp_path / "train.txt", "A\tr\tB\nB\ts\tC\nC\tr\tD\n")
        valid = write(tmp_path / "valid.txt", "C\tr\tA\nD\ts\tB\n")
        test = write(tmp_path / "test.txt", "A\ts\tC\nB\tr\tB\n")
        splits = build_split_graphs(train, valid, test)
        vocab = splits.vocab
        for got in (splits.train, splits.valid, splits.test):
            base = {e for e in got.edges
                    if not vocab.relation_names[e[1]].endswith(INVERSE_MARKER)}
            want = augment_inverses(KnowledgeGraph(vocab, base))
            assert got.edges == want.edges
            for e in range(vocab.n_entities):
                assert got.relations_into(e) == want.relations_into(e)
                for r in range(vocab.n_relations):
                    assert got.neighbors(e, r) == want.neighbors(e, r)
                    assert got.sources(e, r) == want.sources(e, r)

    def test_raw_stats(self, tmp_path):
        train = write(tmp_path / "train.txt", "A\tr\tB\nB\ts\tC\n")
        valid = write(tmp_path / "valid.txt", "C\tr\tA\n")
        test = write(tmp_path / "test.txt", "A\ts\tC\n")
        splits = build_split_graphs(train, valid, test)
        assert splits.raw_stats == {
            "entities": 3,
            "relations": 2,
            "train_edges": 2,
            "valid_edges": 1,
            "test_edges": 1,
            "total_edges": 4,
        }


def line_count(path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(1 for _ in f)


def assert_held_out_entities_in_train(paths):
    """The filter predicate, checked by brute force on written files."""
    train_lines = paths[0].read_text(encoding="utf-8").splitlines()
    covered = set()
    for line in train_lines:
        h, _, t = line.split("\t")
        covered.update((h, t))
    for path in paths[1:]:
        for line in path.read_text(encoding="utf-8").splitlines():
            h, _, t = line.split("\t")
            assert h in covered and t in covered


class TestPrepareNell:
    def chain_files(self, tmp_path, n=10):
        lines = [f"e{i}\tr\te{i + 1}" for i in range(n)]
        return [write(tmp_path / "whole.txt", "\n".join(lines) + "\n")]

    def test_fixed_seed_split(self, tmp_path):
        files = self.chain_files(tmp_path)
        out = prepare_nell(files, valid_size=2, test_size=2, seed=7, out_dir=tmp_path / "o")
        counts = [line_count(p) for p in out]
        assert counts[0] >= 6
        assert counts[1] <= 2 and counts[2] <= 2
        assert sum(counts) == 10  # nothing dropped
        assert_held_out_entities_in_train(out)

    def test_synthetic_split_applies_same_filter(self, tmp_path):
        triples = synthesize_triples("tree", 15)
        out = write_synthetic_split(triples, tmp_path / "o", 0.3, 0.3, seed=7)
        counts = [line_count(p) for p in out]
        assert sum(counts) == len(triples)  # nothing dropped
        assert counts[1] > 0 and counts[2] > 0
        # the round()ed draw holds out 4 + 4, the filter returns some of them
        assert counts[1] + counts[2] < 8
        assert_held_out_entities_in_train(out)

    def test_deterministic(self, tmp_path):
        files = self.chain_files(tmp_path)
        out1 = prepare_nell(files, 2, 2, seed=3, out_dir=tmp_path / "a")
        out2 = prepare_nell(files, 2, 2, seed=3, out_dir=tmp_path / "b")
        for p1, p2 in zip(out1, out2):
            assert p1.read_bytes() == p2.read_bytes()

    def test_zero_sizes_put_all_in_train(self, tmp_path):
        files = self.chain_files(tmp_path)
        out = prepare_nell(files, 0, 0, seed=1, out_dir=tmp_path / "o")
        assert line_count(out[0]) == 10
        assert out[1].read_text(encoding="utf-8") == ""

    def test_oversized_sample_rejected(self, tmp_path):
        files = self.chain_files(tmp_path)
        with pytest.raises(ValueError):
            prepare_nell(files, 6, 6, seed=1, out_dir=tmp_path / "o")


class TestSnapshotRoundTrip:
    def test_round_trip_identical(self, tmp_path):
        train = write(tmp_path / "train.txt", "A\tr\tB\nB\ts\tC\n")
        valid = write(tmp_path / "valid.txt", "C\tr\tA\n")
        test = write(tmp_path / "test.txt", "A\ts\tC\n")
        splits = build_split_graphs(train, valid, test)
        snap = tmp_path / "snapshot.txt"
        save_splits(splits, snap)
        loaded = load_splits(snap)
        assert loaded.train.edges == splits.train.edges
        assert loaded.valid.edges == splits.valid.edges
        assert loaded.test.edges == splits.test.edges
        assert loaded.vocab.entity_names == splits.vocab.entity_names
        assert loaded.vocab.relation_names == splits.vocab.relation_names
        assert loaded.raw_stats == splits.raw_stats

        # and the snapshot itself is reproducible
        snap2 = tmp_path / "snapshot2.txt"
        save_splits(loaded, snap2)
        assert snap.read_bytes() == snap2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        bad = write(tmp_path / "bad.txt", "not a snapshot\n")
        with pytest.raises(ParseError):
            load_splits(bad)

    def test_truncated_snapshot_rejected(self, tmp_path):
        bad = write(tmp_path / "trunc.txt", "boxquery-splits v1\nstats \nentities 5\na\n")
        with pytest.raises(ParseError, match="corrupt"):
            load_splits(bad)


    def test_unknown_id_in_edge_line_rejected(self, tmp_path):
        train = write(tmp_path / "train.txt", "A\tr\tB\nB\ts\tC\n")
        valid = write(tmp_path / "valid.txt", "C\tr\tA\n")
        test = write(tmp_path / "test.txt", "A\ts\tC\n")
        snap = tmp_path / "snapshot.txt"
        save_splits(build_split_graphs(train, valid, test), snap)
        lines = snap.read_text(encoding="utf-8").splitlines()
        first_edge = next(i for i, line in enumerate(lines) if line.startswith("train ")) + 1
        lines[first_edge] = "9\t0\t1"
        snap.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="corrupt snapshot.*unknown entity id") as exc:
            load_splits(snap)
        assert str(exc.value).startswith(f"{snap}: ")

    @pytest.mark.parametrize("label", ["valid-extra", "test-extra"])
    @pytest.mark.parametrize("bad_edge", ["9\t0\t1", "1\t0\t9", "-1\t0\t1"])
    def test_unknown_id_in_extra_edge_line_rejected(self, tmp_path, label, bad_edge):
        train = write(tmp_path / "train.txt", "A\tr\tB\nB\ts\tC\n")
        valid = write(tmp_path / "valid.txt", "C\tr\tA\n")
        test = write(tmp_path / "test.txt", "A\ts\tC\n")
        snap = tmp_path / "snapshot.txt"
        save_splits(build_split_graphs(train, valid, test), snap)
        lines = snap.read_text(encoding="utf-8").splitlines()
        first_edge = next(i for i, line in enumerate(lines) if line.startswith(label + " ")) + 1
        lines[first_edge] = bad_edge
        snap.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="corrupt snapshot.*unknown entity id") as exc:
            load_splits(snap)
        assert str(exc.value).startswith(f"{snap}: ")


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "artifact.bin"
        path.write_bytes(b"previous")
        with pytest.raises(RuntimeError, match="serializer"):
            with _atomic_open(path, "wb") as f:
                f.write(b"partial")
                raise RuntimeError("serializer failed part-way")
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.bin"]

    def test_completed_write_replaces_file(self, tmp_path):
        path = tmp_path / "artifact.txt"
        path.write_text("previous\n", encoding="utf-8")
        with _atomic_open(path) as f:
            f.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]
