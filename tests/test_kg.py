import pytest

from boxquery.errors import ParseError, VocabularyError
from boxquery.kg import (
    _atomic_open,
    INVERSE_MARKER,
    Vocabulary,
    augment_inverses,
    build_split_graphs,
    load_splits,
    load_triples,
    prepare_nell,
    save_splits,
)

from conftest import make_graph, random_graph


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

    def test_reserved_marker_rejected(self, tmp_path):
        f = write(tmp_path / "t.txt", f"A\tr{INVERSE_MARKER}\tB\n")
        with pytest.raises(VocabularyError):
            load_triples(f)

    def test_frozen_vocab_rejects_unknown(self, tmp_path):
        f1 = write(tmp_path / "a.txt", "A\tr\tB\n")
        g = load_triples(f1)
        g.vocab.freeze()
        f2 = write(tmp_path / "b.txt", "A\tr\tC\n")
        with pytest.raises(VocabularyError):
            load_triples(f2, g.vocab)

    def test_ids_follow_first_appearance(self, tmp_path):
        f = write(tmp_path / "t.txt", "B\ts\tA\nA\tr\tB\n")
        g = load_triples(f)
        assert g.vocab.entity_names[:2] == ["B", "A"]
        assert g.vocab.relation_names[:2] == ["s", "r"]


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
        # both the small-set and the vectorized paths must agree
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

        # filter predicate, checked by brute force
        train_lines = out[0].read_text(encoding="utf-8").splitlines()
        covered = set()
        for line in train_lines:
            h, _, t = line.split("\t")
            covered.update((h, t))
        for path in out[1:]:
            for line in path.read_text(encoding="utf-8").splitlines():
                h, _, t = line.split("\t")
                assert h in covered and t in covered

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
