import gc
import re
import tracemalloc

import numpy as np
import pytest

from boxquery.errors import ParseError, VocabularyError
from boxquery.kg import (
    _atomic_open,
    INVERSE_MARKER,
    KnowledgeGraph,
    Vocabulary,
    _with_inverses,
    build_split_graphs,
    load_splits,
    prepare_nell,
    save_splits,
)
from boxquery.synth import synthesize_triples, write_synthetic_split

from conftest import drop_inverse_edge, make_graph, random_graph
from oracles import DictKnowledgeGraph, augment_inverses, edge_set, load_triples


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
            assert edge_set(g) == edge_set(lf), name
            assert g.vocab.entity_names == lf.vocab.entity_names, name

    @pytest.mark.parametrize("line, message", [(" \t\t ", "blank line not allowed"),
                                               ("\t\t", "blank line not allowed"),
                                               ("#A\tr\tB", "comment lines not allowed"),
                                               (" \t# A\tr\tB", "comment lines not allowed")])
    def test_three_field_blank_or_comment_line_reports_line(self, tmp_path, line, message):
        f = write(tmp_path / "t.txt", f"A\tr\tB\n{line}\nB\ts\tC\n")
        with pytest.raises(ParseError, match=rf"t\.txt:2: {message}$"):
            load_triples(f)


class TestParseErrorLines:
    """Each bad line fails with its kind and `file:line`; the first bad line
    in the file wins, whatever kind of fault the lines after it have."""

    @pytest.mark.parametrize("line, error, message", [
        ("B\ts", ParseError, "expected 3 tab-separated fields, got 2"),
        (" \t\t", ParseError, "blank line not allowed"),
        ("#B\ts\tC", ParseError, "comment lines not allowed"),
        (f"B\ts{INVERSE_MARKER}\tC", VocabularyError,
         f"relation 's{INVERSE_MARKER}' contains reserved marker '{INVERSE_MARKER}'"),
        ("A\tr\t", ParseError, "empty field"),
        ("\tr\tB", ParseError, "empty field"),
        ("A\t\tB", ParseError, "empty field"),
    ])
    def test_bad_last_line_without_final_newline(self, tmp_path, line, error, message):
        f = write(tmp_path / "t.txt", f"A\tr\tB\n{line}")
        with pytest.raises(error, match=rf"t\.txt:2: {re.escape(message)}$"):
            load_triples(f)

    @pytest.mark.parametrize("lines, message", [
        ([f"A\tr{INVERSE_MARKER}\tB", "A\tr"], "t.txt:2: relation"),
        (["A\tr", f"A\tr{INVERSE_MARKER}\tB"], "t.txt:2: expected 3 tab-separated fields"),
        (["", "A\tr"], "t.txt:2: blank line"),
        (["A\tr\t", "A\tr"], "t.txt:2: empty field"),
        (["\tr\tB", "#B\ts\tC"], "t.txt:2: empty field"),
        (["A\tr", "A\t\tB"], "t.txt:2: expected 3 tab-separated fields"),
    ])
    def test_first_bad_line_wins(self, tmp_path, lines, message):
        f = write(tmp_path / "t.txt", "\n".join(["A\tr\tB", *lines, "B\ts\tC"]) + "\n")
        with pytest.raises((ParseError, VocabularyError), match=re.escape(message)):
            load_triples(f)

    def test_marker_in_an_entity_name_is_accepted(self, tmp_path):
        g = load_triples(write(tmp_path / "t.txt", f"A{INVERSE_MARKER}\tr\tB\n"))
        assert g.vocab.entity_names == [f"A{INVERSE_MARKER}", "B"]

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_bad_line_in_a_held_out_file_names_that_file(self, tmp_path, split):
        files = {name: write(tmp_path / f"{name}.txt", "A\tr\tB\nB\tr\tA\n")
                 for name in ("train", "valid", "test")}
        write(files[split], "A\tr\tB\nB\tr\n")
        with pytest.raises(ParseError) as exc:
            build_split_graphs(files["train"], files["valid"], files["test"])
        assert str(exc.value) == f"{files[split]}:2: expected 3 tab-separated fields, got 2"


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
        for h, r, t in edge_set(g):
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
                expected = tuple(sorted(t for (h, rr, t) in edge_set(g) if h == e and rr == r))
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
        assert rebuilt == edge_set(g)
        rebuilt_in = set()
        for e in range(g.n_entities):
            for r in range(g.n_relations):
                rebuilt_in.update((h, r, e) for h in g.sources(e, r))
        assert rebuilt_in == edge_set(g)


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
        edges = edge_set(g)
        assert g.neighbors(0, 0) == tuple(sorted(t for h, r, t in edges if (h, r) == (0, 0)))
        assert g.sources(last_e, last_r) == tuple(
            sorted(h for h, r, t in edges if (r, t) == (last_r, last_e)))
        assert g.relations_into(last_e) == tuple(sorted({r for _, r, t in edges if t == last_e}))

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
    assert edge_set(got) == edge_set(want)
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
        return [augment_inverses(KnowledgeGraph(vocab, sorted(base)))
                for base in (train, train | valid, train | valid | test)]

    def assert_matches_full_builds(self, splits, triples):
        n_ent, n_rel = splits.vocab.n_entities, splits.vocab.n_relations
        wants = self.expected_graphs(splits.vocab, triples)
        # building the references registers no new names
        assert (splits.vocab.n_entities, splits.vocab.n_relations) == (n_ent, n_rel)
        for got, want in zip((splits.train, splits.valid, splits.test), wants):
            assert_same_graph(got, want)

    def test_split_graphs_equal_full_builds(self, tmp_path):
        files, triples = repeating_split_files(tmp_path)
        self.assert_matches_full_builds(build_split_graphs(*files), triples)

    def test_snapshot_graphs_equal_full_builds(self, tmp_path):
        files, triples = repeating_split_files(tmp_path)
        snap = tmp_path / "snapshot.txt"
        save_splits(build_split_graphs(*files), snap)
        self.assert_matches_full_builds(load_splits(snap), triples)

    def test_memory_grows_with_the_extra_edges_not_the_train_graph(self):
        # the same extra edges over a train graph and over one four times
        # larger, made by adding entities the extra edges never touch
        def kept(build):
            gc.collect()
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            graph = build()
            gc.collect()
            size = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.stop()
            return graph, size

        rng = np.random.default_rng(3)

        def rows(n, lo, hi, n_relations=8):
            return np.stack([rng.integers(lo, hi, n), rng.integers(0, n_relations, n),
                             rng.integers(lo, hi, n)], axis=1)

        core, valid_extra, test_extra = rows(4000, 0, 1000), rows(100, 0, 1000), rows(100, 0, 1000)
        outer = rows(12000, 1000, 4000)
        sizes = []
        for train in (core, np.concatenate([core, outer])):
            vocab = Vocabulary()
            for i in range(4000):
                vocab.entity_id(f"e{i}")
            for i in range(8):
                vocab.relation_id(f"r{i}")
            train_edges, valid_edges, test_edges = (
                _with_inverses(vocab, part) for part in (train, valid_extra, test_extra))
            train_graph, train_kept = kept(lambda: KnowledgeGraph(vocab, train_edges))
            valid, valid_kept = kept(
                lambda: KnowledgeGraph(vocab, valid_edges, base=train_graph))
            test, test_kept = kept(lambda: KnowledgeGraph(vocab, test_edges, base=valid))
            # each graph also holds its own sorted edge array
            sizes.append((train_kept, valid_kept - valid.triples.nbytes,
                          test_kept - test.triples.nbytes))
        (train_small, valid_small, test_small), (train_big, valid_big, test_big) = sizes
        assert train_big > 3 * train_small
        assert valid_small < train_small / 5 and test_small < train_small / 5
        assert valid_big < 1.1 * valid_small + 4096
        assert test_big < 1.1 * test_small + 4096

    def test_base_edges_in_the_delta_are_dropped(self):
        base = make_graph([("A", "r", "B"), ("B", "r", "C")])
        a, b, c = (base.vocab.entity_id(n) for n in "ABC")
        r = base.vocab.relation_id("r")
        g = KnowledgeGraph(base.vocab, [(a, r, b), (a, r, c), (a, r, c)], base=base)
        assert edge_set(g) == {(a, r, b), (b, r, c), (a, r, c)}
        assert g.neighbors(a, r) == tuple(sorted((b, c)))
        assert g.relations_into(b) == (r,)
        assert base.neighbors(a, r) == (b,)

    def test_out_of_range_delta_edge_rejected(self):
        base = make_graph([("A", "r", "B")])
        with pytest.raises(VocabularyError, match="unknown entity id"):
            KnowledgeGraph(base.vocab, [(0, 0, 2)], base=base)
        with pytest.raises(VocabularyError, match="unknown relation id"):
            KnowledgeGraph(base.vocab, [(0, 1, 1)], base=base)


def skewed_split_files(tmp_path, seed=11, n_entities=1000, n_relations=100, n_triples=8000):
    """Train/valid/test files of a graph shaped like the benchmark's: Zipf-
    popular heads, tails and relations, no self-loops, 5% of the triples
    held out for valid and 5% for test, and any held-out triple whose names
    train lacks moved back to train. Returns the paths and name triples."""
    rng = np.random.default_rng(seed)

    def popularity(n, exponent):
        weights = 1.0 / np.arange(1, n + 1) ** exponent
        return rng.permutation(weights / weights.sum())

    head_p, tail_p = popularity(n_entities, 0.8), popularity(n_entities, 0.8)
    rel_p = popularity(n_relations, 1.0)
    triples: dict = {}
    while len(triples) < n_triples:
        draw = zip(rng.choice(n_entities, 4096, p=head_p).tolist(),
                   rng.choice(n_relations, 4096, p=rel_p).tolist(),
                   rng.choice(n_entities, 4096, p=tail_p).tolist())
        for h, r, t in draw:
            if h != t and len(triples) < n_triples:
                triples[(f"e{h}", f"r{r}", f"e{t}")] = None
    order = list(triples)
    held = [order[i] for i in rng.permutation(n_triples)[: n_triples // 10]]
    train = set(order) - set(held)
    splits = {"valid": set(held[: n_triples // 20]), "test": set(held[n_triples // 20:])}
    for name in ("valid", "test"):
        entities = {x for h, _, t in train for x in (h, t)}
        relations = {r for _, r, _ in train}
        back = {e for e in splits[name]
                if not (e[0] in entities and e[2] in entities and e[1] in relations)}
        train |= back
        splits[name] -= back
    files = []
    for name, part in (("train", train), ("valid", splits["valid"]), ("test", splits["test"])):
        files.append(write(tmp_path / f"{name}.txt",
                           "".join(f"{h}\t{r}\t{t}\n" for h, r, t in sorted(part))))
    return files, (train, splits["valid"], splits["test"])


class TestArrayGraphsMatchDictOracle:
    """Every lookup of the array-built split graphs, from triple files and
    from a snapshot, equals the per-edge dict build's."""

    def oracle_splits(self, vocab, triples):
        def ids(part):
            edges = set()
            for h, r, t in part:
                h, t = vocab.entity_id(h), vocab.entity_id(t)
                edges |= {(h, vocab.relation_id(r), t),
                          (t, vocab.relation_id(r + INVERSE_MARKER), h)}
            return edges

        train = DictKnowledgeGraph(vocab, ids(triples[0]))
        valid = DictKnowledgeGraph(vocab, ids(triples[1]), base=train)
        return train, valid, DictKnowledgeGraph(vocab, ids(triples[2]), base=valid)

    def answers(self, graph, frontiers):
        n_ent, n_rel = graph.n_entities, graph.n_relations
        pairs = [(e, r) for e in range(n_ent) for r in range(n_rel)]
        return (graph.n_edges,
                [graph.neighbors(e, r) for e, r in pairs],
                [graph.sources(e, r) for e, r in pairs],
                [graph.relations_into(e) for e in range(n_ent)],
                [graph.project_frontier(f, r) for f in frontiers for r in range(n_rel)])

    def assert_same_answers(self, got, want, want_answers, frontiers):
        n_ent, n_rel = want.n_entities, want.n_relations
        assert edge_set(got) == want.edges
        assert self.answers(got, frontiers) == want_answers
        for bad in (-1, n_ent):
            for graph in (got, want):
                with pytest.raises(VocabularyError, match=f"entity id {bad} out of range"):
                    graph.neighbors(bad, 0)
                with pytest.raises(VocabularyError, match=f"entity id {bad} out of range"):
                    graph.relations_into(bad)
        for bad in (-1, n_rel):
            for graph in (got, want):
                with pytest.raises(VocabularyError, match=f"relation id {bad} out of range"):
                    graph.sources(0, bad)

    def check(self, tmp_path, files, triples):
        splits = build_split_graphs(*files)
        snap = tmp_path / "snapshot.txt"
        save_splits(splits, snap)
        loaded = load_splits(snap)
        assert loaded.vocab.entity_names == splits.vocab.entity_names
        assert loaded.vocab.relation_names == splits.vocab.relation_names
        wants = self.oracle_splits(splits.vocab, triples)
        n_ent = splits.vocab.n_entities
        rng = np.random.default_rng(0)
        frontiers = [set(), {0}, {n_ent - 1}, set(range(n_ent))]
        frontiers += [set(rng.choice(n_ent, size=int(rng.integers(1, n_ent + 1)),
                                     replace=False).tolist()) for _ in range(4)]
        for level, want in enumerate(wants):
            want_answers = self.answers(want, frontiers)
            for got in (splits, loaded):
                graph = (got.train, got.valid, got.test)[level]
                self.assert_same_answers(graph, want, want_answers, frontiers)

    @pytest.mark.parametrize("seed, n_entities, n_relations",
                             [(2, 8, 1), (8, 6, 2), (2, 15, 3), (3, 30, 2), (4, 40, 5)])
    def test_random_graphs(self, tmp_path, seed, n_entities, n_relations):
        self.check(tmp_path, *repeating_split_files(tmp_path, seed, n_entities, n_relations))

    def test_skewed_graph_of_the_benchmark_shape(self, tmp_path):
        self.check(tmp_path, *skewed_split_files(tmp_path))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_delta_chains_without_inverses(self, seed):
        # a head and a tail of an added edge differ here, unlike in
        # inverse-augmented splits, where each is also the other
        rng = np.random.default_rng(seed)
        vocab = Vocabulary()
        for i in range(12):
            vocab.entity_id(f"e{i}")
        for i in range(3):
            vocab.relation_id(f"r{i}")
        got = want = None
        for n in (30, 8, 8, 5):
            edges = [tuple(e) for e in rng.integers(0, [12, 3, 12], size=(n, 3)).tolist()]
            got = KnowledgeGraph(vocab, edges, base=got)
            want = DictKnowledgeGraph(vocab, edges, base=want)
            frontiers = [set(), set(range(12)), {0, 11}]
            self.assert_same_answers(got, want, self.answers(want, frontiers), frontiers)


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
        assert edge_set(splits.train) <= edge_set(splits.valid) <= edge_set(splits.test)
        for h, r, t in edge_set(splits.train):
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
            base = {e for e in edge_set(got)
                    if not vocab.relation_names[e[1]].endswith(INVERSE_MARKER)}
            want = augment_inverses(KnowledgeGraph(vocab, sorted(base)))
            assert edge_set(got) == edge_set(want)
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
        assert edge_set(loaded.train) == edge_set(splits.train)
        assert edge_set(loaded.valid) == edge_set(splits.valid)
        assert edge_set(loaded.test) == edge_set(splits.test)
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

    @pytest.mark.parametrize("label", ["train", "valid-extra", "test-extra"])
    def test_edge_without_its_inverse_rejected(self, tmp_path, label):
        # each block holds the inverse of each of its edges
        train = write(tmp_path / "train.txt", "A\tr\tB\nB\ts\tC\n")
        valid = write(tmp_path / "valid.txt", "C\tr\tA\n")
        test = write(tmp_path / "test.txt", "A\ts\tC\n")
        snap = tmp_path / "snapshot.txt"
        save_splits(build_split_graphs(train, valid, test), snap)
        drop_inverse_edge(snap, label)
        with pytest.raises(ParseError, match=f"corrupt snapshot: {label} edge "
                                             r"\(\d+,\d+,\d+\) has no inverse") as exc:
            load_splits(snap)
        assert str(exc.value).startswith(f"{snap}: ")

    def test_relation_without_its_inverse_rejected(self, tmp_path):
        # renaming r^-1 leaves r, relation 0, without its inverse
        train = write(tmp_path / "train.txt", "A\tr\tB\nB\ts\tC\n")
        snap = tmp_path / "snapshot.txt"
        save_splits(build_split_graphs(train, write(tmp_path / "v.txt", ""),
                                       write(tmp_path / "t.txt", "")), snap)
        text = snap.read_text(encoding="utf-8")
        assert text.count("\nr^-1\n") == 1
        snap.write_text(text.replace("\nr^-1\n", "\nq\n"), encoding="utf-8")
        with pytest.raises(ParseError, match="corrupt snapshot: relation 0 has no inverse"):
            load_splits(snap)

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
