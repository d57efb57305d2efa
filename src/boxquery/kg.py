"""Knowledge graph storage: vocabularies, triple files, inverse augmentation, splits.

Graphs are immutable after construction; the valid and test graphs of a
split are built as deltas over the graph before them and share its untouched
index entries. A triple file is UTF-8 text, one triple per line, fields
separated by a single tab; blank lines and comment lines are rejected.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ParseError, VocabularyError

# Appended to a relation name to form its inverse. Input relation names must
# not contain it, so an inverse edge is told from an input edge by its name.
INVERSE_MARKER = "^-1"

SNAPSHOT_MAGIC = "boxquery-splits v1"


class Vocabulary:
    """Dense integer ids for entity and relation names.

    Ids are assigned in first-appearance order, so identical input order
    yields identical ids.
    """

    def __init__(self) -> None:
        self.entity_names: list[str] = []
        self.relation_names: list[str] = []
        self._entity_ids: dict[str, int] = {}
        self._relation_ids: dict[str, int] = {}

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def entity_id(self, name: str) -> int:
        eid = self._entity_ids.get(name)
        if eid is None:
            eid = len(self.entity_names)
            self.entity_names.append(name)
            self._entity_ids[name] = eid
        return eid

    def relation_id(self, name: str) -> int:
        rid = self._relation_ids.get(name)
        if rid is None:
            rid = len(self.relation_names)
            self.relation_names.append(name)
            self._relation_ids[name] = rid
        return rid

    def has_relation(self, name: str) -> bool:
        return name in self._relation_ids

    def entity_hash(self) -> str:
        return _sha256_lines(self.entity_names)

    def relation_hash(self) -> str:
        return _sha256_lines(self.relation_names)


def _sha256_lines(names: Sequence[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class KnowledgeGraph:
    """Immutable labeled digraph: `base` (if any) plus `edges`.

    The indices start as shallow copies of the base's, so every key the new
    edges do not touch shares the base's tuple; one pass range-checks the new
    edges and groups them by key, and only those keys are rebuilt. Without a
    base the whole graph is built the same way from empty indices. Edges
    already in the base are dropped first.
    """

    def __init__(self, vocab: Vocabulary, edges: Iterable[tuple[int, int, int]],
                 base: KnowledgeGraph | None = None):
        self.vocab = vocab
        old = base.edges if base is not None else frozenset()
        new = frozenset(edges) - old
        self.edges: frozenset[tuple[int, int, int]] = old | new
        self._out, self._in, self._relations_into = (
            (dict(base._out), dict(base._in), dict(base._relations_into))
            if base is not None else ({}, {}, {}))
        n_ent, n_rel = vocab.n_entities, vocab.n_relations
        out: dict[tuple[int, int], list[int]] = {}
        inc: dict[tuple[int, int], list[int]] = {}
        for h, r, t in new:
            if not (0 <= h < n_ent and 0 <= t < n_ent):
                raise VocabularyError(f"edge ({h},{r},{t}) references unknown entity id")
            if not 0 <= r < n_rel:
                raise VocabularyError(f"edge ({h},{r},{t}) references unknown relation id")
            out.setdefault((h, r), []).append(t)
            inc.setdefault((t, r), []).append(h)
        rels_in: dict[int, list[int]] = {}  # relations into t that the base lacks
        for t, r in inc:
            if (t, r) not in self._in:
                rels_in.setdefault(t, []).append(r)
        for index, delta in ((self._out, out), (self._in, inc), (self._relations_into, rels_in)):
            for key, values in delta.items():
                values.extend(index.get(key, ()))
                index[key] = tuple(sorted(values))

    @property
    def n_entities(self) -> int:
        return self.vocab.n_entities

    @property
    def n_relations(self) -> int:
        return self.vocab.n_relations

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, entity: int, relation: int) -> tuple[int, ...]:
        """Entities reachable from `entity` via one `relation` edge, sorted."""
        self._check_ids(entity, relation)
        return self._out.get((entity, relation), ())

    def project_frontier(self, entities: set[int], relation: int) -> set[int]:
        """Union of neighbors(v, relation) over a whole entity set.

        One out-index lookup per frontier entity; ids are not range-checked.
        """
        out: set[int] = set()
        for v in entities:
            out.update(self._out.get((v, relation), ()))
        return out

    def sources(self, entity: int, relation: int) -> tuple[int, ...]:
        """Entities with an edge into `entity` via `relation`, sorted."""
        self._check_ids(entity, relation)
        return self._in.get((entity, relation), ())

    def relations_into(self, entity: int) -> tuple[int, ...]:
        """Relations with at least one edge ending at `entity`, sorted."""
        self._check_ids(entity, None)
        return self._relations_into.get(entity, ())

    def inverse_relation(self, relation: int) -> int | None:
        """Id of the inverse relation, if it exists in the vocabulary."""
        name = self.vocab.relation_names[relation]
        if name.endswith(INVERSE_MARKER):
            base = name[: -len(INVERSE_MARKER)]
            return self.vocab.relation_id(base) if self.vocab.has_relation(base) else None
        inv = name + INVERSE_MARKER
        return self.vocab.relation_id(inv) if self.vocab.has_relation(inv) else None

    def _check_ids(self, entity: int, relation: int | None) -> None:
        if not 0 <= entity < len(self.vocab.entity_names):
            raise VocabularyError(f"entity id {entity} out of range")
        if relation is not None and not 0 <= relation < len(self.vocab.relation_names):
            raise VocabularyError(f"relation id {relation} out of range")


@dataclass(frozen=True)
class GraphSplits:
    """Nested train/valid/test graphs over one shared vocabulary."""

    train: KnowledgeGraph
    valid: KnowledgeGraph
    test: KnowledgeGraph
    raw_stats: dict | None = None

    def __post_init__(self):
        if not (self.train.vocab is self.valid.vocab is self.test.vocab):
            raise VocabularyError("splits must share one vocabulary")
        if not self.train.edges <= self.valid.edges:
            raise VocabularyError("train edges must be a subset of valid edges")
        if not self.valid.edges <= self.test.edges:
            raise VocabularyError("valid edges must be a subset of test edges")

    @property
    def vocab(self) -> Vocabulary:
        return self.train.vocab


@contextmanager
def _open_text(path: str | Path):
    """Open a UTF-8 text file for reading; a byte that is not UTF-8 raises a
    ParseError naming the file and the line of the first such byte."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as first:  # its offset in the file, not in a chunk
                exc = first
            raise ParseError(f"not UTF-8 text ({exc.reason} at byte {exc.start})", str(path),
                             data.count(b"\n", 0, exc.start) + 1) from None


def _parse_triple_lines(path: str | Path, vocab: Vocabulary) -> set[tuple[int, int, int]]:
    edges: set[tuple[int, int, int]] = set()
    with _open_text(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                raise ParseError("blank line not allowed", str(path), lineno)
            if line.lstrip().startswith("#"):
                raise ParseError("comment lines not allowed", str(path), lineno)
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(
                    f"expected 3 tab-separated fields, got {len(fields)}", str(path), lineno
                )
            head, rel, tail = fields
            if INVERSE_MARKER in rel:
                raise VocabularyError(
                    f"{path}:{lineno}: relation {rel!r} contains reserved marker {INVERSE_MARKER!r}"
                )
            edges.add((vocab.entity_id(head), vocab.relation_id(rel), vocab.entity_id(tail)))
    return edges


def _with_inverses(vocab: Vocabulary, edges: Iterable[tuple[int, int, int]]) -> frozenset:
    """`edges` plus (t, inverse of r, h) for each, registering the inverse
    name of every base relation in `vocab`. Edges must use base relations."""
    base_names = [n for n in vocab.relation_names if not n.endswith(INVERSE_MARKER)]
    inverse_ids = {vocab.relation_id(n): vocab.relation_id(n + INVERSE_MARKER) for n in base_names}
    edges = frozenset(edges)
    return edges.union([(t, inverse_ids[r], h) for h, r, t in edges])


def build_split_graphs(
    train_file: str | Path, valid_file: str | Path, test_file: str | Path
) -> GraphSplits:
    """Build nested, inverse-augmented train/valid/test graphs from triple files.

    The valid graph is train plus the validation edges, the test graph adds
    the test edges; each is built as a delta over the graph before it, with
    inverses formed once per file. Entities or relations that first appear
    outside the training file are rejected; callers with such data must
    pre-filter (see prepare_nell).
    """
    vocab = Vocabulary()
    train_edges = _parse_triple_lines(train_file, vocab)
    n_ent, n_rel = vocab.n_entities, vocab.n_relations
    valid_only = _parse_triple_lines(valid_file, vocab)
    _require_no_new_names(vocab, n_ent, n_rel, str(valid_file))
    test_only = _parse_triple_lines(test_file, vocab)
    _require_no_new_names(vocab, n_ent, n_rel, str(test_file))

    raw_stats = {
        "entities": vocab.n_entities,
        "relations": vocab.n_relations,
        "train_edges": len(train_edges),
        "valid_edges": len(valid_only),
        "test_edges": len(test_only),
        "total_edges": len(train_edges | valid_only | test_only),
    }

    train = KnowledgeGraph(vocab, _with_inverses(vocab, train_edges))
    valid = KnowledgeGraph(vocab, _with_inverses(vocab, valid_only), base=train)
    test = KnowledgeGraph(vocab, _with_inverses(vocab, test_only), base=valid)
    return GraphSplits(train, valid, test, raw_stats)


def _require_no_new_names(vocab: Vocabulary, n_ent: int, n_rel: int, path: str) -> None:
    if vocab.n_entities > n_ent:
        extra = vocab.entity_names[n_ent : n_ent + 5]
        raise VocabularyError(
            f"{path}: entities appear only outside the training file, e.g. {extra}"
        )
    if vocab.n_relations > n_rel:
        extra = vocab.relation_names[n_rel : n_rel + 5]
        raise VocabularyError(
            f"{path}: relations appear only outside the training file, e.g. {extra}"
        )


def prepare_nell(
    whole_graph_files: Sequence[str | Path],
    valid_size: int,
    test_size: int,
    seed: int,
    out_dir: str | Path,
) -> tuple[Path, Path, Path]:
    """Re-split a whole graph into train/valid/test triple files.

    Combines all input triples and splits them with `sample_holdout`, which
    samples validation and test sets uniformly without replacement and keeps
    in train any triple whose head or tail would otherwise vanish from it.
    No triple is dropped, so the three files partition the input.
    """
    vocab = Vocabulary()
    all_edges: set[tuple[int, int, int]] = set()
    for path in whole_graph_files:
        all_edges |= _parse_triple_lines(path, vocab)
    if not all_edges:
        raise ValueError("combined triple set is empty")
    total = len(all_edges)
    if valid_size + test_size >= total:
        raise ValueError(
            f"valid_size + test_size = {valid_size + test_size} must be < {total} triples"
        )

    train, valid_kept, test_kept = sample_holdout(all_edges, valid_size, test_size, seed)

    out_dir = Path(out_dir)
    paths = (out_dir / "train.txt", out_dir / "valid.txt", out_dir / "test.txt")
    for path, edges in zip(paths, (train, valid_kept, test_kept)):
        _write_triples(path, edges, vocab)
    return paths


def sample_holdout(triples: Iterable[tuple], n_valid: int, n_test: int, seed: int) -> tuple:
    """Split triples into partitioning train, valid and test sets: one seeded
    permutation of the sorted distinct triples holds out the first `n_valid` and
    the next `n_test`, then any whose head or tail left train goes back to it."""
    for name, n in (("n_valid", n_valid), ("n_test", n_test)):
        if n < 0:
            raise ValueError(f"{name} must be at least 0, got {n}")
    ordered = sorted(set(triples))
    perm = np.random.default_rng(seed).permutation(len(ordered))
    valid = {ordered[i] for i in perm[:n_valid]}
    test = {ordered[i] for i in perm[n_valid : n_valid + n_test]}
    train = set(ordered) - valid - test

    covered = {x for h, _, t in train for x in (h, t)}
    valid_kept = {e for e in valid if e[0] in covered and e[2] in covered}
    test_kept = {e for e in test if e[0] in covered and e[2] in covered}
    train |= (valid - valid_kept) | (test - test_kept)
    return train, valid_kept, test_kept


def _write_triples(path: Path, edges: set[tuple[int, int, int]], vocab: Vocabulary) -> None:
    with _atomic_open(path) as f:
        for h, r, t in sorted(edges):
            f.write(
                f"{vocab.entity_names[h]}\t{vocab.relation_names[r]}\t{vocab.entity_names[t]}\n"
            )


@contextmanager
def _atomic_open(path: str | Path, mode: str = "w"):
    """Write a temporary file beside `path` and move it over `path` once the
    block completes: readers see the old file or the whole new one. On an
    error the old file stays and the temporary is removed. Missing parent
    directories are created first."""
    path = Path(path)
    _make_parents(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _make_parents(path: Path) -> None:
    """Create the missing parent directories of an output file; an OSError
    names the file."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def save_splits(splits: GraphSplits, path: str | Path) -> None:
    """Write a line-based snapshot of the vocabulary and the three edge sets."""
    vocab = splits.vocab
    train_edges = sorted(splits.train.edges)
    valid_extra = sorted(splits.valid.edges - splits.train.edges)
    test_extra = sorted(splits.test.edges - splits.valid.edges)
    stats = splits.raw_stats or {}
    with _atomic_open(path) as f:
        f.write(SNAPSHOT_MAGIC + "\n")
        f.write("stats " + " ".join(f"{k}={stats[k]}" for k in sorted(stats)) + "\n")
        f.write(f"entities {vocab.n_entities}\n")
        for name in vocab.entity_names:
            f.write(name + "\n")
        f.write(f"relations {vocab.n_relations}\n")
        for name in vocab.relation_names:
            f.write(name + "\n")
        for label, edges in (("train", train_edges), ("valid-extra", valid_extra),
                             ("test-extra", test_extra)):
            f.write(f"{label} {len(edges)}\n")
            for h, r, t in edges:
                f.write(f"{h}\t{r}\t{t}\n")


def load_splits(path: str | Path) -> GraphSplits:
    """Reload a snapshot written by save_splits, building valid and test as deltas."""
    with _open_text(path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != SNAPSHOT_MAGIC:
        raise ParseError(f"not a splits snapshot (expected header {SNAPSHOT_MAGIC!r})", str(path), 1)
    try:
        return _parse_snapshot(lines, path)
    except (ValueError, IndexError, VocabularyError) as exc:
        raise ParseError(f"corrupt snapshot: {exc}", str(path)) from exc


def _parse_snapshot(lines: list[str], path: str | Path) -> GraphSplits:
    pos = 1
    stats: dict = {}
    if pos < len(lines) and lines[pos].startswith("stats"):
        for kv in lines[pos].split()[1:]:
            k, v = kv.split("=", 1)
            stats[k] = int(v)
        pos += 1

    def read_block(label: str) -> tuple[list[str], int]:
        nonlocal pos
        head = lines[pos].split()
        if head[0] != label:
            raise ParseError(f"expected {label!r} section", str(path), pos + 1)
        count = int(head[1])
        block = lines[pos + 1 : pos + 1 + count]
        pos += 1 + count
        return block, count

    vocab = Vocabulary()
    names, _ = read_block("entities")
    for name in names:
        vocab.entity_id(name)
    names, _ = read_block("relations")
    for name in names:
        vocab.relation_id(name)

    def read_edges(label: str) -> set[tuple[int, int, int]]:
        block, _ = read_block(label)
        out = set()
        for line in block:
            h, r, t = line.split("\t")
            out.add((int(h), int(r), int(t)))
        return out

    train = KnowledgeGraph(vocab, read_edges("train"))
    valid = KnowledgeGraph(vocab, read_edges("valid-extra"), base=train)
    test = KnowledgeGraph(vocab, read_edges("test-extra"), base=valid)
    return GraphSplits(train, valid, test, stats or None)
