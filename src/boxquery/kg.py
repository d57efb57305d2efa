"""Knowledge graph storage: vocabularies, triple files, inverse augmentation, splits.

Graphs are immutable after construction. A triple file is UTF-8 text, one
triple per line, fields separated by a single tab; blank lines and comment
lines are rejected.
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
# not contain it, which makes double augmentation detectable.
INVERSE_MARKER = "^-1"

SNAPSHOT_MAGIC = "boxquery-splits v1"


class Vocabulary:
    """Dense integer ids for entity and relation names.

    Ids are assigned in first-appearance order, so identical input order
    yields identical ids. A frozen vocabulary rejects unknown names instead
    of extending itself.
    """

    def __init__(self) -> None:
        self.entity_names: list[str] = []
        self.relation_names: list[str] = []
        self._entity_ids: dict[str, int] = {}
        self._relation_ids: dict[str, int] = {}
        self.frozen = False

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def entity_id(self, name: str) -> int:
        eid = self._entity_ids.get(name)
        if eid is None:
            if self.frozen:
                raise VocabularyError(f"unknown entity {name!r} in frozen vocabulary")
            eid = len(self.entity_names)
            self.entity_names.append(name)
            self._entity_ids[name] = eid
        return eid

    def relation_id(self, name: str) -> int:
        rid = self._relation_ids.get(name)
        if rid is None:
            if self.frozen:
                raise VocabularyError(f"unknown relation {name!r} in frozen vocabulary")
            rid = len(self.relation_names)
            self.relation_names.append(name)
            self._relation_ids[name] = rid
        return rid

    def has_relation(self, name: str) -> bool:
        return name in self._relation_ids

    def freeze(self) -> None:
        self.frozen = True

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
    """Immutable directed labeled graph with (entity, relation) adjacency indices."""

    def __init__(self, vocab: Vocabulary, edges: Iterable[tuple[int, int, int]]):
        self.vocab = vocab
        edge_set = set()
        for h, r, t in edges:
            if not (0 <= h < vocab.n_entities and 0 <= t < vocab.n_entities):
                raise VocabularyError(f"edge ({h},{r},{t}) references unknown entity id")
            if not (0 <= r < vocab.n_relations):
                raise VocabularyError(f"edge ({h},{r},{t}) references unknown relation id")
            edge_set.add((h, r, t))
        self.edges: frozenset[tuple[int, int, int]] = frozenset(edge_set)

        out: dict[tuple[int, int], list[int]] = {}
        inc: dict[tuple[int, int], list[int]] = {}
        rels_in: dict[int, set[int]] = {}
        for h, r, t in edge_set:
            out.setdefault((h, r), []).append(t)
            inc.setdefault((t, r), []).append(h)
            rels_in.setdefault(t, set()).add(r)
        self._out = {k: tuple(sorted(v)) for k, v in out.items()}
        self._in = {k: tuple(sorted(v)) for k, v in inc.items()}
        self._relations_into = {e: tuple(sorted(rs)) for e, rs in rels_in.items()}
        self._edge_columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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

        Large frontiers go through vectorized edge-column filtering, which is
        much faster than per-entity lookups on dense graphs.
        """
        if len(entities) < 8:
            out: set[int] = set()
            for v in entities:
                out.update(self._out.get((v, relation), ()))
            return out
        columns = self._edge_columns
        if not columns:
            grouped: dict[int, list[tuple[int, int]]] = {}
            for h, r, t in self.edges:
                grouped.setdefault(r, []).append((h, t))
            columns = {
                r: tuple(np.asarray(c, dtype=np.int64) for c in zip(*pairs))
                for r, pairs in grouped.items()
            }
            self._edge_columns = columns
        empty = np.empty(0, dtype=np.int64)
        heads, tails = columns.get(relation, (empty, empty))
        mask = np.isin(heads, np.fromiter(entities, dtype=np.int64, count=len(entities)))
        return {int(t) for t in np.unique(tails[mask])}

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
        if not 0 <= entity < self.n_entities:
            raise VocabularyError(f"entity id {entity} out of range")
        if relation is not None and not 0 <= relation < self.n_relations:
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


def _parse_triple_lines(path: str | Path, vocab: Vocabulary) -> set[tuple[int, int, int]]:
    edges: set[tuple[int, int, int]] = set()
    with open(path, encoding="utf-8") as f:
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


def load_triples(path: str | Path, vocab: Vocabulary | None = None) -> KnowledgeGraph:
    """Load a tab-separated triple file into a graph, deduplicating edges.

    With `vocab` given, names are resolved against it; a frozen vocabulary
    turns unknown names into errors.
    """
    if vocab is None:
        vocab = Vocabulary()
    edges = _parse_triple_lines(path, vocab)
    return KnowledgeGraph(vocab, edges)


def augment_inverses(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Add an inverse relation for every base relation and mirror every edge.

    The vocabulary is extended in place (splits share it); re-augmenting a
    graph whose edges already use inverse relations is an error.
    """
    vocab = kg.vocab
    for h, r, t in kg.edges:
        if vocab.relation_names[r].endswith(INVERSE_MARKER):
            raise VocabularyError(
                f"graph already contains inverse relation {vocab.relation_names[r]!r}"
            )
    base_names = [n for n in vocab.relation_names if not n.endswith(INVERSE_MARKER)]
    inverse_ids = {vocab.relation_id(n): vocab.relation_id(n + INVERSE_MARKER) for n in base_names}
    new_edges = set(kg.edges)
    for h, r, t in kg.edges:
        new_edges.add((t, inverse_ids[r], h))
    return KnowledgeGraph(vocab, new_edges)


def build_split_graphs(
    train_file: str | Path, valid_file: str | Path, test_file: str | Path
) -> GraphSplits:
    """Build nested, inverse-augmented train/valid/test graphs from triple files.

    The valid graph is train plus the validation edges, the test graph adds
    the test edges. Entities or relations that first appear outside the
    training file are rejected; callers with such data must pre-filter
    (see prepare_nell).
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

    train = augment_inverses(KnowledgeGraph(vocab, train_edges))
    valid = augment_inverses(KnowledgeGraph(vocab, train_edges | valid_only))
    test = augment_inverses(KnowledgeGraph(vocab, train_edges | valid_only | test_only))
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

    Combines all input triples, samples validation and test sets uniformly
    without replacement, then returns to the training set any sampled triple
    whose head or tail entity does not occur in the remaining training
    triples. No triple is dropped, so the three files partition the input.
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

    ordered = sorted(all_edges)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(total)
    valid_sample = {ordered[i] for i in perm[:valid_size]}
    test_sample = {ordered[i] for i in perm[valid_size : valid_size + test_size]}
    train = all_edges - valid_sample - test_sample

    covered = set()
    for h, _, t in train:
        covered.add(h)
        covered.add(t)
    valid_kept = {e for e in valid_sample if e[0] in covered and e[2] in covered}
    test_kept = {e for e in test_sample if e[0] in covered and e[2] in covered}
    train |= (valid_sample - valid_kept) | (test_sample - test_kept)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = (out_dir / "train.txt", out_dir / "valid.txt", out_dir / "test.txt")
    for path, edges in zip(paths, (train, valid_kept, test_kept)):
        _write_triples(path, edges, vocab)
    return paths


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
    error the old file stays and the temporary is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
    """Reload a snapshot written by save_splits."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != SNAPSHOT_MAGIC:
        raise ParseError(f"not a splits snapshot (expected header {SNAPSHOT_MAGIC!r})", str(path), 1)
    try:
        return _parse_snapshot(lines, path)
    except (ValueError, IndexError) as exc:
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

    train_edges = read_edges("train")
    valid_edges = train_edges | read_edges("valid-extra")
    test_edges = valid_edges | read_edges("test-extra")
    return GraphSplits(
        KnowledgeGraph(vocab, train_edges),
        KnowledgeGraph(vocab, valid_edges),
        KnowledgeGraph(vocab, test_edges),
        stats or None,
    )
