"""Knowledge graph storage: vocabularies, triple files, inverse augmentation, splits.

A triple file parses straight into an `(E, 3)` array of (head, relation,
tail) ids, and inverse augmentation mirrors the whole array at once. A graph
holds its distinct edges as a sorted id array and answers lookups from
per-relation dicts of sorted id tuples, each index built by one sort of
packed int64 keys. Graphs are immutable after construction; the valid and
test graphs of a split hold only the entries that their extra edges touch
and read every other entry from the train graph's indices. A triple file is
UTF-8 text, one triple per line, fields separated by a single tab; blank
lines and comment lines are rejected.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
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

    def entity_ids(self, names: Sequence[str]) -> np.ndarray:
        """Ids of `names`, as by `entity_id` on each in turn."""
        return _ids(names, self.entity_names, self._entity_ids)

    def relation_ids(self, names: Sequence[str]) -> np.ndarray:
        """Ids of `names`, as by `relation_id` on each in turn."""
        return _ids(names, self.relation_names, self._relation_ids)

    def has_relation(self, name: str) -> bool:
        return name in self._relation_ids

    def entity_hash(self) -> str:
        return _sha256_lines(self.entity_names)

    def relation_hash(self) -> str:
        return _sha256_lines(self.relation_names)


def _ids(names: Sequence[str], registered: list[str], ids: dict[str, int]) -> np.ndarray:
    """Register the names not yet in `ids` in order of first appearance, then
    look every name up."""
    new = [name for name in dict.fromkeys(names) if name not in ids]
    ids.update(zip(new, range(len(registered), len(registered) + len(new))))
    registered.extend(new)
    return np.fromiter(map(ids.__getitem__, names), dtype=np.int64, count=len(names))


def _sha256_lines(names: Sequence[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


class KnowledgeGraph:
    """Immutable labeled digraph: `base` (if any) plus `edges`.

    `triples` holds the distinct edges as an `(E, 3)` int32 array of (head,
    relation, tail) ids in lexicographic order. The out- and in-indices map
    a relation to a dict from an entity to the sorted tuple of its tails or
    heads, and the third index maps an entity to the sorted relations of its
    in-edges; each is built by one sort of packed int64 keys. A graph built
    over a base indexes only the keys that the edges added since the root
    (the first graph without a base) touch, from all its edges under those
    keys; a lookup that misses them reads the root's entry, which no added
    edge changed.
    """

    def __init__(self, vocab: Vocabulary, edges: np.ndarray | Sequence[tuple[int, int, int]],
                 base: KnowledgeGraph | None = None):
        self.vocab = vocab
        n_ent, n_rel = vocab.n_entities, vocab.n_relations
        new = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
        _check_range(new, n_ent, n_rel)
        codes = _distinct(_codes(new, n_ent, n_rel))
        if base is not None:
            codes = _distinct(np.concatenate([_codes(base.triples, n_ent, n_rel), codes]))
        self.triples = _triples(codes, n_ent, n_rel)
        self._root = root = None if base is None else base._root or base
        h, r, t = self.triples.T.astype(np.int64)
        out = np.sort((r * n_ent + h) * n_ent + t)
        inc = np.sort((r * n_ent + t) * n_ent + h)
        into = _distinct(t * n_rel + r)
        if root is not None:  # index only the keys that edges added since the root touch
            added = codes[~_member(codes, _codes(root.triples, n_ent, n_rel))]
            ah, ar, at = _triples(added, n_ent, n_rel).T.astype(np.int64)
            out = out[_member(out // n_ent, ar * n_ent + ah)]
            inc = inc[_member(inc // n_ent, ar * n_ent + at)]
            into = into[_member(into // n_rel, at)]
        ids = np.arange(max(n_ent, n_rel)).astype(object)  # one int object per id for all entries
        self._out = _index(out, n_ent, ids)
        self._in = _index(inc, n_ent, ids)
        self._relations_into = _runs(*np.divmod(into, n_rel), ids)
        # lookups that miss this graph's own entries fall through to the root's
        self._out_below, self._in_below, self._relations_into_below = (
            (root._out, root._in, root._relations_into) if root is not None
            else (_NO_ENTRIES,) * 3)

    @property
    def n_entities(self) -> int:
        return self.vocab.n_entities

    @property
    def n_relations(self) -> int:
        return self.vocab.n_relations

    @property
    def n_edges(self) -> int:
        return len(self.triples)

    def neighbors(self, entity: int, relation: int) -> tuple[int, ...]:
        """Entities reachable from `entity` via one `relation` edge, sorted."""
        self._check_ids(entity, relation)
        return (self._out.get(relation, _NO_ENTRIES).get(entity)
                or self._out_below.get(relation, _NO_ENTRIES).get(entity, ()))

    def project_frontier(self, entities: set[int], relation: int) -> set[int]:
        """Union of neighbors(v, relation) over a whole entity set.

        One out-index lookup per frontier entity; ids are not range-checked.
        """
        out: set[int] = set()
        own = self._out.get(relation, _NO_ENTRIES)
        below = self._out_below.get(relation, _NO_ENTRIES)
        for v in entities:
            out.update(own.get(v) or below.get(v, ()))
        return out

    def sources(self, entity: int, relation: int) -> tuple[int, ...]:
        """Entities with an edge into `entity` via `relation`, sorted."""
        self._check_ids(entity, relation)
        return (self._in.get(relation, _NO_ENTRIES).get(entity)
                or self._in_below.get(relation, _NO_ENTRIES).get(entity, ()))

    def relations_into(self, entity: int) -> tuple[int, ...]:
        """Relations with at least one edge ending at `entity`, sorted."""
        self._check_ids(entity, None)
        return self._relations_into.get(entity) or self._relations_into_below.get(entity, ())

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


_NO_ENTRIES: dict = {}  # the index entry of a relation without edges; never written


def _check_range(edges: np.ndarray, n_ent: int, n_rel: int) -> None:
    """Raise on the first edge whose ids lie outside the vocabulary."""
    bad_ent = ((edges[:, [0, 2]] < 0) | (edges[:, [0, 2]] >= n_ent)).any(axis=1)
    bad_rel = (edges[:, 1] < 0) | (edges[:, 1] >= n_rel)
    if bad_ent.any() or bad_rel.any():
        i = int(np.argmax(bad_ent | bad_rel))
        h, r, t = edges[i].tolist()
        kind = "entity" if bad_ent[i] else "relation"
        raise VocabularyError(f"edge ({h},{r},{t}) references unknown {kind} id")


def _codes(triples: np.ndarray, n_ent: int, n_rel: int) -> np.ndarray:
    """One int64 per (head, relation, tail) row, ordered as the rows are."""
    if n_rel * n_ent * n_ent >= 1 << 63:
        raise ValueError(f"{n_ent} entities and {n_rel} relations overflow int64 edge keys")
    h, r, t = triples.T.astype(np.int64)
    return (h * n_rel + r) * n_ent + t


def _triples(codes: np.ndarray, n_ent: int, n_rel: int) -> np.ndarray:
    """The `(E, 3)` int32 rows of `_codes`."""
    hr, t = np.divmod(codes, n_ent)
    return np.stack([hr // n_rel, hr % n_rel, t], axis=1).astype(np.int32)


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, sorted."""
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def _unique_rows(triples: np.ndarray, vocab: Vocabulary) -> np.ndarray:
    """The distinct rows of an `(E, 3)` id array in lexicographic order."""
    n_ent, n_rel = vocab.n_entities, vocab.n_relations
    return _triples(_distinct(_codes(triples, n_ent, n_rel)), n_ent, n_rel)


def _not_in(a: np.ndarray, b: np.ndarray, n_ent: int, n_rel: int) -> np.ndarray:
    """Mask of the rows of `a` that are not rows of `b`."""
    return ~_member(_codes(a, n_ent, n_rel), _codes(b, n_ent, n_rel))


def _member(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the `values` that occur in `keys`."""
    if not len(keys):
        return np.zeros(len(values), dtype=bool)
    keys = np.sort(keys)
    return keys[np.minimum(np.searchsorted(keys, values), len(keys) - 1)] == values


def _run_starts(keys: np.ndarray) -> list[int]:
    """Where each run of equal values starts in a sorted array."""
    if not len(keys):
        return []
    return [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()]


def _slices(values: np.ndarray, starts: list[int], ids: np.ndarray) -> list[tuple[int, ...]]:
    """`values` cut into tuples at `starts`."""
    flat = tuple(ids[values].tolist())
    return list(map(flat.__getitem__, map(slice, starts, [*starts[1:], len(flat)])))


def _runs(keys: np.ndarray, values: np.ndarray, ids: np.ndarray) -> dict[int, tuple[int, ...]]:
    """{key: its values} over the runs of equal keys in sorted `keys`; `ids`
    maps an id to its int object."""
    starts = _run_starts(keys)
    return dict(zip(ids[keys[starts]].tolist(), _slices(values, starts, ids)))


def _index(codes: np.ndarray, n_ent: int, ids: np.ndarray) -> dict[int, dict[int, tuple[int, ...]]]:
    """{relation: {key: sorted values}} from the sorted codes
    `(relation * n_ent + key) * n_ent + value`."""
    pairs, values = np.divmod(codes, n_ent)
    starts = _run_starts(pairs)
    groups = _slices(values, starts, ids)
    rels, keys = np.divmod(pairs[starts], n_ent)
    keys = ids[keys].tolist()
    cut = _run_starts(rels)
    return {ids[r]: dict(zip(keys[a:b], groups[a:b]))
            for r, a, b in zip(rels[cut].tolist(), cut, [*cut[1:], len(groups)])}


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
        n_ent, n_rel = self.vocab.n_entities, self.vocab.n_relations
        if _not_in(self.train.triples, self.valid.triples, n_ent, n_rel).any():
            raise VocabularyError("train edges must be a subset of valid edges")
        if _not_in(self.valid.triples, self.test.triples, n_ent, n_rel).any():
            raise VocabularyError("valid edges must be a subset of test edges")

    @property
    def vocab(self) -> Vocabulary:
        return self.train.vocab

    def digest(self) -> str:
        """One sha256 over the entity names, the relation names and the
        train, valid and test edge arrays, each list prefixed by its length."""
        h = hashlib.sha256()
        for names in (self.vocab.entity_names, self.vocab.relation_names):
            h.update("".join([f"{len(names)}\n", *(name + "\n" for name in names)]).encode())
        for graph in (self.train, self.valid, self.test):
            h.update(f"{len(graph.triples)}\n".encode() + graph.triples.astype("<i4").tobytes())
        return h.hexdigest()


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


def _parse_triple_lines(path: str | Path, vocab: Vocabulary) -> np.ndarray:
    """The distinct triples of a triple file as an `(E, 3)` id array in
    lexicographic order. Names new to `vocab` get ids in order of first
    appearance, heads before tails within a line."""
    with _open_text(path) as f:
        text = f.read()
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # after the final newline, or an empty file
    fields = [line.split("\t") for line in lines]
    leads = [s[:1] for s in map(str.lstrip, lines)]
    # a screen over the whole file; only a file that fails it is walked line
    # by line, to report its first bad line
    if "" in leads or "#" in leads or set(map(len, fields)) - {3} or INVERSE_MARKER in text:
        _check_lines(path, leads, fields)
    if not fields:
        return np.empty((0, 3), dtype=np.int32)
    heads, rels, tails = zip(*fields)
    ents = vocab.entity_ids(list(chain.from_iterable(zip(heads, tails)))).reshape(-1, 2)
    triples = np.stack([ents[:, 0], vocab.relation_ids(rels), ents[:, 1]], axis=1)
    if "" in vocab._entity_ids or vocab.has_relation(""):
        _check_lines(path, leads, fields)  # only an empty field registers the name ""
    return _unique_rows(triples, vocab)


def _check_lines(path: str | Path, leads: list[str], fields: list[list[str]]) -> None:
    """Raise on the first line that is blank, a comment, not three fields or
    with an empty one, or whose relation holds the reserved inverse marker."""
    for lineno, (lead, row) in enumerate(zip(leads, fields), start=1):
        if not lead:
            raise ParseError("blank line not allowed", str(path), lineno)
        if lead == "#":
            raise ParseError("comment lines not allowed", str(path), lineno)
        if len(row) != 3:
            raise ParseError(f"expected 3 tab-separated fields, got {len(row)}", str(path), lineno)
        if "" in row:
            raise ParseError("empty field", str(path), lineno)
        if INVERSE_MARKER in row[1]:
            raise VocabularyError(
                f"{path}:{lineno}: relation {row[1]!r} contains reserved marker {INVERSE_MARKER!r}"
            )


def _with_inverses(vocab: Vocabulary, edges: np.ndarray) -> np.ndarray:
    """`edges` plus (t, inverse of r, h) for each row, registering the inverse
    name of every base relation in `vocab`. Edges must use base relations."""
    base_names = [n for n in vocab.relation_names if not n.endswith(INVERSE_MARKER)]
    inverse_ids = {vocab.relation_id(n): vocab.relation_id(n + INVERSE_MARKER) for n in base_names}
    inverse = np.zeros(vocab.n_relations, dtype=edges.dtype)
    inverse[list(inverse_ids)] = list(inverse_ids.values())
    mirrored = np.stack([edges[:, 2], inverse[edges[:, 1]], edges[:, 0]], axis=1)
    return np.concatenate([edges, mirrored])


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
        "total_edges": len(_unique_rows(np.concatenate([train_edges, valid_only, test_only]),
                                        vocab)),
    }

    train = KnowledgeGraph(vocab, _with_inverses(vocab, train_edges))
    valid = KnowledgeGraph(vocab, _with_inverses(vocab, valid_only), base=train)
    test = KnowledgeGraph(vocab, _with_inverses(vocab, test_only), base=valid)
    return GraphSplits(train, valid, test, raw_stats)


def _require_no_new_names(vocab: Vocabulary, n_ent: int, n_rel: int, path: str) -> None:
    for kind, names, n in (("entities", vocab.entity_names, n_ent),
                           ("relations", vocab.relation_names, n_rel)):
        if len(names) > n:
            raise VocabularyError(
                f"{path}: {kind} appear only outside the training file, e.g. {names[n : n + 5]}"
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
    parts = [_parse_triple_lines(path, vocab) for path in whole_graph_files]
    all_edges = _unique_rows(np.concatenate(parts), vocab)
    if not len(all_edges):
        raise ValueError("combined triple set is empty")
    total = len(all_edges)
    if valid_size + test_size >= total:
        raise ValueError(
            f"valid_size + test_size = {valid_size + test_size} must be < {total} triples"
        )

    train, valid_kept, test_kept = sample_holdout(
        map(tuple, all_edges.tolist()), valid_size, test_size, seed)

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
    n_ent, n_rel = vocab.n_entities, vocab.n_relations
    train, valid, test = splits.train.triples, splits.valid.triples, splits.test.triples
    valid_extra = valid[_not_in(valid, train, n_ent, n_rel)]
    test_extra = test[_not_in(test, valid, n_ent, n_rel)]
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
        for label, edges in (("train", train), ("valid-extra", valid_extra),
                             ("test-extra", test_extra)):
            f.write(f"{label} {len(edges)}\n")
            for h, r, t in edges.tolist():
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
    vocab.entity_ids(read_block("entities")[0])
    vocab.relation_ids(read_block("relations")[0])

    def read_edges(label: str) -> np.ndarray:
        block, _ = read_block(label)
        rows = [line.split("\t") for line in block]
        if set(map(len, rows)) - {3}:
            raise ValueError(f"{label} edge line without 3 tab-separated ids")
        return np.array(rows, dtype=np.int64).reshape(-1, 3)

    train = KnowledgeGraph(vocab, read_edges("train"))
    valid = KnowledgeGraph(vocab, read_edges("valid-extra"), base=train)
    test = KnowledgeGraph(vocab, read_edges("test-extra"), base=valid)
    return GraphSplits(train, valid, test, stats or None)
