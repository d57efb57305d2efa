"""Small synthetic knowledge graphs for tests and demos.

Three shapes are available. `chain` links entities in a line with one
relation. `tree` is a binary tree with left/right child relations.
`bipartite` connects two entity halves through three relations of different
fan-outs, which gives queries with multi-entity answer sets.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .kg import _atomic_open

KINDS = ("chain", "tree", "bipartite")


def synthesize_triples(kind: str, n_entities: int) -> list[tuple[str, str, str]]:
    if n_entities < 4:
        raise ValueError("need at least 4 entities")
    names = [f"e{i:03d}" for i in range(n_entities)]
    triples: list[tuple[str, str, str]] = []
    if kind == "chain":
        for i in range(n_entities - 1):
            triples.append((names[i], "next", names[i + 1]))
    elif kind == "tree":
        for i in range(n_entities):
            left, right = 2 * i + 1, 2 * i + 2
            if left < n_entities:
                triples.append((names[i], "left", names[left]))
            if right < n_entities:
                triples.append((names[i], "right", names[right]))
    elif kind == "bipartite":
        half = n_entities // 2
        moduli = {"r0": 2, "r1": 3, "r2": 5}
        for rel, mod in moduli.items():
            for i in range(half):
                for j in range(half, n_entities):
                    if (i + j) % mod == 0:
                        triples.append((names[i], rel, names[j]))
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}, expected one of {KINDS}")
    return triples


def write_synthetic_split(
    triples: list[tuple[str, str, str]],
    out_dir: str | Path,
    valid_fraction: float = 0.0,
    test_fraction: float = 0.0,
    seed: int = 0,
) -> tuple[Path, Path, Path]:
    """Write train/valid/test triple files, holding out random fractions.

    Held-out triples whose head or tail would otherwise vanish from the
    training file are kept in training, so the split always builds.
    """
    if valid_fraction + test_fraction >= 1.0:
        raise ValueError("held-out fractions must sum to less than 1")
    triples = sorted(set(triples))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(triples))
    n_valid = int(round(valid_fraction * len(triples)))
    n_test = int(round(test_fraction * len(triples)))
    valid = {triples[i] for i in perm[:n_valid]}
    test = {triples[i] for i in perm[n_valid : n_valid + n_test]}
    train = [t for t in triples if t not in valid and t not in test]

    covered = {x for h, _, t in train for x in (h, t)}
    valid_kept = {t for t in valid if t[0] in covered and t[2] in covered}
    test_kept = {t for t in test if t[0] in covered and t[2] in covered}
    train = sorted(set(train) | (valid - valid_kept) | (test - test_kept))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = (out_dir / "train.txt", out_dir / "valid.txt", out_dir / "test.txt")
    for path, rows in zip(paths, (train, sorted(valid_kept), sorted(test_kept))):
        with _atomic_open(path) as f:
            for h, r, t in rows:
                f.write(f"{h}\t{r}\t{t}\n")
    return paths
