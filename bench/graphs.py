"""Seeded Zipf-degree ("powerlaw") knowledge graphs written as triple files.

Head and tail entities are drawn from two independent Zipf popularity
orders, relations from a third, so a few hub entities and relations carry
most edges while most entities have a handful, as in FB15k. Duplicate
triples and self-loops are dropped. The same arguments always give the same
files.

The bundled `synth.py` kinds are not used for the benchmark graphs. The
dense `bipartite` graph saturates: on bipartite-200 every `2p`, `3p` and
`up` query answers all 100 entities of the other half on the train graph
already, so no valid/test candidate of these structures passes the
non-trivial filter and generation would measure the retry budget, not
grounding. A sparse Zipf graph keeps held-out edges informative for every
structure.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def zipf_triples(
    n_entities: int,
    n_relations: int,
    n_triples: int,
    seed: int,
    entity_exponent: float = 0.8,
    relation_exponent: float = 1.0,
) -> np.ndarray:
    """Distinct (head, relation, tail) id rows, shape (n_triples, 3)."""
    rng = np.random.default_rng([seed, 0x2F])

    def popularity(n: int, exponent: float) -> np.ndarray:
        weights = 1.0 / np.arange(1, n + 1) ** exponent
        return weights[rng.permutation(n)] / weights.sum()

    head_p = popularity(n_entities, entity_exponent)
    tail_p = popularity(n_entities, entity_exponent)
    rel_p = popularity(n_relations, relation_exponent)
    rows = np.empty((0, 3), dtype=np.int64)
    # draw in rounds until enough distinct non-loop triples exist
    while len(rows) < n_triples:
        draw = 2 * (n_triples - len(rows)) + 64
        batch = np.stack(
            [rng.choice(n_entities, draw, p=head_p),
             rng.choice(n_relations, draw, p=rel_p),
             rng.choice(n_entities, draw, p=tail_p)],
            axis=1,
        )
        rows = np.concatenate([rows, batch[batch[:, 0] != batch[:, 2]]])
        _, first = np.unique(rows, axis=0, return_index=True)
        rows = rows[np.sort(first)]
    return rows[:n_triples]


def write_split(
    rows: np.ndarray,
    out_dir: Path,
    seed: int,
    valid_fraction: float = 0.05,
    test_fraction: float = 0.05,
) -> dict[str, Path]:
    """Hold out random valid/test fractions and write the three triple files.

    A held-out triple whose entities or relation would be missing from the
    training file goes back to training, because the program rejects names
    that first appear outside it.
    """
    rng = np.random.default_rng([seed, 0x5B])
    perm = rng.permutation(len(rows))
    n_valid = int(valid_fraction * len(rows))
    n_test = int(test_fraction * len(rows))
    held = {"valid": rows[perm[:n_valid]], "test": rows[perm[n_valid:n_valid + n_test]]}
    train = rows[perm[n_valid + n_test:]]
    for name in ("valid", "test"):
        part = held[name]
        seen_entity = np.zeros(rows[:, [0, 2]].max() + 1, dtype=bool)
        seen_entity[train[:, 0]] = True
        seen_entity[train[:, 2]] = True
        seen_relation = np.zeros(rows[:, 1].max() + 1, dtype=bool)
        seen_relation[train[:, 1]] = True
        ok = seen_entity[part[:, 0]] & seen_entity[part[:, 2]] & seen_relation[part[:, 1]]
        train = np.concatenate([train, part[~ok]])
        held[name] = part[ok]
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, part in (("train", train), ("valid", held["valid"]), ("test", held["test"])):
        paths[name] = out_dir / f"{name}.txt"
        with open(paths[name], "w", encoding="utf-8") as f:
            f.write("".join(f"e{h}\tr{r}\te{t}\n" for h, r, t in part.tolist()))
    return paths
