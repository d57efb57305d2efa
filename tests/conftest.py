import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from boxquery.kg import GraphSplits, KnowledgeGraph, Vocabulary
from oracles import augment_inverses


def make_graph(triples, augment=False) -> KnowledgeGraph:
    """Build a graph from (head, relation, tail) name triples."""
    vocab = Vocabulary()
    edges = [
        (vocab.entity_id(h), vocab.relation_id(r), vocab.entity_id(t))
        for h, r, t in triples
    ]
    graph = KnowledgeGraph(vocab, edges)
    return augment_inverses(graph) if augment else graph


def make_splits(train, valid_extra=(), test_extra=(), augment=True) -> GraphSplits:
    """Nested splits from name triples; extras stack on top of train."""
    vocab = Vocabulary()

    def to_ids(triples):
        return [
            (vocab.entity_id(h), vocab.relation_id(r), vocab.entity_id(t))
            for h, r, t in triples
        ]

    train_edges = set(to_ids(train))
    valid_edges = train_edges | set(to_ids(valid_extra))
    test_edges = valid_edges | set(to_ids(test_extra))
    graphs = [KnowledgeGraph(vocab, sorted(e)) for e in (train_edges, valid_edges, test_edges)]
    if augment:
        graphs = [augment_inverses(g) for g in graphs]
    return GraphSplits(*graphs)


def random_graph(
    rng: np.random.Generator, n_entities=12, n_relations=3, n_edges=40, augment=True
) -> KnowledgeGraph:
    triples = set()
    for _ in range(n_edges):
        h = int(rng.integers(n_entities))
        t = int(rng.integers(n_entities))
        r = int(rng.integers(n_relations))
        triples.add((f"e{h}", f"r{r}", f"e{t}"))
    return make_graph(sorted(triples), augment=augment)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)


@pytest.fixture(scope="session")
def trained_bipartite():
    """One shared desk-scale training run: 20-entity bipartite KG, d=16,
    200 epochs. Several tests assert different properties of the same run."""
    import warnings

    from boxquery.model import ModelConfig
    from boxquery.sampling import generate_queries
    from boxquery.synth import synthesize_triples
    from boxquery.training import train

    triples = synthesize_triples("bipartite", 20)
    splits = make_splits(triples)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        queries = generate_queries(
            splits, {n: 30 for n in ("1p", "2p", "3p", "2i", "3i")}, seed=1
        )["train"]
    config = ModelConfig(
        dim=16, alpha=0.2, gamma=2.0, negatives=8, learning_rate=0.01,
        epochs=200, batch_per_structure=16, seed=7,
    )
    result = train(splits, queries, config, log=None)
    return splits, queries, config, result
