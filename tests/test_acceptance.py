"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria that need the real benchmark datasets (FB15k and friends) look for
triple files under data/<name>/ or the BOXQUERY_<NAME>_DIR environment
variables and skip when the files are not present.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from boxquery.evaluation import aggregate, count_disjoint_queries, metrics_for_query
from boxquery.kg import KnowledgeGraph, Vocabulary, build_split_graphs
from boxquery.model import ModelConfig
from boxquery.queries import structure_templates, to_dnf
from boxquery.sampling import generate_heldin_queries, generate_queries
from boxquery.synth import synthesize_triples, write_synthetic_split
from boxquery.training import train

from conftest import make_splits, random_graph
from gradcheck import MODE_GRID, check_instance, make_instance
from oracles import (Box, answer_by_assignment_enumeration, answer_by_satisfiability,
                     answer_exact, dist_box, dist_outside, try_instantiate)
from test_evaluation import line_world


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def skip(number: int, name: str, reason: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): SKIP ({reason})")
    pytest.skip(reason)


def dataset_dir(name: str) -> Path | None:
    env = os.environ.get(f"BOXQUERY_{name.upper().replace('-', '')}_DIR")
    candidates = [env] if env else []
    candidates += [Path(__file__).parent.parent / "data" / name]
    for c in candidates:
        c = Path(c)
        if all((c / f"{s}.txt").exists() for s in ("train", "valid", "test")):
            return c
    return None


@pytest.fixture(scope="module")
def query_corpus():
    """500 grounded queries spread over the nine structures on random KGs."""
    rng = np.random.default_rng(811)
    corpus = []
    templates = structure_templates()
    while len(corpus) < 500:
        n_entities = int(rng.integers(8, 31))
        kg = random_graph(
            rng,
            n_entities=n_entities,
            n_relations=int(rng.integers(2, 4)),
            n_edges=int(rng.integers(2 * n_entities, 4 * n_entities)),
        )
        for structure in templates:
            q = try_instantiate(structure, kg, rng)
            if q is not None:
                corpus.append((kg, q))
            if len(corpus) >= 500:
                break
    return corpus


def test_criterion_01_oracle_equivalence(query_corpus):
    start = time.monotonic()
    union_free = ("1p", "2p", "3p", "2i", "3i", "ip", "pi")
    for kg, q in query_corpus:
        expected = answer_by_satisfiability(kg, q)
        assert answer_exact(kg, q) == expected, q.structure_name
        if q.structure_name in union_free:
            assert answer_by_assignment_enumeration(kg, q) == expected
    elapsed = time.monotonic() - start
    names = {q.structure_name for _, q in query_corpus}
    report(
        1,
        "oracle equivalence",
        len(names) == 9 and elapsed < 60,
        f"{len(query_corpus)} queries, {elapsed:.1f}s",
    )


def test_criterion_02_dnf_equivalence(query_corpus):
    start = time.monotonic()
    for kg, q in query_corpus:
        branches, n = to_dnf(q.graph)
        assert len(branches) == n
        unioned = set()
        for b in branches:
            unioned |= answer_exact(kg, b)
        assert unioned == answer_exact(kg, q), q.structure_name
    elapsed = time.monotonic() - start
    report(2, "DNF equivalence", elapsed < 60, f"{len(query_corpus)} queries, {elapsed:.1f}s")


def test_criterion_03_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(392)
    total_checked = total_skipped = 0
    failures = []
    instances = 0
    while instances < 100:
        mode = MODE_GRID[instances % len(MODE_GRID)]
        instance = make_instance(rng, mode)
        if instance is None:
            continue
        instances += 1
        checked, skipped, bad = check_instance(*instance)
        total_checked += checked
        total_skipped += skipped
        failures.extend((mode, *b) for b in bad)
    elapsed = time.monotonic() - start
    report(
        3,
        "gradient correctness",
        not failures and elapsed < 120,
        f"100 instances, {total_checked} partials checked, "
        f"{total_skipped} kink-skipped, {elapsed:.1f}s"
        + (f"; first failures {failures[:3]}" if failures else ""),
    )


def test_criterion_04_distance_identities():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(10_000):
        d = int(rng.integers(1, 8))
        box = Box(rng.uniform(-5, 5, d), rng.uniform(0, 3, d))
        v = rng.uniform(-8, 8, d)
        l1 = float(np.sum(np.abs(box.center - v)))
        worst = max(worst, abs(dist_box(v, box, 1.0) - l1))
        assert (dist_outside(v, box) == 0.0) == box.contains(v)
    report(4, "distance identities", worst <= 1e-12, f"max |diff| = {worst:.2e}")


@pytest.fixture(scope="module")
def desk_scale_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    triples = synthesize_triples("bipartite", 30)
    paths = write_synthetic_split(triples, root, 0.0, 0.0, seed=0)
    splits = build_split_graphs(*paths)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train_queries = generate_queries(
            splits, {n: 30 for n in ("1p", "2p", "3p", "2i", "3i")}, seed=1
        )["train"]
        eval_queries = generate_heldin_queries(
            splits, {s.name: 20 for s in structure_templates()}, seed=2
        )
    return splits, train_queries, eval_queries


def test_criterion_05_desk_scale_learning(desk_scale_setup):
    splits, train_queries, eval_queries = desk_scale_setup
    base = dict(
        dim=16, alpha=0.2, gamma=2.0, negatives=8, learning_rate=0.01,
        epochs=200, batch_per_structure=16, seed=7,
    )
    box_model = train(
        splits, train_queries, ModelConfig(**base, geometry="box"), log=None
    ).params
    point_model = train(
        splits,
        train_queries,
        ModelConfig(**base, geometry="point", intersection_mode="deepsets"),
        log=None,
    ).params

    heldin = aggregate(train_queries, box_model, splits, "train")
    h3 = float(np.mean([heldin.structures[s]["h3"] for s in heldin.structures]))

    multi = ("2p", "3p", "ip", "pi")
    box_eval = aggregate(eval_queries, box_model, splits, "train")
    point_eval = aggregate(eval_queries, point_model, splits, "train")
    box_mrr = float(np.mean([box_eval.structures[s]["mrr"] for s in multi]))
    point_mrr = float(np.mean([point_eval.structures[s]["mrr"] for s in multi]))

    report(
        5,
        "desk-scale learning",
        h3 > 0.9 and box_mrr > point_mrr,
        f"held-in H@3 = {h3:.3f}; multi-answer MRR box {box_mrr:.3f} "
        f"vs point {point_mrr:.3f}; full-scale runs stay an optional long job",
    )


@pytest.mark.parametrize(
    "name,expected",
    [
        ("FB15k", {"entities": 14951, "relations": 1345, "train_edges": 483142,
                   "valid_edges": 50000, "test_edges": 59071}),
        ("FB15k-237", {"entities": 14505, "relations": 237, "train_edges": 272115,
                       "valid_edges": 17526, "test_edges": 20438}),
        ("NELL995", {"entities": 63361, "relations": 200, "train_edges": 114213,
                     "valid_edges": 14324, "test_edges": 14267}),
    ],
)
def test_criterion_06_dataset_statistics(name, expected):
    directory = dataset_dir(name)
    if directory is None:
        skip(6, f"dataset statistics [{name}]", f"{name} triple files not provided")
    splits = build_split_graphs(
        directory / "train.txt", directory / "valid.txt", directory / "test.txt"
    )
    got = {k: splits.raw_stats[k] for k in expected}
    augmented_ok = splits.test.n_edges == 2 * splits.raw_stats["total_edges"]
    report(
        6,
        f"dataset statistics [{name}]",
        got == expected and augmented_ok,
        f"{got}; augmented test edges = {splits.test.n_edges}",
    )


def test_criterion_07_disjoint_query_count():
    directory = dataset_dir("FB15k")
    if directory is None:
        skip(7, "disjoint-query counting", "FB15k triple files not provided")
    start = time.monotonic()
    vocab = Vocabulary()
    from boxquery.kg import _parse_triple_lines

    parts = [_parse_triple_lines(directory / f"{split}.txt", vocab)
             for split in ("train", "valid", "test")]
    kg = KnowledgeGraph(vocab, np.concatenate(parts))
    m_1p, m_total = count_disjoint_queries(kg, np.random.default_rng(0))
    elapsed = time.monotonic() - start
    ok = (
        abs(m_1p - 10812) <= 0.05 * 10812
        and abs(m_total - 13365) <= 0.05 * 13365
        and elapsed < 600
    )
    report(7, "disjoint-query counting", ok,
           f"m_1p = {m_1p}, m_total = {m_total}, {elapsed:.0f}s")


def test_criterion_08_metric_arithmetic():
    splits, params, q, v = line_world([10, 1.0, 2.0, 3.0, 1.5, 3.5], ["e4", "e5"])
    metrics = metrics_for_query(q, params, splits, "test")
    ok = metrics["mrr"] == 0.375 and metrics["h3"] == 0.5
    report(8, "metric arithmetic", ok, f"ranks (2, 4) -> {metrics}")


def test_criterion_09_determinism(tmp_path):
    from boxquery.cli import main

    def pipeline(run_dir: Path) -> dict[str, bytes]:
        data = run_dir / "data"
        main(["synthesize-kg", "--kind", "bipartite", "--entities", "16",
              "--out", str(data), "--valid-fraction", "0.08",
              "--test-fraction", "0.08", "--seed", "3"])
        snap = run_dir / "graph.snap"
        main(["prepare-data", "--train", str(data / "train.txt"),
              "--valid", str(data / "valid.txt"), "--test", str(data / "test.txt"),
              "--out", str(snap)])
        queries = run_dir / "queries"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            main(["generate-queries", "--snapshot", str(snap), "--out", str(queries),
                  "--count", "6", "--heldin-count", "4", "--seed", "5"])
        ckpt = run_dir / "model.ckpt"
        main(["train", "--snapshot", str(snap), "--queries", str(queries),
              "--out", str(ckpt), "--dim", "8", "--epochs", "3", "--gamma", "2.0",
              "--negatives", "4", "--batch-per-structure", "8",
              "--learning-rate", "0.01", "--seed", "1"])
        rep = run_dir / "report.json"
        main(["eval", "--checkpoint", str(ckpt), "--snapshot", str(snap),
              "--queries", str(queries), "--stage", "train", "--report", str(rep)])
        artifacts = {}
        for rel in ("graph.snap", "queries/train-queries.txt",
                    "queries/valid-queries.txt", "queries/test-queries.txt",
                    "queries/heldin-queries.txt", "model.ckpt", "report.json"):
            artifacts[rel] = (run_dir / rel).read_bytes()
        return artifacts

    start = time.monotonic()
    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    elapsed = time.monotonic() - start
    same = {rel: first[rel] == second[rel] for rel in first}
    report(9, "determinism", all(same.values()) and elapsed < 300,
           f"byte-identical artifacts: {sorted(k for k, v in same.items() if v)}; "
           f"two full pipelines in {elapsed:.0f}s")


def test_criterion_10_offset_analysis():
    from boxquery.evaluation import offset_report

    triples = [(f"x{i}", "paired", f"y{i}") for i in range(10)]
    triples += [(f"x{i}", "broadcast", f"y{j}") for i in range(3) for j in range(10)]
    splits = make_splits(triples)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        queries = generate_queries(splits, {"1p": 60, "2p": 30, "2i": 30}, seed=3)["train"]
    config = ModelConfig(
        dim=16, alpha=0.2, gamma=2.0, negatives=6, learning_rate=0.01,
        epochs=150, batch_per_structure=16, seed=11,
    )
    result = train(splits, queries, config, log=None)
    rep = offset_report(result.params, splits)
    sizes = {r["relation"]: r["box_size"] for r in rep.rows}
    ok = sizes["broadcast"] > sizes["paired"]
    report(
        10,
        "offset analysis",
        ok,
        f"broadcast {sizes['broadcast']:.2f} vs paired {sizes['paired']:.2f}, "
        f"rank correlation {rep.correlation:.2f}",
    )
