"""Command-line entry point: data preparation, query generation, training,
evaluation, and analysis.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage or configuration
errors (including missing input files, incompatible artifacts and paths
that cannot be read or written).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from pathlib import Path

import numpy as np

from . import evaluation, kg, model, sampling, synth, training
from .config import build_model_config, format_config, setting_parsers
from .errors import BoxQueryError, CompatibilityError, ParseError, VocabularyError

QUERY_FILES = {
    "train": "train-queries.txt",
    "valid": "valid-queries.txt",
    "test": "test-queries.txt",
    "heldin": "heldin-queries.txt",
}


def _require_files(*paths: str | Path) -> None:
    for p in paths:
        if p is not None and not Path(p).exists():
            raise _UsageError(f"input file not found: {p}")


class _UsageError(Exception):
    pass


def _checkpoint_id(path: str | Path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return digest[:12]


def _print_header(args: argparse.Namespace, extra: dict | None = None) -> None:
    print(f"# command: {args.command}")
    if extra:
        for k in sorted(extra):
            print(f"# {k}: {extra[k]}")


def cmd_synthesize_kg(args) -> int:
    _print_header(args, {"kind": args.kind, "entities": args.entities, "seed": args.seed})
    triples = synth.synthesize_triples(args.kind, args.entities)
    paths = synth.write_synthetic_split(
        triples, args.out, args.valid_fraction, args.test_fraction, args.seed
    )
    for label, path in zip(("train", "valid", "test"), paths):
        with open(path, encoding="utf-8") as f:
            n = sum(1 for _ in f)
        print(f"{label}: {path} ({n} triples)")
    return 0


def cmd_prepare_data(args) -> int:
    _require_files(args.train, args.valid, args.test)
    _print_header(args, {"train": args.train, "valid": args.valid, "test": args.test,
                         "nell-resplit": args.nell_resplit})
    train, valid, test = args.train, args.valid, args.test
    if args.nell_resplit:
        out_dir = Path(args.out).parent / "resplit"
        train, valid, test = kg.prepare_nell(
            [args.train, args.valid, args.test],
            args.valid_size,
            args.test_size,
            args.seed,
            out_dir,
        )
        print(f"# re-split written to {out_dir}")
    splits = kg.build_split_graphs(train, valid, test)
    kg.save_splits(splits, args.out)
    stats = splits.raw_stats
    print(
        f"{stats['entities']:,} entities, {stats['relations']:,} relations, "
        f"{stats['train_edges']:,}/{stats['valid_edges']:,}/{stats['test_edges']:,} "
        f"split edges, {stats['total_edges']:,} total"
    )
    print(f"snapshot: {args.out}")
    return 0


def _count(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a count >= 0")
    return int(text)


def _parse_counts(text: str | None, default: int | None) -> dict[str, int]:
    from .queries import STRUCTURE_NAMES

    counts = {name: default or 0 for name in STRUCTURE_NAMES}
    given = set()
    if text:
        for part in text.split(","):
            name, _, value = part.partition("=")
            name = name.strip()
            if not value.strip().isdecimal():
                raise _UsageError(f"--counts entry {part!r} is not name=count with a count >= 0")
            if name not in counts:
                raise _UsageError(f"unknown query structure {name!r} in --counts")
            if name in given:
                raise _UsageError(f"--counts entry {part!r} repeats structure {name!r}")
            given.add(name)
            counts[name] = int(value)
    return counts


def cmd_generate_queries(args) -> int:
    _require_files(args.snapshot)
    if args.count is None and args.counts is None:
        raise _UsageError("one of --count or --counts is required")
    splits = kg.load_splits(args.snapshot)
    counts = _parse_counts(args.counts, args.count)
    _print_header(args, {"seed": args.seed, "counts": sorted(counts.items())})
    out_dir = Path(args.out)
    generated = sampling.generate_queries(splits, counts, args.seed)
    for split_name, queries in generated.items():
        path = out_dir / QUERY_FILES[split_name]
        sampling.write_query_file(path, queries)
        print(f"{split_name}: {len(queries)} queries -> {path}")
    if args.heldin_count:
        heldin_counts = {name: args.heldin_count for name in counts}
        queries = sampling.generate_heldin_queries(splits, heldin_counts, args.seed)
        path = out_dir / QUERY_FILES["heldin"]
        sampling.write_query_file(path, queries)
        print(f"heldin: {len(queries)} queries -> {path}")
    test_queries = generated["test"] or None
    if test_queries:
        print("mean test answers per structure:")
        for name, mean in sampling.answer_count_report(test_queries).items():
            print(f"  {name}: {mean:.1f}")
    return 0


def _load_query_dir(query_dir: str | Path, split_name: str, vocab: kg.Vocabulary) -> list:
    path = Path(query_dir) / QUERY_FILES[split_name]
    if not path.exists():
        raise _UsageError(f"input file not found: {path}")
    return sampling.read_query_file(path, vocab)


def cmd_train(args) -> int:
    _require_files(args.snapshot)
    if args.config:
        _require_files(args.config)
    overrides = {key: getattr(args, key) for key in setting_parsers()}
    config = build_model_config(args.config, overrides)
    kg._make_parents(Path(args.out))  # fail before training, not after it
    splits = kg.load_splits(args.snapshot)
    train_queries = _load_query_dir(args.queries, "train", splits.vocab)
    valid_path = Path(args.queries) / QUERY_FILES["valid"]
    valid_queries = None
    if valid_path.exists():
        valid_queries = sampling.read_query_file(valid_path, splits.vocab) or None
    _print_header(args)
    print("# effective config:")
    for line in format_config(config).splitlines():
        print(f"#   {line}")
    result = training.train(
        splits,
        train_queries,
        config,
        valid_queries=valid_queries,
        log=print,
        max_iterations=1 if args.dry_run else None,
        diagnostic_path=str(args.out) + ".diag",
    )
    if args.dry_run:
        print("dry run complete")
        return 0
    model.save_checkpoint(
        args.out, result.params, splits.vocab.entity_hash(), splits.vocab.relation_hash()
    )
    print(f"checkpoint: {args.out} ({_checkpoint_id(args.out)})")
    return 0


def _load_compatible_checkpoint(checkpoint_path, splits):
    params, ent_hash, rel_hash = model.load_checkpoint(checkpoint_path)
    have_ent, have_rel = splits.vocab.entity_hash(), splits.vocab.relation_hash()
    if (ent_hash, rel_hash) != (have_ent, have_rel):
        raise CompatibilityError(
            f"checkpoint vocabulary (entities {ent_hash[:12]}, relations {rel_hash[:12]}) "
            f"does not match graphs (entities {have_ent[:12]}, relations {have_rel[:12]})"
        )
    return params


def cmd_eval(args) -> int:
    _require_files(args.checkpoint, args.snapshot)
    splits = kg.load_splits(args.snapshot)
    params = _load_compatible_checkpoint(args.checkpoint, splits)
    split = {"validation": "valid", "test": "test", "train": "heldin"}[args.stage]
    queries = _load_query_dir(args.queries, split, splits.vocab)
    if not queries:
        raise _UsageError(f"{Path(args.queries) / QUERY_FILES[split]}: no queries to evaluate")
    _print_header(args, {"stage": args.stage, "checkpoint": _checkpoint_id(args.checkpoint)})
    print("# effective config:")
    for line in format_config(params.config).splitlines():
        print(f"#   {line}")
    report = evaluation.aggregate(
        queries, params, splits, args.stage,
        checkpoint_id=_checkpoint_id(args.checkpoint),
    )
    print(report.render_table())
    if args.report:
        with kg._atomic_open(args.report) as f:
            f.write(report.to_json() + "\n")
        print(f"report: {args.report}")
    return 0


def cmd_analyze(args) -> int:
    _require_files(args.snapshot)
    splits = kg.load_splits(args.snapshot)
    if args.analysis == "offsets":
        if not args.checkpoint:
            raise _UsageError("analyze offsets requires --checkpoint")
        _require_files(args.checkpoint)
        params = _load_compatible_checkpoint(args.checkpoint, splits)
        cfg = params.config
        if cfg.fixed_offsets:
            mode = "geometry=point" if cfg.geometry == "point" else "offset_mode=shared"
            raise _UsageError(f"{args.checkpoint}: analyze offsets needs per-relation box "
                              f"offsets; this checkpoint has {mode}, which never trains them")
        _print_header(args, {"checkpoint": _checkpoint_id(args.checkpoint)})
        report = evaluation.offset_report(params, splits)
        print(report.render_table())
        if args.report:
            with kg._atomic_open(args.report) as f:
                f.write(report.to_json() + "\n")
    else:  # disjoint-m
        _print_header(args, {"seed": args.seed})
        graph = _strip_inverses(splits.test)
        rng = np.random.default_rng(args.seed)
        m_1p, m_total = evaluation.count_disjoint_queries(graph, rng)
        print(f"single-hop disjoint queries: {m_1p}")
        print(f"total disjoint queries:      {m_total}")
    return 0


def _strip_inverses(graph: kg.KnowledgeGraph) -> kg.KnowledgeGraph:
    """Drop augmented inverse edges so the analysis sees the raw graph."""
    marked = np.array([name.endswith(kg.INVERSE_MARKER) for name in graph.vocab.relation_names],
                      dtype=bool)
    return kg.KnowledgeGraph(graph.vocab, graph.triples[~marked[graph.triples[:, 1]]])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxquery",
        description="Train box embeddings over a knowledge graph and answer "
        "conjunctive and disjunctive logical queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize-kg", help="write a small synthetic KG split")
    p.add_argument("--kind", choices=synth.KINDS, required=True)
    p.add_argument("--entities", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--valid-fraction", type=float, default=0.0)
    p.add_argument("--test-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synthesize_kg)

    p = sub.add_parser("prepare-data", help="build and snapshot the graph splits")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nell-resplit", action="store_true",
                   help="pool the three files and re-split them randomly")
    p.add_argument("--valid-size", type=int, default=20000)
    p.add_argument("--test-size", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_prepare_data)

    p = sub.add_parser("generate-queries", help="instantiate and answer query datasets")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=_count, default=None,
                   help="default per-structure query count")
    p.add_argument("--counts", default=None,
                   help="per-structure overrides, e.g. '1p=500,2i=100'")
    p.add_argument("--heldin-count", type=_count, default=None,
                   help="also emit an evaluation set answered on the train graph")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate_queries)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--queries", required=True, help="directory from generate-queries")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--dry-run", action="store_true")
    for key, parse in setting_parsers().items():  # one flag per ModelConfig field
        p.add_argument("--" + key.replace("_", "-"), type=parse, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="filtered-ranking evaluation of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--snapshot", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--stage", choices=("validation", "test", "train"), default="test")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="offset-size and disjoint-query analyses")
    p.add_argument("analysis", choices=("offsets", "disjoint-m"))
    p.add_argument("--snapshot", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():  # one line per warning, without a source line
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except (_UsageError, CompatibilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, VocabularyError, BoxQueryError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
