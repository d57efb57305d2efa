"""boxquery benchmark: generate -> train -> evaluate on seeded Zipf graphs.

    python3 bench/run.py --workload paper-d400 --seed 1 --seconds 30 --trace 0

One run is one process: a closed loop with a single client, one thread
and one BLAS thread. The benchmark writes the
workload's triple files from `--seed` into `.bench_work/`, drives the
public API of the `boxquery` package found in `src/` next to this
directory, checks the outputs, and prints a human-readable report followed
by one JSON result line. `--trace 0` reports the end-to-end metrics;
`--trace 1` reports the per-layer metrics of `spans.py` instead. See
README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # generated inputs and span files
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread. numpy reads these once, when it is first imported. At
# these matrix sizes a second OpenBLAS thread gains nothing on an idle
# 2-CPU host, and when anything else runs on the other CPU its spinning
# threads slowed d=400 training 3.7x.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entities: int
    relations: int
    triples: int
    per_structure: int  # queries asked of generate_queries per (split, structure)
    dim: int
    negatives: int
    batch: int  # queries per structure per optimizer step


MIN_ROUNDS = 6  # measurement rounds at least; more while --seconds lasts
STEPS = 4  # optimizer steps per round
LEARNING_RATE = 0.01  # high, so that the loss visibly falls within STEPS
EVAL_PER_STRUCTURE = 23  # 9 x 23 = 207 test queries, enough for a p95
ORACLE_PER_PAIR = 3  # queries per (split, structure) whose answers are re-derived


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-d400",
            why="paper configuration d=400 k=128 gamma=24 attention: training "
                "and ranking are arithmetic-bound (MLP backward, N x d distances)",
            entities=1000, relations=100, triples=8000, per_structure=23,
            dim=400, negatives=128, batch=5,
        ),
        Workload(
            name="mid-d64",
            why="same graph at d=64 k=32 batch 64: bound by per-call overhead "
                "(per-candidate gradients, negative sampling, per-answer masks)",
            entities=1000, relations=100, triples=8000, per_structure=23,
            dim=64, negatives=32, batch=64,
        ),
    )
}

# (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("gen_queries_per_s", "queries/s"),
    ("train_samples_per_s", "samples/s"),
    ("eval_queries_per_s", "queries/s"),
    ("eval_query_ms_p50", "ms"),
    ("eval_query_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
)


def _import_program():
    if not (SRC / "boxquery" / "__init__.py").is_file():
        raise SystemExit(f"bench: no boxquery package at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import boxquery  # noqa: F401  (imports every module the tracer patches)

    if Path(boxquery.__file__).resolve().parent != SRC / "boxquery":
        raise SystemExit(f"bench: imported boxquery from {boxquery.__file__}, not {SRC}")


def query_digest(queries) -> str:
    from boxquery.queries import graph_to_text

    h = hashlib.sha256()
    for split in ("train", "valid", "test"):
        for q in queries[split]:
            a = q.answers
            h.update(f"{split}\t{q.structure_name}\t{graph_to_text(q.graph)}\t"
                     f"{a.train}\t{a.valid}\t{a.test}\n".encode())
    return h.hexdigest()


def first_per_structure(queries, limit: int) -> list:
    taken: dict[str, int] = {}
    out = []
    for q in queries:
        taken[q.structure_name] = taken.get(q.structure_name, 0) + 1
        if taken[q.structure_name] <= limit:
            out.append(q)
    return out


@dataclass
class Measurement:
    phase_s: dict  # wall time of each phase, summed over rounds
    setup_s: list
    gen_s: list  # generate_queries calls
    train_steps: list  # (round, samples, seconds, loss); one step per epoch
    latencies_ms: list  # one pass over the test queries per round
    eval_s: list  # one aggregate call per round
    mismatches: list  # outputs that differ between rounds
    queries: dict
    test: list
    splits: object
    report: object
    digest: str


def measure(w: Workload, paths: dict, seed: int, seconds: float, rounds: int,
            extra_gen: bool, tracer=None) -> Measurement:
    """Run rounds of set-up -> generate -> train -> evaluate.

    Every round repeats the same work, so each phase is sampled across the
    whole run; rounds continue past `rounds` until `seconds` have passed.
    Each round builds its own snapshot, so set-up is sampled as often as the
    other phases. With `extra_gen`, a round calls `generate_queries` three
    times, before and after training and after evaluation, because a call
    is the shortest of the phases' units; only the first call's queries are
    used."""
    from boxquery import evaluation, kg, model, sampling, training
    from boxquery.queries import STRUCTURE_NAMES

    config = model.ModelConfig(
        dim=w.dim, negatives=w.negatives, gamma=24.0, intersection_mode="attention",
        batch_per_structure=w.batch, learning_rate=LEARNING_RATE,
        epochs=10**6, seed=seed,
    )
    counts = {name: w.per_structure for name in STRUCTURE_NAMES}
    phase_s: dict[str, float] = {}

    @contextmanager
    def phase(name):
        t0 = perf_counter()
        with tracer.phase(name) if tracer else nullcontext():
            yield
        phase_s[name] = phase_s.get(name, 0.0) + perf_counter() - t0

    if tracer:
        tracer.install()
    try:
        setup_s, gen_s, digests, train_steps, latencies, eval_s, mismatches = (
            [], [], [], [], [], [], [])
        splits = None

        def generate():
            with phase("generate"), warnings.catch_warnings():
                warnings.simplefilter("ignore")  # shortfalls are counted as failures
                t0 = perf_counter()
                queries = sampling.generate_queries(splits, counts, seed)
                gen_s.append(perf_counter() - t0)
            digests.append(query_digest(queries))
            return queries

        first = None
        t_begin = perf_counter()
        done = 0
        while done < rounds or perf_counter() - t_begin < seconds:
            splits = None  # free the previous snapshot before building again
            gc.collect()
            with phase("setup"):
                t0 = perf_counter()
                splits = kg.build_split_graphs(paths["train"], paths["valid"], paths["test"])
                model.ModelParams(config, splits.train.n_entities, splits.train.n_relations)
                setup_s.append(perf_counter() - t0)

            queries = generate()

            # the first `batch` queries of each structure, so that every
            # epoch is one optimizer step and the log callback times it
            train_queries = first_per_structure(queries["train"], w.batch)
            step_samples = w.batch * len({q.structure_name for q in train_queries})
            if extra_gen:
                generate()
            stamps = [perf_counter()]
            with phase("train"):
                result = training.train(
                    splits, train_queries, config,
                    log=lambda _line: stamps.append(perf_counter()),
                    max_iterations=STEPS,
                )
            losses = [record["loss"] for record in result.state.history]
            train_steps += [(done, step_samples, end - start, loss)
                            for loss, start, end in zip(losses, stamps, stamps[1:])]

            test = first_per_structure(queries["test"], EVAL_PER_STRUCTURE)
            with phase("eval"):
                for q in test:
                    t0 = perf_counter()
                    evaluation.metrics_for_query(q, result.params, splits, "test")
                    latencies.append((perf_counter() - t0) * 1e3)
                t0 = perf_counter()
                report = evaluation.aggregate(test, result.params, splits, "test")
                eval_s.append(perf_counter() - t0)

            if extra_gen:
                generate()  # more samples of the shortest unit, spread over the round
            del result  # keep one model alive at a time, as one training run would
            outputs = (losses, report.to_json())
            if first is None:
                first = (queries, test, report, outputs)
            else:
                mismatches += [f"round {done}: {kind} differs from round 0"
                               for kind, a, b in zip(("losses", "report"), outputs, first[3])
                               if a != b]
            done += 1
    finally:
        if tracer:
            tracer.uninstall()
    mismatches += [f"generate_queries call {i} differs from call 0"
                   for i, d in enumerate(digests) if d != digests[0]]
    queries, test, report, _ = first
    return Measurement(phase_s, setup_s, gen_s, train_steps, latencies, eval_s, mismatches,
                       queries, test, splits, report, digests[0])


def run_checks(w: Workload, m: Measurement, paths: dict, same_as: Measurement | None):
    from boxquery.queries import STRUCTURE_NAMES, TRAINABLE_NAMES

    from checks import (Checks, TripleOracle, check_answers, check_generation,
                        check_report, check_training)

    checks = Checks()
    counts = {name: w.per_structure for name in STRUCTURE_NAMES}
    check_generation(checks, m.queries, counts, TRAINABLE_NAMES)
    check_answers(checks, TripleOracle(paths), m.queries, m.splits.vocab, ORACLE_PER_PAIR)
    check_training(checks, [s for s in m.train_steps if s[0] == 0], STEPS)
    check_report(checks, m.report, m.test)
    # the program is deterministic, so every round must repeat round 0
    repeats = len(m.gen_s) - 1 + 2 * (len(m.eval_s) - 1)
    checks.add(repeats, len(m.mismatches), "; ".join(m.mismatches))
    if same_as is not None:
        # tracing must not change what the program computes
        checks.add(1, int(m.digest != same_as.digest), "traced generation differs")
        checks.add(1, int(m.report.to_json() != same_as.report.to_json()),
                   "traced eval report differs")
        checks.add(1, int([s[3] for s in m.train_steps] != [s[3] for s in same_as.train_steps]),
                   "traced training loss differs")
    return checks


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def end_to_end_metrics(m: Measurement, peak_rss_mb: float) -> dict[str, float]:
    """Medians over the repeated units of the rounds. Training leaves out
    the first step of each round, which also builds the model; latency
    takes each query's median over the rounds first."""
    n_gen = sum(len(v) for v in m.queries.values())
    n_test = len(m.test)
    steps = [samples / secs for i, (_, samples, secs, _) in enumerate(m.train_steps)
             if i % STEPS]
    per_query_ms = [statistics.median(m.latencies_ms[i::n_test]) for i in range(n_test)]
    return {
        "setup_s": statistics.median(m.setup_s),
        "gen_queries_per_s": statistics.median(n_gen / s for s in m.gen_s),
        "train_samples_per_s": statistics.median(steps),
        "eval_queries_per_s": statistics.median(n_test / s for s in m.eval_s),
        "eval_query_ms_p50": percentile(per_query_ms, 50),
        "eval_query_ms_p95": percentile(per_query_ms, 95),
        "peak_rss_mb": peak_rss_mb,
    }


def layer_metrics(tracer, base: Measurement, traced: Measurement) -> dict[str, tuple]:
    from spans import COUNTED, LAYERS, PHASE_PREFIX

    summary = tracer.summary()
    out: dict[str, tuple] = {}
    for name in dict.fromkeys(layer for layer, *_ in LAYERS):
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    for name, *_ in COUNTED:
        out[f"{name}.calls"] = (tracer.counts.get(name, 0), "count")
    out["geometry.dist_box_many.rows"] = (tracer.rows, "count")
    accepted = sum(len(v) for v in traced.queries.values())
    attempts = summary.get("sampling.try_instantiate", {"calls": 0})["calls"]
    out["sampling.accepted"] = (accepted, "count")
    out["sampling.accept_ratio"] = (accepted / attempts if attempts else 0.0, "fraction")
    phases = {k: v for k, v in summary.items() if k.startswith(PHASE_PREFIX)}
    covered = sum(p["total_s"] for p in phases.values())
    out["trace.unattributed_share"] = (
        sum(p["self_s"] for p in phases.values()) / covered, "fraction"
    )
    out["trace.overhead_share"] = (
        sum(traced.phase_s.values()) / sum(base.phase_s.values()), "ratio"
    )
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    import numpy as np

    source = hashlib.sha256()
    for path in sorted((SRC / "boxquery").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "machine": platform.machine(),
    }


def run_workload(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload and return the result record."""
    import graphs

    work = WORK / w.name
    t0 = perf_counter()
    rows = graphs.zipf_triples(w.entities, w.relations, w.triples, seed)
    paths = graphs.write_split(rows, work, seed)
    inputs_s = perf_counter() - t0

    env = environment(w, seed, seconds, trace)
    if not trace:
        m = measure(w, paths, seed, seconds, MIN_ROUNDS, True)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = run_checks(w, m, paths, None)
        units = dict(END_TO_END)
        metrics = {k: (v, units[k]) for k, v in end_to_end_metrics(m, peak).items()}
        detail = {
            "setup_s": m.setup_s, "gen_s": m.gen_s, "eval_s": m.eval_s,
            "train_step_s": [s[2] for s in m.train_steps],
            "eval_latency_samples": len(m.latencies_ms),
        }
    else:
        from spans import Tracer

        # one untraced round, then the same round traced
        base = measure(w, paths, seed, 0.0, 1, False)
        tracer = Tracer()
        m = measure(w, paths, seed, 0.0, 1, False, tracer=tracer)
        checks = run_checks(w, m, paths, base)
        metrics = layer_metrics(tracer, base, m)
        tracer.write(work / f"spans-seed{seed}.npz")
        detail = {"untraced_phase_s": base.phase_s}
    return {
        "environment": env,
        "inputs": {"triples_s": inputs_s, "entities": m.splits.train.n_entities,
                   "relations": m.splits.train.n_relations, "edges": m.splits.raw_stats,
                   "queries": {k: len(v) for k, v in m.queries.items()},
                   "eval_queries": len(m.test)},
        "phase_s": m.phase_s,
        "detail": detail,
        "query_digest": m.digest,
        "eval_mrr": m.report.overall["mrr"],
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failed_share": checks.failed / checks.attempted,
                   "messages": checks.messages},
        "metrics": metrics,
    }


def print_report(record: dict) -> None:
    env = record["environment"]
    print("environment " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(record["inputs"], sort_keys=True))
    print("phase_s " + json.dumps(record["phase_s"], sort_keys=True))
    print("detail " + json.dumps(record["detail"], sort_keys=True))
    print(f"query_digest {record['query_digest']}")
    print(f"eval_mrr {record['eval_mrr']!r}")
    c = record["checks"]
    print(f"checks attempted={c['attempted']} failed={c['failed']} "
          f"failed_share={c['failed_share']!r}")
    for message in c["messages"]:
        print(f"  FAILED {message}")
    print(f"{'metric':<40}{'value':>18}  unit")
    for name, (value, unit) in record["metrics"].items():
        print(f"{name:<40}{value:>18.6g}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _import_program()
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_report(record)
    c = record["checks"]
    print(json.dumps({
        "correct": c["failed"] == 0,
        "attempted": c["attempted"],
        "failed": c["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
