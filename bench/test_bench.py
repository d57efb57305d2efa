"""Toy-size smoke runs of every benchmark workload, traced and untraced.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def toy(w: run.Workload) -> run.Workload:
    return dataclasses.replace(
        w, entities=120, relations=6, triples=900, per_structure=3, dim=8,
        negatives=4, batch=2,
    )


@pytest.fixture(autouse=True)
def toy_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", {n: toy(w) for n, w in run.WORKLOADS.items()})
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "MIN_ROUNDS", 2)


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("environment ") for line in out)


def test_same_seed_repeats_outputs(capsys):
    digests = []
    for _ in range(2):
        run.main(["--workload", "mid-d64", "--seed", "5", "--seconds", "1", "--trace", "0"])
        out = capsys.readouterr().out.splitlines()
        digests.append([line for line in out if line.startswith(("query_digest", "eval_mrr"))])
    assert digests[0] == digests[1] and len(digests[0]) == 2


def test_missing_program_exits_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "mid-d64", "--seed", "1", "--seconds", "1"])
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""
