import json
import re
import warnings

import pytest

from boxquery.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Synthetic KG -> snapshot -> queries, shared by the command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    code = main(["synthesize-kg", "--kind", "bipartite", "--entities", "16",
                 "--out", str(data), "--valid-fraction", "0.05",
                 "--test-fraction", "0.05", "--seed", "3"])
    assert code == 0
    snapshot = root / "graph.snap"
    code = main(["prepare-data", "--train", str(data / "train.txt"),
                 "--valid", str(data / "valid.txt"), "--test", str(data / "test.txt"),
                 "--out", str(snapshot)])
    assert code == 0
    queries = root / "queries"
    with warnings.catch_warnings():
        # the tiny graph cannot always fill the requested counts
        warnings.simplefilter("ignore")
        code = main(["generate-queries", "--snapshot", str(snapshot), "--out",
                     str(queries), "--count", "8", "--heldin-count", "4",
                     "--seed", "5"])
    assert code == 0
    return root, snapshot, queries


class TestSynthesizeAndPrepare:
    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "prepare-data", "--train", str(tmp_path / "absent.txt"),
            "--valid", "x", "--test", "y", "--out", str(tmp_path / "s"),
        )
        assert code == 2
        assert "absent.txt" in err

    def test_prepare_rerun_is_byte_identical(self, capsys, tmp_path):
        data = tmp_path / "d"
        assert main(["synthesize-kg", "--kind", "chain", "--entities", "10",
                     "--out", str(data)]) == 0
        capsys.readouterr()
        outs = []
        for name in ("one.snap", "two.snap"):
            out = tmp_path / name
            code, _, _ = run(capsys, "prepare-data", "--train", str(data / "train.txt"),
                             "--valid", str(data / "valid.txt"),
                             "--test", str(data / "test.txt"), "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_malformed_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("only two\tfields\n", encoding="utf-8")
        code, _, err = run(capsys, "prepare-data", "--train", str(bad),
                           "--valid", str(bad), "--test", str(bad),
                           "--out", str(tmp_path / "s"))
        assert code == 1
        assert "bad.txt" in err

    def test_stats_line_shape(self, capsys, tmp_path):
        data = tmp_path / "d"
        main(["synthesize-kg", "--kind", "tree", "--entities", "15", "--out", str(data)])
        capsys.readouterr()
        code, out, _ = run(capsys, "prepare-data", "--train", str(data / "train.txt"),
                           "--valid", str(data / "valid.txt"),
                           "--test", str(data / "test.txt"),
                           "--out", str(tmp_path / "s.snap"))
        assert code == 0
        assert "entities" in out and "split edges" in out

    def test_nell_resplit_roundtrip(self, capsys, tmp_path):
        data = tmp_path / "d"
        main(["synthesize-kg", "--kind", "bipartite", "--entities", "14",
              "--out", str(data)])
        capsys.readouterr()
        code, out, _ = run(capsys, "prepare-data", "--train", str(data / "train.txt"),
                           "--valid", str(data / "valid.txt"),
                           "--test", str(data / "test.txt"),
                           "--nell-resplit", "--valid-size", "5", "--test-size", "5",
                           "--seed", "1", "--out", str(tmp_path / "s.snap"))
        assert code == 0
        assert (tmp_path / "resplit" / "train.txt").exists()


class TestGenerateQueries:
    def test_requires_counts(self, capsys, pipeline):
        _, snapshot, _ = pipeline
        code, _, err = run(capsys, "generate-queries", "--snapshot", str(snapshot),
                           "--out", "/tmp/unused-queries")
        assert code == 2
        assert "count" in err

    @pytest.mark.parametrize("entry", ["1p", "1p=x", "1p=-3", "2i=5"])
    def test_malformed_counts_exit_2(self, capsys, pipeline, tmp_path, entry):
        _, snapshot, _ = pipeline
        code, _, err = run(capsys, "generate-queries", "--snapshot", str(snapshot),
                           "--out", str(tmp_path / "q"), "--counts", f"2i=3,{entry}")
        assert code == 2
        assert repr(entry) in err
        assert not (tmp_path / "q").exists()

    @pytest.mark.parametrize("flag", ["--count", "--heldin-count"])
    def test_negative_count_exits_2(self, pipeline, tmp_path, flag):
        _, snapshot, _ = pipeline
        with pytest.raises(SystemExit) as excinfo:
            main(["generate-queries", "--snapshot", str(snapshot), "--out", str(tmp_path / "q"),
                  "--count", "3", flag, "-3"])
        assert excinfo.value.code == 2

    def test_rerun_is_byte_identical(self, capsys, pipeline, tmp_path):
        _, snapshot, _ = pipeline
        blobs = []
        for sub in ("q1", "q2"):
            out = tmp_path / sub
            code, _, _ = run(capsys, "generate-queries", "--snapshot", str(snapshot),
                             "--out", str(out), "--count", "5", "--seed", "11")
            assert code == 0
            blobs.append((out / "train-queries.txt").read_bytes())
        assert blobs[0] == blobs[1]


@pytest.fixture(scope="module")
def checkpoint(pipeline):
    root, snapshot, queries = pipeline
    ckpt = root / "model.ckpt"
    code = main(["train", "--snapshot", str(snapshot), "--queries", str(queries),
                 "--out", str(ckpt), "--dim", "8", "--epochs", "2",
                 "--gamma", "2.0", "--negatives", "4",
                 "--batch-per-structure", "8", "--learning-rate", "0.01",
                 "--seed", "1"])
    assert code == 0
    return ckpt


class TestTrainEvalAnalyze:
    def test_dry_run(self, capsys, pipeline):
        root, snapshot, queries = pipeline
        code, out, _ = run(capsys, "train", "--snapshot", str(snapshot),
                           "--queries", str(queries), "--out", str(root / "nope.ckpt"),
                           "--dim", "8", "--epochs", "2", "--gamma", "2.0",
                           "--negatives", "4", "--batch-per-structure", "8",
                           "--seed", "1", "--dry-run")
        assert code == 0
        assert "dry run complete" in out
        assert not (root / "nope.ckpt").exists()

    def test_effective_config_printed(self, capsys, pipeline, tmp_path):
        root, snapshot, queries = pipeline
        config_file = tmp_path / "run.conf"
        config_file.write_text("dim = 8\ngamma = 2.0  # margin\nnegatives = 4\n",
                               encoding="utf-8")
        code, out, _ = run(capsys, "train", "--snapshot", str(snapshot),
                           "--queries", str(queries), "--out", str(root / "c.ckpt"),
                           "--config", str(config_file), "--epochs", "1",
                           "--batch-per-structure", "4", "--seed", "2")
        assert code == 0
        assert "dim = 8" in out  # from the file
        assert "epochs = 1" in out  # flag override wins

    def test_eval_writes_report(self, capsys, pipeline, checkpoint, tmp_path):
        root, snapshot, queries = pipeline
        report_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "eval", "--checkpoint", str(checkpoint),
                           "--snapshot", str(snapshot), "--queries", str(queries),
                           "--stage", "train", "--report", str(report_path))
        assert code == 0
        assert "overall" in out
        data = json.loads(report_path.read_text(encoding="utf-8"))
        assert data["stage"] == "train"
        assert set(data["overall"]) == {"mrr", "h1", "h3", "h10"}

    def test_eval_vocabulary_mismatch_exits_2(self, capsys, pipeline, checkpoint, tmp_path):
        root, snapshot, queries = pipeline
        other_data = tmp_path / "other"
        main(["synthesize-kg", "--kind", "chain", "--entities", "12",
              "--out", str(other_data)])
        other_snap = tmp_path / "other.snap"
        main(["prepare-data", "--train", str(other_data / "train.txt"),
              "--valid", str(other_data / "valid.txt"),
              "--test", str(other_data / "test.txt"), "--out", str(other_snap)])
        capsys.readouterr()
        code, _, err = run(capsys, "eval", "--checkpoint", str(checkpoint),
                           "--snapshot", str(other_snap), "--queries", str(queries),
                           "--stage", "train")
        assert code == 2
        assert "does not match" in err
        # both hash prefixes appear in the message
        assert err.count("entities") >= 2

    def test_eval_nonfinite_checkpoint_exits_2(self, capsys, pipeline, checkpoint, tmp_path):
        from boxquery.model import load_checkpoint, save_checkpoint

        root, snapshot, queries = pipeline
        params, ent_hash, rel_hash = load_checkpoint(checkpoint)
        params.tensors["attn.w2"][0, 0] = float("inf")
        bad = tmp_path / "inf.ckpt"
        save_checkpoint(bad, params, ent_hash, rel_hash)
        code, out, err = run(capsys, "eval", "--checkpoint", str(bad),
                             "--snapshot", str(snapshot), "--queries", str(queries),
                             "--stage", "train")
        assert code == 2
        assert str(bad) in err and "attn.w2" in err
        assert "overall" not in out

    def test_analyze_offsets(self, capsys, pipeline, checkpoint):
        root, snapshot, _ = pipeline
        code, out, _ = run(capsys, "analyze", "offsets", "--snapshot", str(snapshot),
                           "--checkpoint", str(checkpoint))
        assert code == 0
        assert "rank correlation" in out

    def test_analyze_disjoint_m(self, capsys, pipeline):
        root, snapshot, _ = pipeline
        code, out, _ = run(capsys, "analyze", "disjoint-m", "--snapshot", str(snapshot),
                           "--seed", "4")
        assert code == 0
        assert "single-hop disjoint queries" in out

    def test_unknown_flag_exits_2(self, pipeline):
        _, snapshot, _ = pipeline
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--no-such-flag", "--snapshot", str(snapshot)])
        assert excinfo.value.code == 2

    def test_eval_has_no_workers_option(self, pipeline, checkpoint):
        _, snapshot, queries = pipeline
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--checkpoint", str(checkpoint), "--snapshot", str(snapshot),
                  "--queries", str(queries), "--workers", "2"])
        assert excinfo.value.code == 2


def _corrupt_first_line(queries, tmp_path, name, edit):
    """Copy the query directory and apply `edit` to the first line of `name`."""
    import shutil

    copy = tmp_path / "queries"
    shutil.copytree(queries, copy)
    path = copy / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = edit(lines[0])
    path.write_text("".join(lines), encoding="utf-8")
    return copy


def _set_anchor(value):
    return lambda line: re.sub(r"(\d+:a:\d+:)\d+", rf"\g<1>{value}", line, count=1)


def _set_relation(value):
    return lambda line: re.sub(r"(\d+-\d+:p:\d+:)\d+", rf"\g<1>{value}", line, count=1)


def _add_answer(value):
    def edit(line):
        # train <= valid <= test must still nest, so every column gains it
        name, graph, *answers = line.rstrip("\n").split("\t")
        answers = [value if a == "-" else f"{a},{value}" for a in answers]
        return "\t".join([name, graph, *answers]) + "\n"
    return edit


class TestQueryFileIds:
    """Ids outside the snapshot's vocabulary exit 2 with file:line, never a
    traceback and never a silently wrapped negative index."""

    @pytest.mark.parametrize("edit, kind", [
        (_set_anchor(999), "anchor entity id 999"),
        (_set_relation(77), "relation id 77"),
        (_add_answer(700), "answer id 700"),
        (_set_anchor(-3), "anchor entity id -3"),
        (_add_answer(-7), "answer id -7"),
    ])
    def test_eval_rejects_bad_id(self, capsys, pipeline, checkpoint, tmp_path, edit, kind):
        _, snapshot, queries = pipeline
        bad = _corrupt_first_line(queries, tmp_path, "heldin-queries.txt", edit)
        code, out, err = run(capsys, "eval", "--checkpoint", str(checkpoint),
                             "--snapshot", str(snapshot), "--queries", str(bad),
                             "--stage", "train")
        assert code == 2
        assert "heldin-queries.txt:1" in err
        assert kind in err
        assert "overall" not in out

    def test_train_checks_ids(self, capsys, pipeline, tmp_path):
        root, snapshot, queries = pipeline
        bad = _corrupt_first_line(queries, tmp_path, "train-queries.txt", _set_anchor(999))
        code, _, err = run(capsys, "train", "--snapshot", str(snapshot),
                           "--queries", str(bad), "--out", str(tmp_path / "x.ckpt"),
                           "--dim", "8", "--negatives", "4", "--dry-run")
        assert code == 2
        assert "train-queries.txt:1" in err
