import hashlib
import json
import shutil
import tracemalloc
import warnings

import pytest

from boxquery import cli
from boxquery.cli import main

from conftest import drop_inverse_edge


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

    def test_prepare_into_new_directory(self, capsys, tmp_path):
        data = tmp_path / "d"
        main(["synthesize-kg", "--kind", "chain", "--entities", "10", "--out", str(data)])
        capsys.readouterr()
        out = tmp_path / "new" / "nested" / "s.snap"
        code, _, err = run(capsys, "prepare-data", "--train", str(data / "train.txt"),
                           "--valid", str(data / "valid.txt"),
                           "--test", str(data / "test.txt"), "--out", str(out))
        assert code == 0 and err == ""
        assert out.is_file()

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        data = tmp_path / "d"
        main(["synthesize-kg", "--kind", "chain", "--entities", "10", "--out", str(data)])
        capsys.readouterr()
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n", encoding="utf-8")
        code, _, err = run(capsys, "prepare-data", "--train", str(data / "train.txt"),
                           "--valid", str(data / "valid.txt"),
                           "--test", str(data / "test.txt"),
                           "--out", str(blocker / "snap.txt"))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and str(blocker) in err
        assert "snap.txt" in err
        assert blocker.read_text(encoding="utf-8") == "not a directory\n"

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

    def test_negative_holdout_fraction_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "synthesize-kg", "--kind", "bipartite", "--entities", "20",
                           "--out", str(tmp_path / "d"), "--valid-fraction", "-0.5",
                           "--test-fraction", "0.2")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "n_valid" in err
        assert not list(tmp_path.glob("d/*.txt"))

    def test_negative_resplit_size_exits_1(self, capsys, tmp_path):
        data = tmp_path / "d"
        main(["synthesize-kg", "--kind", "bipartite", "--entities", "20", "--out", str(data)])
        capsys.readouterr()
        code, _, err = run(capsys, "prepare-data", "--train", str(data / "train.txt"),
                           "--valid", str(data / "valid.txt"),
                           "--test", str(data / "test.txt"),
                           "--nell-resplit", "--valid-size", "-20", "--test-size", "5",
                           "--out", str(tmp_path / "s.snap"))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1 and "n_valid" in err and "-20" in err
        assert not (tmp_path / "resplit").exists()


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

    def test_snapshot_without_an_inverse_edge_exits_1(self, capsys, pipeline, tmp_path):
        _, snapshot, _ = pipeline
        bad = tmp_path / "bad.snap"
        shutil.copy(snapshot, bad)
        drop_inverse_edge(bad, "train")
        code, out, err = run(capsys, "generate-queries", "--snapshot", str(bad),
                             "--out", str(tmp_path / "q"), "--count", "2")
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith(f"error: {bad}: corrupt snapshot: train edge (")
        assert "has no inverse" in err
        assert out == ""
        assert not (tmp_path / "q").exists()

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

    def test_warnings_print_one_line_each(self, capsys, tmp_path):
        data, snapshot = tmp_path / "d", tmp_path / "g.snap"
        for argv in (["synthesize-kg", "--kind", "chain", "--entities", "12",
                      "--valid-fraction", "0.1", "--test-fraction", "0.1", "--seed", "1",
                      "--out", str(data)],
                     ["prepare-data", "--train", str(data / "train.txt"),
                      "--valid", str(data / "valid.txt"), "--test", str(data / "test.txt"),
                      "--out", str(snapshot)]):
            assert main(argv) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code, _, err = run(capsys, "generate-queries", "--snapshot", str(snapshot),
                               "--out", str(tmp_path / "q"), "--count", "3")
        assert code == 0
        assert "sampling.py" not in err
        lines = err.splitlines()
        assert len(lines) == 15 and all(line.startswith("warning: ") for line in lines)
        assert ("warning: train/3i: generated 0 of 3 queries before exhausting the retry "
                "budget (3000 attempts: 0 dead ends, 3000 degenerate") in err


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
    @pytest.mark.parametrize("flag, value", [
        ("--dim", "0"),
        ("--dim", "-3"),
        ("--batch-per-structure", "0"),
        ("--epochs", "0"),
        ("--learning-rate", "-1"),
        ("--train-structures", "1p,zz"),
        ("--gamma", "nan"),
        ("--gamma", "inf"),
    ])
    def test_out_of_range_config_exits_1(self, capsys, pipeline, tmp_path, flag, value):
        root, snapshot, queries = pipeline
        out_path = tmp_path / "x.ckpt"
        code, _, err = run(capsys, "train", "--snapshot", str(snapshot),
                           "--queries", str(queries), "--out", str(out_path),
                           "--dim", "8", "--epochs", "1", "--batch-per-structure", "4",
                           "--negatives", "4", flag, value)
        assert code == 1
        assert err.startswith("error:") and flag.lstrip("-").replace("-", "_") in err
        assert not out_path.exists()
        assert not (tmp_path / "x.ckpt.diag").exists()

    def test_out_under_a_regular_file_exits_2_before_training(self, capsys, pipeline,
                                                               tmp_path):
        root, snapshot, queries = pipeline
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n", encoding="utf-8")
        code, out, err = run(capsys, "train", "--snapshot", str(snapshot),
                             "--queries", str(queries), "--out", str(blocker / "m.ckpt"),
                             "--dim", "8", "--epochs", "3", "--batch-per-structure", "4",
                             "--negatives", "4")
        assert code == 2
        assert err.startswith("error:") and "m.ckpt" in err
        assert "epoch=" not in out

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

    def test_setting_flags_and_keys_are_model_config_fields(self, tmp_path):
        from dataclasses import fields

        from boxquery.cli import build_parser
        from boxquery.config import build_model_config, format_config, parse_config_file
        from boxquery.model import ModelConfig

        names = {f.name for f in fields(ModelConfig)}
        config = ModelConfig(dim=8, gamma=2.5, intersection_mode="deepsets",
                             train_structures=("2i", "1p"), dtype="float32")
        lines = format_config(config).splitlines()
        # every field is a key, and the printed form of a config reads back as it
        path = tmp_path / "all.conf"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert parse_config_file(path).keys() == names
        assert build_model_config(str(path), {}) == config
        # every field is a flag, spelled with dashes, reading the same values
        argv = ["train", "--snapshot", "s", "--queries", "q", "--out", "o"]
        for line in lines:
            key, value = line.split(" = ")
            argv += ["--" + key.replace("_", "-"), value]
        args = vars(build_parser().parse_args(argv))
        others = {"command", "func", "snapshot", "queries", "out", "config", "dry_run"}
        assert args.keys() - others == names
        assert build_model_config(None, {name: args[name] for name in names}) == config

    def test_flags_beat_file_values(self, capsys, pipeline, tmp_path):
        root, snapshot, queries = pipeline
        config_file = tmp_path / "run.conf"
        config_file.write_text("dim = 6\ngamma = 3.5\nintersection_mode = average\n"
                               "train_structures = 1p,2p\nnegatives = 4\n", encoding="utf-8")
        code, out, _ = run(capsys, "train", "--snapshot", str(snapshot),
                           "--queries", str(queries), "--out", str(root / "unused.ckpt"),
                           "--config", str(config_file), "--dim", "8", "--gamma", "2.0",
                           "--intersection-mode", "deepsets", "--train-structures", "1p,2i",
                           "--batch-per-structure", "4", "--dry-run")
        assert code == 0
        for line in ("dim = 8", "gamma = 2.0", "intersection_mode = deepsets",
                     "train_structures = 1p,2i", "negatives = 4"):
            assert f"#   {line}\n" in out

    @pytest.mark.parametrize("line, key", [("dim = abc", "dim"), ("gamma = x", "gamma")])
    def test_config_value_cast_error_names_line(self, capsys, pipeline, tmp_path, line, key):
        root, snapshot, queries = pipeline
        config_file = tmp_path / "run.conf"
        config_file.write_text(f"negatives = 4\n{line}\n", encoding="utf-8")
        code, _, err = run(capsys, "train", "--snapshot", str(snapshot),
                           "--queries", str(queries), "--out", str(root / "unused.ckpt"),
                           "--config", str(config_file), "--dry-run")
        assert code == 1
        assert err.startswith(f"error: {config_file}:2: ") and key in err

    @pytest.mark.parametrize("line, message", [
        ("dim = 0", "dim must be at least 1, got 0"),
        ("alpha = 1.5", "alpha must lie in (0, 1)"),
        ("intersection_mode = sum", "unknown intersection mode 'sum'"),
        ("train_structures = 1p,zz", "train_structures must be"),
        ("gamma = nan", "gamma must be finite and positive"),
    ])
    def test_config_value_range_error_names_line(self, capsys, pipeline, tmp_path, line,
                                                  message):
        root, snapshot, queries = pipeline
        config_file = tmp_path / "run.conf"
        config_file.write_text(f"negatives = 4\n{line}\n", encoding="utf-8")
        code, _, err = run(capsys, "train", "--snapshot", str(snapshot),
                           "--queries", str(queries), "--out", str(root / "unused.ckpt"),
                           "--config", str(config_file), "--dry-run")
        assert code == 1
        assert err.startswith(f"error: {config_file}:2: {message}")

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

    def test_eval_without_queries_exits_2(self, capsys, tmp_path):
        data, snapshot, queries = tmp_path / "d", tmp_path / "g.snap", tmp_path / "q"
        ckpt, report_path = tmp_path / "m.ckpt", tmp_path / "r.json"
        # no held-out triples, so the test query file is empty
        for argv in (["synthesize-kg", "--kind", "bipartite", "--entities", "20",
                      "--out", str(data)],
                     ["prepare-data", "--train", str(data / "train.txt"),
                      "--valid", str(data / "valid.txt"), "--test", str(data / "test.txt"),
                      "--out", str(snapshot)],
                     ["generate-queries", "--snapshot", str(snapshot), "--out", str(queries),
                      "--count", "3"],
                     ["train", "--snapshot", str(snapshot), "--queries", str(queries),
                      "--out", str(ckpt), "--dim", "4", "--epochs", "1", "--negatives", "2",
                      "--batch-per-structure", "2"]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the tiny graph cannot fill every count
                assert main(argv) == 0
        capsys.readouterr()
        code, _, err = run(capsys, "eval", "--checkpoint", str(ckpt), "--snapshot",
                           str(snapshot), "--queries", str(queries), "--report", str(report_path))
        assert code == 2
        assert err.splitlines() == [f"error: {queries / 'test-queries.txt'}: no queries to evaluate"]
        assert not report_path.exists()

    @staticmethod
    def _other_vocabulary(checkpoint, tmp_path):
        # the pipeline's checkpoint against a chain graph's snapshot
        data, snapshot = tmp_path / "other", tmp_path / "other.snap"
        main(["synthesize-kg", "--kind", "chain", "--entities", "12", "--out", str(data)])
        main(["prepare-data", "--train", str(data / "train.txt"),
              "--valid", str(data / "valid.txt"), "--test", str(data / "test.txt"),
              "--out", str(snapshot)])
        return checkpoint, snapshot

    @staticmethod
    def _other_edges(checkpoint, tmp_path):
        # the same entity and relation names, and one edge of another relation
        from boxquery.kg import save_splits
        from boxquery.model import ModelConfig, ModelParams, save_checkpoint
        from conftest import make_splits

        trained = make_splits([("A", "r", "B"), ("B", "s", "C"), ("C", "r", "A")])
        other = make_splits([("A", "r", "B"), ("B", "s", "C"), ("C", "s", "A")])
        ckpt, snapshot = tmp_path / "pair.ckpt", tmp_path / "pair.snap"
        save_checkpoint(ckpt, ModelParams(ModelConfig(dim=4), 3, 4), trained)
        save_splits(other, snapshot)
        return ckpt, snapshot

    @pytest.mark.parametrize("case", [_other_vocabulary, _other_edges],
                             ids=["vocabulary", "edges"])
    @pytest.mark.parametrize("command", [("eval", "--stage", "train"), ("analyze", "offsets")])
    def test_checkpoint_of_another_snapshot_exits_2(self, capsys, pipeline, checkpoint,
                                                    tmp_path, case, command):
        _, _, queries = pipeline
        ckpt, snapshot = case.__func__(checkpoint, tmp_path)
        capsys.readouterr()
        extra = ("--queries", str(queries)) if command[0] == "eval" else ()
        code, out, err = run(capsys, *command, "--checkpoint", str(ckpt),
                             "--snapshot", str(snapshot), *extra)
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"error: {ckpt}: trained on another snapshot (digest ")
        assert out == ""

    def test_eval_nonfinite_checkpoint_exits_2(self, capsys, pipeline, checkpoint, tmp_path):
        from boxquery.kg import load_splits
        from boxquery.model import load_checkpoint, save_checkpoint

        root, snapshot, queries = pipeline
        splits = load_splits(snapshot)
        params = load_checkpoint(checkpoint, splits)
        params.tensors["attn.w2"][0, 0] = float("inf")
        bad = tmp_path / "inf.ckpt"
        save_checkpoint(bad, params, splits)
        code, out, err = run(capsys, "eval", "--checkpoint", str(bad),
                             "--snapshot", str(snapshot), "--queries", str(queries),
                             "--stage", "train")
        assert code == 2
        assert str(bad) in err and "attn.w2" in err
        assert "overall" not in out

    @staticmethod
    def _unknown_key(header):
        header["config"]["depth"] = 2

    @staticmethod
    def _string_dim(header):
        header["config"]["dim"] = str(header["config"]["dim"])

    @staticmethod
    def _no_snapshot(header):
        del header["snapshot"]

    @staticmethod
    def _version_1(header):
        header["version"] = 1

    @staticmethod
    def _version_2(header):
        header["version"] = 2

    @pytest.mark.parametrize("edit", [_unknown_key, _string_dim, _no_snapshot, _version_1,
                                      _version_2, None])
    @pytest.mark.parametrize("command", [("eval", "--stage", "train"), ("analyze", "offsets")])
    def test_malformed_checkpoint_header_exits_2(self, capsys, pipeline, checkpoint, tmp_path,
                                                 edit, command):
        root, snapshot, queries = pipeline
        header_line, payload = checkpoint.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        if edit is None:  # a JSON value that is not an object
            header = [header]
        else:
            edit.__func__(header)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)
        extra = ("--queries", str(queries)) if command[0] == "eval" else ()
        code, out, err = run(capsys, *command, "--checkpoint", str(bad),
                             "--snapshot", str(snapshot), *extra)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and str(bad) in err
        assert out == ""

    def test_analyze_offsets(self, capsys, pipeline, checkpoint):
        root, snapshot, _ = pipeline
        code, out, _ = run(capsys, "analyze", "offsets", "--snapshot", str(snapshot),
                           "--checkpoint", str(checkpoint))
        assert code == 0
        assert "rank correlation" in out

    def test_outputs_into_new_directories(self, capsys, pipeline, checkpoint, tmp_path):
        root, snapshot, queries = pipeline
        ckpt = tmp_path / "runs" / "a" / "m.ckpt"
        code, _, _ = run(capsys, "train", "--snapshot", str(snapshot),
                         "--queries", str(queries), "--out", str(ckpt), "--dim", "4",
                         "--epochs", "1", "--negatives", "2", "--batch-per-structure", "2")
        assert code == 0 and ckpt.is_file()
        report_path = tmp_path / "reports" / "b" / "r.json"
        code, _, _ = run(capsys, "eval", "--checkpoint", str(checkpoint),
                         "--snapshot", str(snapshot), "--queries", str(queries),
                         "--stage", "train", "--report", str(report_path))
        assert code == 0
        assert json.loads(report_path.read_text(encoding="utf-8"))["stage"] == "train"

    @pytest.mark.parametrize("flag, value, mode", [
        ("--offset-mode", "shared", "offset_mode=shared"),
        ("--geometry", "point", "geometry=point"),
    ])
    def test_analyze_offsets_of_untrained_offsets_exits_2(self, capsys, pipeline, tmp_path,
                                                          flag, value, mode):
        # these modes never read relation_offset, so it stays zero
        root, snapshot, queries = pipeline
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--snapshot", str(snapshot), "--queries", str(queries),
                     "--out", str(ckpt), "--dim", "4", "--epochs", "1", "--negatives", "2",
                     "--batch-per-structure", "2", flag, value]) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "analyze", "offsets", "--snapshot", str(snapshot),
                             "--checkpoint", str(ckpt))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(ckpt) in err and mode in err
        assert out == ""

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


class TestNonUtf8Input:
    """A byte that is not UTF-8 is reported with its file and line, exit 1,
    by each reader of text input."""

    @staticmethod
    def corrupt(path, line, copy):
        """Write `path` to `copy` with byte 0xe6 inserted at the start of `line`."""
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xe6" + lines[line - 1]
        copy.write_bytes(b"".join(lines))
        return copy

    def check(self, capsys, argv, bad, line):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: {bad}:{line}: not UTF-8 text") and err.count("\n") == 1

    def test_triple_file(self, capsys, tmp_path):
        data = tmp_path / "d"
        main(["synthesize-kg", "--kind", "chain", "--entities", "10", "--out", str(data)])
        capsys.readouterr()
        bad = self.corrupt(data / "train.txt", 3, tmp_path / "train.txt")
        self.check(capsys, ["prepare-data", "--train", str(bad), "--valid",
                            str(data / "valid.txt"), "--test", str(data / "test.txt"),
                            "--out", str(tmp_path / "s.snap")], bad, 3)

    def test_snapshot(self, capsys, pipeline, tmp_path):
        _, snapshot, _ = pipeline
        bad = self.corrupt(snapshot, 5, tmp_path / "graph.snap")
        self.check(capsys, ["generate-queries", "--snapshot", str(bad),
                            "--out", str(tmp_path / "q"), "--count", "2"], bad, 5)

    def test_query_file(self, capsys, pipeline, tmp_path):
        _, snapshot, queries = pipeline
        copy = tmp_path / "queries"
        shutil.copytree(queries, copy)
        path = self.corrupt(queries / "train-queries.txt", 2, copy / "train-queries.txt")
        self.check(capsys, ["train", "--snapshot", str(snapshot), "--queries", str(copy),
                            "--out", str(tmp_path / "x.ckpt"), "--dim", "8",
                            "--negatives", "4", "--dry-run"], path, 2)

    def test_config_file(self, capsys, pipeline, tmp_path):
        _, snapshot, queries = pipeline
        config_file = tmp_path / "run.conf"
        config_file.write_text("dim = 8\nnegatives = 4  # few\n", encoding="utf-8")
        bad = self.corrupt(config_file, 2, tmp_path / "bad.conf")
        self.check(capsys, ["train", "--snapshot", str(snapshot), "--queries", str(queries),
                            "--out", str(tmp_path / "x.ckpt"), "--config", str(bad),
                            "--dry-run"], bad, 2)


def _corrupt_first_record(queries, tmp_path, name, edit):
    """Copy the query directory and apply `edit` to the first record of
    `name`, on line 2 below the header."""
    copy = tmp_path / "queries"
    shutil.copytree(queries, copy)
    path = copy / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = edit(lines[1])
    path.write_text("".join(lines), encoding="utf-8")
    return copy


def _edit_field(line, index, change):
    """`line` with record field `index` (0 is the structure) replaced by
    `change(field)`."""
    fields = line.rstrip("\n").split("\t")
    fields[index] = change(fields[index])
    return "\t".join(fields) + "\n"


def _set_first(value):
    return lambda ids: ",".join([str(value), *ids.split(",")[1:]])


def _set_anchor(value):
    return lambda line: _edit_field(line, 1, _set_first(value))


def _set_relation(value):
    return lambda line: _edit_field(line, 2, _set_first(value))


def _add_answer(value):
    def edit(line):
        # the valid and test answers nest over the train answers, so adding
        # it to the train list, in increasing order, adds it to all three
        def add(ids):
            train = [] if ids == "-" else [int(i) for i in ids.split(",")]
            return ",".join(map(str, sorted(train + [value])))
        return _edit_field(line, 3, add)
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
        bad = _corrupt_first_record(queries, tmp_path, "heldin-queries.txt", edit)
        code, out, err = run(capsys, "eval", "--checkpoint", str(checkpoint),
                             "--snapshot", str(snapshot), "--queries", str(bad),
                             "--stage", "train")
        assert code == 2
        assert "heldin-queries.txt:2" in err
        assert kind in err
        assert "overall" not in out

    @pytest.mark.parametrize("label", ["2i", "zz"])
    def test_eval_rejects_mislabelled_structure(self, capsys, pipeline, checkpoint, tmp_path,
                                                label):
        # the first held-in record is a 1p query
        _, snapshot, queries = pipeline
        bad = _corrupt_first_record(queries, tmp_path, "heldin-queries.txt",
                                    lambda line: label + line[line.index("\t"):])
        code, out, err = run(capsys, "eval", "--checkpoint", str(checkpoint),
                             "--snapshot", str(snapshot), "--queries", str(bad),
                             "--stage", "train")
        assert code == 1
        assert err.startswith("error:") and "heldin-queries.txt:2" in err
        assert "overall" not in out

    def test_train_checks_ids(self, capsys, pipeline, tmp_path):
        root, snapshot, queries = pipeline
        bad = _corrupt_first_record(queries, tmp_path, "train-queries.txt", _set_anchor(999))
        code, _, err = run(capsys, "train", "--snapshot", str(snapshot),
                           "--queries", str(bad), "--out", str(tmp_path / "x.ckpt"),
                           "--dim", "8", "--negatives", "4", "--dry-run")
        assert code == 2
        assert "train-queries.txt:2" in err


def _train_answers_to_test(line):
    """The record with its train answers moved into its test-added list."""
    fields = line.rstrip("\n").split("\t")
    ids = [int(i) for field in (fields[3], fields[5]) if field != "-" for i in field.split(",")]
    fields[3], fields[5] = "-", ",".join(map(str, sorted(ids)))
    return "\t".join(fields) + "\n"


class TestTrainQueryWithoutTrainAnswers:
    def test_train_exits_1_naming_the_query(self, capsys, pipeline, tmp_path):
        _, snapshot, queries = pipeline
        bad = _corrupt_first_record(queries, tmp_path, "train-queries.txt",
                                    _train_answers_to_test)
        name, anchors, relations = (bad / "train-queries.txt").read_text(
            encoding="utf-8").splitlines()[1].split("\t")[:3]
        code, out, err = run(capsys, "train", "--snapshot", str(snapshot),
                             "--queries", str(bad), "--out", str(tmp_path / "x.ckpt"),
                             "--dim", "8", "--negatives", "4", "--dry-run")
        assert code == 1
        assert err == (f"error: {name} training query with anchors [{anchors}] and relations "
                       f"[{relations.replace(',', ', ')}] has no train answers\n")
        assert "dry run complete" not in out


class TestCheckpointId:
    def test_hashes_the_file_a_block_at_a_time(self, tmp_path):
        # eight full blocks and a partial one; the loop holds at most two
        # blocks (the last one read and the next), a read of the whole file
        # all nine
        data = bytes(range(256)) * (8 * cli._HASH_BLOCK // 256) + b"end"
        path = tmp_path / "model.ckpt"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            got = cli._checkpoint_id(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == hashlib.sha256(data).hexdigest()[:12]
        assert peak < 3 * cli._HASH_BLOCK


class TestQueryFileHeader:
    def test_eval_rejects_queries_of_another_snapshot(self, capsys, pipeline, checkpoint,
                                                      tmp_path):
        _, snapshot, _ = pipeline
        data, other, queries = tmp_path / "d", tmp_path / "other.snap", tmp_path / "q"
        for argv in (["synthesize-kg", "--kind", "bipartite", "--entities", "18",
                      "--out", str(data), "--valid-fraction", "0.05", "--test-fraction", "0.05"],
                     ["prepare-data", "--train", str(data / "train.txt"),
                      "--valid", str(data / "valid.txt"), "--test", str(data / "test.txt"),
                      "--out", str(other)],
                     ["generate-queries", "--snapshot", str(other), "--out", str(queries),
                      "--count", "2"]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the tiny graph cannot fill every count
                assert main(argv) == 0
        capsys.readouterr()
        code, out, err = run(capsys, "eval", "--checkpoint", str(checkpoint),
                             "--snapshot", str(snapshot), "--queries", str(queries))
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith(f"error: {queries / 'test-queries.txt'}: generated from another "
                              "snapshot")
        assert "overall" not in out

    def test_file_without_header_asks_to_regenerate(self, capsys, pipeline, checkpoint,
                                                     tmp_path):
        # a record of the format before the header: structure, graph text
        # and the three answer lists
        _, snapshot, queries = pipeline
        copy = tmp_path / "queries"
        shutil.copytree(queries, copy)
        (copy / "heldin-queries.txt").write_text("1p\t0:a:0:3,1:t;0-1:p:0:1\t1\t1\t1\n",
                                                 encoding="utf-8")
        code, out, err = run(capsys, "eval", "--checkpoint", str(checkpoint),
                             "--snapshot", str(snapshot), "--queries", str(copy),
                             "--stage", "train")
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith(f"error: {copy / 'heldin-queries.txt'}:1: ")
        assert "regenerate" in err
        assert "overall" not in out
