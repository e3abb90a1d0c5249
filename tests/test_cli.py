"""End-to-end checks of the command-line front end (in-process)."""

import json
import warnings

import pytest

from oseg import cli
from oseg.binio import canonical_json


def run(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return cli.main(list(argv))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Shared artifacts: a train/test dataset pair and one trained model."""
    root = tmp_path_factory.mktemp("cli")
    train = root / "train.oseg"
    test = root / "test.oseg"
    model = root / "model.oseg"
    base = ["--classes", "2", "--noise", "0.0", "--seed", "3"]
    assert run("gen-synthetic", "--images", "14", *base,
               "--out", str(train)) == 0
    assert run("gen-synthetic", "--images", "6", *base,
               "--start-id", "1000", "--out", str(test)) == 0
    assert run("train", "--dataset", str(train), "--out", str(model),
               "--num-batches", "2", "--batch-size", "300") == 0
    return root


class TestGenSynthetic:
    def test_writes_dataset_and_manifest(self, work):
        data = work / "train.oseg"
        manifest = json.loads((work / "train.oseg.manifest.json").read_text())
        assert data.stat().st_size > 0
        assert manifest["images"] == 14
        assert manifest["classes"] == 2
        assert manifest["dataset_sha256"]
        assert manifest["start_id"] == 0

    def test_rerun_is_byte_identical(self, work, tmp_path):
        again = tmp_path / "again.oseg"
        assert run("gen-synthetic", "--images", "14", "--classes", "2",
                   "--noise", "0.0", "--seed", "3", "--out", str(again)) == 0
        assert again.read_bytes() == (work / "train.oseg").read_bytes()

    def test_start_id_separates_splits(self, work):
        # same world, disjoint image ids: different records
        assert (work / "test.oseg").read_bytes() != \
            (work / "train.oseg").read_bytes()

    def test_no_images_fails_before_writing(self, tmp_path, capsys):
        out = tmp_path / "empty.oseg"
        assert run("gen-synthetic", "--images", "0", "--classes", "2",
                   "--out", str(out)) == 2
        assert "num_images" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_model_and_manifest(self, work):
        model = work / "model.oseg"
        manifest = json.loads((work / "model.oseg.manifest.json").read_text())
        assert model.stat().st_size > 0
        assert manifest["protocol"] == "ours"
        assert manifest["num_records"] == 14
        assert manifest["dataset_sha256"]

    def test_rerun_is_byte_identical(self, work, tmp_path):
        again = tmp_path / "model.oseg"
        assert run("train", "--dataset", str(work / "train.oseg"),
                   "--out", str(again),
                   "--num-batches", "2", "--batch-size", "300") == 0
        assert again.read_bytes() == (work / "model.oseg").read_bytes()
        assert (tmp_path / "model.oseg.manifest.json").read_bytes() == \
            (work / "model.oseg.manifest.json").read_bytes()

    def test_timing_csv(self, work, tmp_path):
        timing = tmp_path / "timing.csv"
        assert run("train", "--dataset", str(work / "train.oseg"),
                   "--out", str(tmp_path / "m.oseg"),
                   "--num-batches", "2", "--batch-size", "300",
                   "--timing", str(timing)) == 0
        lines = timing.read_text().splitlines()
        assert lines[0] == "phase,seconds,overlappable"
        phases = {row.split(",")[0] for row in lines[1:]}
        assert "rpn-training" in phases
        assert "extraction-pass-1" in phases

    def test_serial_protocol(self, work, tmp_path, capsys):
        out = tmp_path / "serial.oseg"
        assert run("train", "--dataset", str(work / "train.oseg"),
                   "--out", str(out), "--protocol", "ours-serial",
                   "--num-batches", "2", "--batch-size", "300") == 0
        assert "extraction passes: 2" in capsys.readouterr().out
        manifest = json.loads(
            (tmp_path / "serial.oseg.manifest.json").read_text())
        assert manifest["protocol"] == "ours_serial"

    def test_config_file_with_overrides(self, work, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"num_batches": 2, "batch_size": 300,
                                   "seed": 0}))
        out = tmp_path / "m.oseg"
        assert run("train", "--dataset", str(work / "train.oseg"),
                   "--out", str(out), "--config", str(cfg)) == 0
        assert out.read_bytes() == (work / "model.oseg").read_bytes()

    def test_unknown_config_key_fails(self, work, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"numb_batches": 2}))
        code = run("train", "--dataset", str(work / "train.oseg"),
                   "--out", str(tmp_path / "m.oseg"), "--config", str(cfg))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_head_constant_in_config_fails(self, work, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"pixel_fraction": 0.3}))
        out = tmp_path / "m.oseg"
        code = run("train", "--dataset", str(work / "train.oseg"),
                   "--out", str(out), "--config", str(cfg))
        assert code == 2
        assert ("error: unknown config keys: ['pixel_fraction']"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("tree", [{"num_batches": "10"},
                                      {"detection_centers": float("nan")}])
    def test_malformed_config_value_fails(self, work, tmp_path, capsys, tree):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(tree))
        out = tmp_path / "m.oseg"
        code = run("train", "--dataset", str(work / "train.oseg"),
                   "--out", str(out), "--config", str(cfg))
        assert code == 2
        assert f"error: {next(iter(tree))}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["5", "null", "[1]", '"x"'])
    def test_config_that_is_not_an_object_fails(self, work, tmp_path, capsys,
                                                text):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        out = tmp_path / "m.oseg"
        code = run("train", "--dataset", str(work / "train.oseg"),
                   "--out", str(out), "--config", str(cfg))
        assert code == 2
        assert "error: a config must be a JSON object" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_fails(self, tmp_path, capsys):
        code = run("train", "--dataset", str(tmp_path / "nope.oseg"),
                   "--out", str(tmp_path / "m.oseg"))
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_report_values_and_layout(self, work, tmp_path, capsys):
        report = tmp_path / "report.csv"
        assert run("eval", "--model", str(work / "model.oseg"),
                   "--dataset", str(work / "test.oseg"),
                   "--out", str(report)) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == \
            "class,ap50_bbox_pct,ap70_bbox_pct,ap50_segm_pct,ap70_segm_pct"
        # two classes plus the mean row
        assert len(lines) == 4
        assert lines[-1].startswith("mean,")
        # noise-free world: the detector should be essentially perfect
        mean = [float(v) for v in lines[-1].split(",")[1:]]
        assert mean[0] >= 95.0
        assert "mAP50 bbox" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, work, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            assert run("eval", "--model", str(work / "model.oseg"),
                       "--dataset", str(work / "test.oseg"),
                       "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv.manifest.json").read_bytes() == \
            (tmp_path / "b.csv.manifest.json").read_bytes()

    def test_bbox_only_stored_proposals(self, work, tmp_path):
        report = tmp_path / "bbox.csv"
        assert run("eval", "--model", str(work / "model.oseg"),
                   "--dataset", str(work / "test.oseg"),
                   "--out", str(report),
                   "--bbox-only", "--stored-proposals") == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "class,ap50_bbox_pct,ap70_bbox_pct"
        assert all(len(row.split(",")) == 3 for row in lines[1:])

    def test_wrong_model_path_fails(self, work, tmp_path, capsys):
        code = run("eval", "--model", str(work / "train.oseg"),
                   "--dataset", str(work / "test.oseg"),
                   "--out", str(tmp_path / "r.csv"))
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("generator, message", [
        ("drop-noise", "'noise'"),
        ([1, 2], "generator must be an object"),
    ], ids=["missing-key", "not-an-object"])
    def test_malformed_generator_fails(self, work, tmp_path, capsys,
                                       generator, message):
        raw = (work / "test.oseg").read_bytes()
        length = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:16 + length])
        if generator == "drop-noise":
            del header["generator"]["noise"]
        else:
            header["generator"] = generator
        blob = canonical_json(header)
        dataset = tmp_path / "bad.oseg"
        dataset.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                            + raw[16 + length:])
        code = run("eval", "--model", str(work / "model.oseg"),
                   "--dataset", str(dataset), "--out", str(tmp_path / "r.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


class TestTrainIncremental:
    def test_single_file_split_into_sequences(self, work, tmp_path, capsys):
        out = tmp_path / "inc.oseg"
        assert run("train-incremental",
                   "--datasets", str(work / "train.oseg"),
                   "--sequences", "2", "--out", str(out),
                   "--num-batches", "2", "--batch-size", "300") == 0
        stdout = capsys.readouterr().out
        assert "sequence 0: 7 images" in stdout
        assert "sequence 1: 7 images" in stdout
        manifest = json.loads((tmp_path / "inc.oseg.manifest.json")
                              .read_text())
        assert manifest["sequences"] == 2
        assert manifest["num_records"] == 14

    def test_uneven_split_trains_every_sequence(self, work, tmp_path, capsys):
        # 14 images in 6 sequences: a ceil(14/6) = 3 step would make 5
        assert run("train-incremental",
                   "--datasets", str(work / "train.oseg"),
                   "--sequences", "6", "--out", str(tmp_path / "inc.oseg"),
                   "--num-batches", "2", "--batch-size", "300") == 0
        stdout = capsys.readouterr().out
        sizes = [int(line.split()[2]) for line in stdout.splitlines()
                 if line.startswith("sequence ")]
        assert sizes == [2, 2, 3, 2, 2, 3]

    @pytest.mark.parametrize("count, datasets, message", [
        ("3", 1, "--sequences 3 exceeds the 2 records"),
        ("0", 1, "--sequences 0: need at least one"),
        ("-2", 1, "--sequences -2: need at least one"),
        ("2", 2, "--sequences 2 splits a single dataset; got 2 datasets"),
    ], ids=["above-records", "zero", "negative", "several-datasets"])
    def test_bad_sequence_count_fails(self, work, tmp_path, capsys, count,
                                      datasets, message):
        tiny = tmp_path / "tiny.oseg"
        assert run("gen-synthetic", "--images", "2", "--classes", "2",
                   "--seed", "3", "--out", str(tiny)) == 0
        code = run("train-incremental", "--datasets", *[str(tiny)] * datasets,
                   "--sequences", count, "--out", str(tmp_path / "m.oseg"))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.oseg").exists()

    def test_serial_protocol_fails(self, work, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"protocol": "ours_serial"}))
        code = run("train-incremental",
                   "--datasets", str(work / "train.oseg"),
                   "--config", str(config), "--out", str(tmp_path / "m.oseg"))
        assert code == 2
        assert "'ours_serial'" in capsys.readouterr().err

    def test_incompatible_datasets_fail(self, work, tmp_path, capsys):
        other = tmp_path / "other.oseg"
        assert run("gen-synthetic", "--images", "4", "--classes", "3",
                   "--seed", "3", "--out", str(other)) == 0
        code = run("train-incremental",
                   "--datasets", str(work / "train.oseg"), str(other),
                   "--out", str(tmp_path / "m.oseg"),
                   "--num-batches", "2", "--batch-size", "300")
        assert code == 2
        assert "incompatible" in capsys.readouterr().err


class TestSimulateStream:
    def test_residual_arithmetic(self, work, capsys):
        assert run("simulate-stream", "--dataset", str(work / "train.oseg"),
                   "--stream-fps", "3", "--extraction-fps", "1",
                   "--num-batches", "2", "--batch-size", "300") == 0
        out = capsys.readouterr().out
        # 14 frames: 14/1 - 14/3 seconds of backlog
        assert "residual extraction after last frame: 9.33 s" in out
        assert "14 frames" in out

    def test_fast_extraction_no_residual(self, work, tmp_path, capsys):
        timing = tmp_path / "stream.csv"
        assert run("simulate-stream", "--dataset", str(work / "train.oseg"),
                   "--stream-fps", "3", "--extraction-fps", "14.7",
                   "--num-batches", "2", "--batch-size", "300",
                   "--out", str(timing)) == 0
        assert "residual extraction after last frame: 0.00 s" in \
            capsys.readouterr().out
        assert timing.read_text().startswith("phase,seconds,overlappable")
        manifest = json.loads((tmp_path / "stream.csv.manifest.json")
                              .read_text())
        assert manifest["residual_seconds"] == 0.0


    def test_nan_fps_fails(self, work, capsys):
        code = run("simulate-stream", "--dataset", str(work / "train.oseg"),
                   "--stream-fps", "nan", "--extraction-fps", "1")
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err


class TestVerify:
    def test_passes_at_reduced_trials(self, capsys):
        # 8000 trials keeps the chi-square stable at this seed and the
        # biased control still fails decisively
        assert run("verify", "--trials", "8000", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "PASS sampling equivalence" in out
        assert "PASS solver equivalence" in out
        assert "all checks passed" in out


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_canonical_json_helper_round_trips(self, tmp_path):
        path = tmp_path / "x.json"
        cli._write_json(path, {"b": 1, "a": [1, 2]})
        raw = path.read_bytes()
        assert raw == canonical_json({"a": [1, 2], "b": 1}) + b"\n"
