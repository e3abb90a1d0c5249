"""Model container round-trips, byte stability, and corruption handling."""

import os
import struct

import numpy as np
import pytest

from oseg import binio, pipeline
from oseg.binio import FormatError
from oseg.model_io import (MAGIC, VERSION, PipelineModel, classifier_bytes,
                           load_pipeline, model_bytes, save_pipeline)
from oseg.synthetic import SyntheticWorld


@pytest.fixture(scope="module")
def trained():
    world = SyntheticWorld(class_names=("a", "b"), noise=0.0, seed=5)
    records = list(world.generate(12))
    config = pipeline.ProtocolConfig(
        num_batches=2, batch_size=200, rpn_centers=100,
        detection_centers=100, segmentation_centers=100, seed=1)
    with pytest.warns(UserWarning):
        result = pipeline.train_ours(world.header(), records, config)
    return result.model


class TestRoundTrip:
    def test_load_reproduces_bytes(self, trained, tmp_path):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        loaded = load_pipeline(path)
        assert model_bytes(loaded) == model_bytes(trained)

    def test_fields_survive(self, trained, tmp_path):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        loaded = load_pipeline(path)
        assert loaded.class_names == trained.class_names
        assert loaded.manifest == trained.manifest
        assert loaded.rpn.grid.anchor_shapes == trained.rpn.grid.anchor_shapes
        assert set(loaded.detection.classifiers) == \
            set(trained.detection.classifiers)
        assert set(loaded.rpn.classifiers) == set(trained.rpn.classifiers)
        assert set(loaded.segmentation.classifiers) == \
            set(trained.segmentation.classifiers)

    def test_tensor_payloads_survive(self, trained, tmp_path):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        loaded = load_pipeline(path)
        for n, clf in trained.segmentation.classifiers.items():
            other = loaded.segmentation.classifiers[n]
            assert np.array_equal(clf.centers, other.centers)
            assert np.array_equal(clf.weights, other.weights)
            assert clf.sigma == other.sigma and clf.lam == other.lam
        for n, reg in trained.detection.regressors.items():
            other = loaded.detection.regressors[n]
            assert np.array_equal(reg.weights, other.weights)
            assert np.array_equal(reg.bias, other.bias)

    def test_predictions_survive(self, trained, tmp_path):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        loaded = load_pipeline(path)
        probe = np.linspace(0.0, 1.0, 64)[None, :]
        for n in trained.detection.class_ids:
            want = trained.detection.classifiers[n].decision_values(probe)
            got = loaded.detection.classifiers[n].decision_values(probe)
            assert np.array_equal(want, got)


class TestByteStability:
    def test_serialization_is_deterministic(self, trained):
        assert model_bytes(trained) == model_bytes(trained)

    def test_save_matches_model_bytes(self, trained, tmp_path):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        assert path.read_bytes() == model_bytes(trained)

    def test_no_leftover_temp_files(self, trained, tmp_path):
        save_pipeline(tmp_path / "model.oseg", trained)
        assert os.listdir(tmp_path) == ["model.oseg"]

    def test_classifier_bytes_track_weights(self, trained):
        clf = trained.segmentation.classifiers[0]
        import dataclasses
        same = dataclasses.replace(clf)
        changed = dataclasses.replace(clf, weights=clf.weights + 1.0)
        assert classifier_bytes(clf) == classifier_bytes(same)
        assert classifier_bytes(clf) != classifier_bytes(changed)


class TestValidation:
    def test_class_ids_must_fit_name_table(self, trained):
        with pytest.raises(ValueError, match="class"):
            PipelineModel(class_names=("only",), rpn=trained.rpn,
                          detection=trained.detection,
                          segmentation=trained.segmentation)

    def test_needs_a_class_name(self, trained):
        with pytest.raises(ValueError, match="class"):
            PipelineModel(class_names=(), rpn=trained.rpn,
                          detection=trained.detection,
                          segmentation=trained.segmentation)


class TestCorruption:
    def test_bad_magic(self, trained, tmp_path):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_pipeline(path)

    def test_unsupported_version(self, trained, tmp_path):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        for version in (1, 99):  # 1 carried per-head inference settings
            data = bytearray(path.read_bytes())
            data[4:8] = struct.pack("<I", version)
            path.write_bytes(bytes(data))
            with pytest.raises(FormatError,
                               match=f"unsupported format version {version}"):
                load_pipeline(path)

    def test_truncated_tensor_block(self, trained, tmp_path):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(FormatError):
            load_pipeline(path)

    def test_wrong_magic_family(self, trained, tmp_path):
        # a dataset file is not a model file
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        data = bytearray(path.read_bytes())
        assert data[:4] == MAGIC
        data[:4] = b"OSEG"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_pipeline(path)

    def test_huge_header_length(self, trained, tmp_path):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        data = bytearray(path.read_bytes())
        data[len(MAGIC) + 11] ^= 0x01  # top byte of the u64 length
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="truncated header"):
            load_pipeline(path)

    def test_flipped_header_byte(self, trained, tmp_path):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        raw = path.read_bytes()
        header_end = len(MAGIC) + 12 + int.from_bytes(raw[8:16], "little")
        rejected = 0
        for i in range(header_end):
            for bit in (0x01, 0x20):
                data = bytearray(raw)
                data[i] ^= bit
                path.write_bytes(bytes(data))
                try:  # any other exception fails the test
                    load_pipeline(path)
                except FormatError:
                    rejected += 1
        assert rejected > header_end  # most flips break the file

    @pytest.mark.parametrize("name, class_id, value", [
        ("weights", 0, np.nan), ("sigma", 1, np.inf), ("sigma", 1, -1.0),
        ("lam", 0, np.nan), ("lam", 0, -1e-5), ("sigma", 0, "5.0")])
    def test_corrupt_values_rejected(self, trained, tmp_path, name, class_id,
                                     value):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        with open(path, "rb") as fh:
            _, header = binio.read_preamble(fh, MAGIC, (VERSION,))
            blocks = list(iter(lambda: binio.read_block(fh), None))
        tree = dict(header["detection"]["classifiers"])[class_id]
        if name == "weights":
            index = tree[name]["block"]
            weights = np.frombuffer(blocks[index], dtype="<f8").copy()
            weights[0] = value
            blocks[index] = weights.tobytes()
        else:
            tree[name] = value
        offsets = []
        with open(path, "wb") as fh:
            binio.write_preamble(fh, MAGIC, VERSION, header)
            for block in blocks:
                offsets.append(fh.tell())
                binio.write_block(fh, block)
        with pytest.raises(FormatError) as caught:
            load_pipeline(path)
        if name == "weights":
            assert f"tensor block {index} " in str(caught.value)
            assert caught.value.offset == offsets[index]
        else:
            assert name in str(caught.value)

    def test_missing_header_keys(self, trained, tmp_path):
        path = tmp_path / "model.oseg"
        with open(path, "wb") as fh:
            binio.write_preamble(fh, MAGIC, VERSION, {"class_names": ["a"]})
        with pytest.raises(FormatError, match="header"):
            load_pipeline(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["grid"].update(image_size=[320.5, 320]), "image_size"),
        (lambda h: h["detection"]["classifiers"][0].__setitem__(0, 0.4),
         "got 0.4"),
    ], ids=["grid-image-size", "fractional-class-key"])
    def test_value_it_would_cast_is_refused(self, trained, tmp_path, edit,
                                            message):
        path = tmp_path / "model.oseg"
        save_pipeline(path, trained)
        with open(path, "rb") as fh:
            _, header = binio.read_preamble(fh, MAGIC, (VERSION,))
            blocks = list(iter(lambda: binio.read_block(fh), None))
        edit(header)
        with open(path, "wb") as fh:
            binio.write_preamble(fh, MAGIC, VERSION, header)
            for block in blocks:
                binio.write_block(fh, block)
        with pytest.raises(FormatError, match=message) as caught:
            load_pipeline(path)
        assert caught.value.offset == len(MAGIC) + 12
