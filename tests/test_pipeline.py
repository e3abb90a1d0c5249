"""Training protocols, stream timing and inference."""

import dataclasses
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from oseg import detection, kernels, pipeline, rpn, segmentation
from oseg.evaluation import evaluate
from oseg.feature_store import load_dataset, write_dataset
from oseg.geometry import box_array, iou_matrix, mask_iou
from oseg.incremental import UntrainableClassError
from oseg.minibootstrap import BootstrapConfig
from oseg.model_io import classifier_bytes, model_bytes
from oseg.pipeline import (ACQUISITION, BACKLOG, DETECTION_TRAINING,
                           EXTRACTION_1, EXTRACTION_2, ProtocolConfig,
                           TimingLedger, WorldFeaturizer, stream_residual)
from oseg.synthetic import SyntheticWorld

SMALL = dict(num_batches=2, batch_size=300, rpn_centers=150,
             detection_centers=150, segmentation_centers=150, seed=9)


def small_world(**kw):
    defaults = dict(class_names=("a", "b", "c"), noise=0.0, seed=5)
    defaults.update(kw)
    return SyntheticWorld(**defaults)


class RecordingFeaturizer(WorldFeaturizer):
    """Records the image ids whose proposals it featurizes."""

    def __init__(self, world):
        super().__init__(world)
        self.image_ids = []

    def detection(self, image_id, boxes):
        self.image_ids.append(image_id)
        return super().detection(image_id, boxes)


def phase_seconds(ledger, name):
    return sum(p.seconds for p in ledger.phases if p.name == name)


def quiet_train(fn, *args, **kw):
    # tiny pools undershoot the configured batch size; that warning is
    # expected at this scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return fn(*args, **kw)


def starved_new_class():
    """A world, a first sequence of classes 0 and 1, and a second one
    that adds class 2 without a stored proposal that could be its
    positive."""
    world = small_world(class_names=("a", "b", "c"), seed=21,
                        active_classes=(0, 1))
    first = list(world.generate(10))
    world.active_classes = (0, 1, 2)
    second = []
    for record in world.generate(10, start_id=200):
        # drop every stored proposal that could be a class-2 positive
        gts = box_array(g.box for g in record.gt_objects if g.class_id == 2)
        keep = np.ones(len(record.proposal_boxes), dtype=bool)
        if len(gts):
            keep = iou_matrix(record.proposal_boxes, gts).max(axis=1) < 0.6
        second.append(dataclasses.replace(
            record, proposal_boxes=record.proposal_boxes[keep],
            proposal_features=record.proposal_features[keep]))
    assert any(g.class_id == 2 for r in second for g in r.gt_objects)
    return world, first, second


@pytest.fixture(scope="module")
def world():
    return small_world()


@pytest.fixture(scope="module")
def header(world):
    return world.header()


@pytest.fixture(scope="module")
def train_records(world):
    return list(world.generate(16))


@pytest.fixture(scope="module")
def test_records(world):
    return list(world.generate(6, start_id=500))


@pytest.fixture(scope="module")
def featurizer(world):
    return WorldFeaturizer(world)


@pytest.fixture(scope="module")
def config():
    return ProtocolConfig(**SMALL)


@pytest.fixture(scope="module")
def ours(header, train_records, config):
    return quiet_train(pipeline.train_ours, header, train_records, config)


@pytest.fixture(scope="module")
def serial_featurizer(world):
    return RecordingFeaturizer(world)


@pytest.fixture(scope="module")
def serial(header, train_records, config, serial_featurizer):
    return quiet_train(pipeline.train_ours_serial, header, train_records,
                       config.replace(protocol="ours_serial"),
                       serial_featurizer)


class TestProtocolConfig:
    def test_defaults_are_valid(self):
        cfg = ProtocolConfig()
        assert cfg.protocol == "ours"
        assert (cfg.rpn_centers, cfg.detection_centers,
                cfg.segmentation_centers) == (1000, 1000, 500)

    def test_json_round_trip(self, config):
        again = ProtocolConfig.from_json(config.to_json())
        assert again == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            ProtocolConfig.from_json({"protocol": "ours", "bogus": 1})

    def test_head_constant_is_no_config_key(self):
        with pytest.raises(ValueError,
                           match=r"unknown config keys: \['rpn_sigma'\]"):
            ProtocolConfig.from_json({"rpn_sigma": 5.0})

    @pytest.mark.parametrize("kw", [
        dict(protocol="parallel"),
        dict(num_batches=0),
        dict(batch_size=0),
        dict(rpn_centers=0),
        dict(detection_centers=0.0),
        dict(segmentation_centers=-1.0),
        dict(num_batches=-1),
        dict(protocol="Ours"),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            ProtocolConfig(**kw)

    @pytest.mark.parametrize("key,value", [
        ("num_batches", "10"),
        ("batch_size", 2000.0),
        ("rpn_centers", True),
        ("seed", 1.5),
        ("seed", False),
        ("rpn_centers", float("nan")),
        ("detection_centers", float("inf")),
        ("segmentation_centers", "0.3"),
        ("protocol", None),
    ])
    def test_rejects_wrong_types_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            ProtocolConfig.from_json({key: value})


class TestTimingLedger:
    def test_phase_accounting(self):
        ledger = TimingLedger()
        ledger.add(ACQUISITION, 10.0)
        ledger.add(EXTRACTION_1, 3.0)
        ledger.add("rpn-training", 2.0)
        ledger.add(EXTRACTION_2, 4.0)
        assert ledger.extraction_passes == 2
        assert ledger.total_seconds() == 19.0
        assert ledger.post_acquisition_seconds() == 9.0
        assert ledger.training_seconds() == 6.0

    def test_seconds_by_name(self):
        ledger = TimingLedger()
        ledger.add("x", 1.0)
        ledger.add("x", 2.0)
        assert phase_seconds(ledger, "x") == 3.0
        assert phase_seconds(ledger, "y") == 0.0


class TestStreamResidual:
    def test_fast_extraction_is_absorbed(self):
        assert stream_residual(90, 3.0, 14.7) == 0.0
        assert stream_residual(90, 3.0, 3.0) == 0.0

    def test_slow_extraction_leaves_backlog(self):
        assert stream_residual(90, 3.0, 1.0) == 60.0

    def test_validation(self):
        with pytest.raises(ValueError):
            stream_residual(-1, 3.0, 1.0)
        with pytest.raises(ValueError):
            stream_residual(10, 0.0, 1.0)
        with pytest.raises(ValueError):
            stream_residual(10, 3.0, 0.0)

    @pytest.mark.parametrize("fps", [(float("nan"), 1.0), (3.0, float("nan")),
                                     (float("inf"), 1.0), (3.0, float("inf"))])
    def test_non_finite_fps_rejected(self, fps):
        with pytest.raises(ValueError, match="finite"):
            stream_residual(90, *fps)


class TestTrainOurs:
    def test_one_extraction_pass(self, ours):
        assert ours.ledger.extraction_passes == 1
        names = [p.name for p in ours.ledger.phases]
        assert EXTRACTION_1 in names and EXTRACTION_2 not in names

    def test_stored_provenance(self, ours):
        assert ours.model.manifest["protocol"] == "ours"

    def test_all_modules_trained(self, ours):
        assert ours.model.detection.class_ids == (0, 1, 2)
        assert ours.model.segmentation.class_ids == (0, 1, 2)
        assert ours.model.rpn.classifiers

    def test_same_seed_same_bytes(self, header, train_records, config, ours):
        again = quiet_train(pipeline.train_ours, header, train_records,
                            config)
        assert model_bytes(again.model) == model_bytes(ours.model)

    def test_records_read_back_train_the_same_bytes(self, tmp_path, header,
                                                    train_records, config,
                                                    ours):
        path = tmp_path / "train.oseg"
        write_dataset(path, header, train_records)
        _, stored = load_dataset(path)
        again = quiet_train(pipeline.train_ours, header, stored, config)
        assert model_bytes(again.model) == model_bytes(ours.model)

    def test_learns_the_world(self, ours, test_records, featurizer):
        preds = pipeline.infer_dataset(ours.model, test_records, featurizer)
        report = evaluate(preds, test_records)
        assert report.mean_ap("bbox", 0.5) >= 0.95
        assert report.mean_ap("segm", 0.5) >= 0.9

    def test_rejects_adapted_input(self, header, train_records, config,
                                   ours, featurizer):
        adapted = pipeline.adapt_records(ours.model.rpn, train_records[:2],
                                         featurizer)
        with pytest.raises(ValueError, match="stored"):
            pipeline.train_ours(header, adapted, config)

    def test_rejects_empty_dataset(self, header, config):
        with pytest.raises(ValueError, match="records"):
            pipeline.train_ours(header, [], config)

    def test_manifest_records_the_run(self, ours, config):
        manifest = ours.model.manifest
        assert manifest["protocol"] == "ours"
        assert manifest["seed"] == config.seed
        assert manifest["num_records"] == 16
        assert manifest["class_names"] == ["a", "b", "c"]
        assert set(manifest["versions"]) == {"oseg", "numpy", "scipy",
                                             "python"}


class TestTrainOursSerial:
    def test_two_passes_one_blocking(self, serial):
        assert serial.ledger.extraction_passes == 2
        phases = {p.name: p for p in serial.ledger.phases}
        assert phases[EXTRACTION_1].overlappable
        assert not phases[EXTRACTION_2].overlappable

    def test_adapted_provenance(self, serial, serial_featurizer,
                                train_records):
        assert serial.model.manifest["protocol"] == "ours_serial"
        assert serial_featurizer.image_ids == [r.image_id
                                               for r in train_records]

    def test_segmentation_sets_match_ours(self, ours, serial):
        # both protocols feed the mask head from gt boxes, so same seed
        # must mean identical segmentation classifiers
        assert set(ours.model.segmentation.classifiers) == \
            set(serial.model.segmentation.classifiers)
        for n, clf in ours.model.segmentation.classifiers.items():
            other = serial.model.segmentation.classifiers[n]
            assert classifier_bytes(clf) == classifier_bytes(other)

    def test_serial_costs_more_after_acquisition(self, ours, serial):
        assert serial.ledger.post_acquisition_seconds() > \
            ours.ledger.post_acquisition_seconds()

    def test_comparable_accuracy(self, serial, test_records, featurizer):
        preds = pipeline.infer_dataset(serial.model, test_records,
                                       featurizer)
        assert evaluate(preds, test_records).mean_ap("segm", 0.5) >= 0.9

    def test_dispatcher_routes_by_protocol(self, world, header,
                                           train_records, config, ours):
        recording = RecordingFeaturizer(world)
        result = quiet_train(pipeline.train, header, train_records, config,
                             recording)
        assert result.model.manifest["protocol"] == "ours"
        assert recording.image_ids == []
        assert model_bytes(result.model) == model_bytes(ours.model)
        result = quiet_train(pipeline.train, header, train_records,
                             config.replace(protocol="ours_serial"),
                             recording)
        assert result.model.manifest["protocol"] == "ours_serial"
        assert recording.image_ids == [r.image_id for r in train_records]


@pytest.mark.parametrize("protocol, phase", [("ours", EXTRACTION_1),
                                             ("ours_serial",
                                              DETECTION_TRAINING)])
def test_detection_reservoir_update_is_timed(monkeypatch, header,
                                             train_records, config,
                                             featurizer, protocol, phase):
    update = pipeline.detection_incremental_update

    def slow_update(*args, **kw):
        time.sleep(0.2)
        return update(*args, **kw)

    monkeypatch.setattr(pipeline, "detection_incremental_update",
                        slow_update)
    start = time.perf_counter()
    result = quiet_train(pipeline.train, header, train_records,
                         config.replace(protocol=protocol), featurizer)
    untimed = time.perf_counter() - start - result.ledger.total_seconds()
    assert phase_seconds(result.ledger, phase) >= 0.2
    assert result.ledger.post_acquisition_seconds() >= 0.2
    assert untimed < 0.2


class TestAdaptRecords:
    def test_proposals_replaced_and_flagged(self, ours, header,
                                            train_records, featurizer):
        adapted = pipeline.adapt_records(ours.model.rpn, train_records[:3],
                                         featurizer)
        for before, after in zip(train_records, adapted):
            assert after.image_id == before.image_id
            assert after.gt_objects is before.gt_objects
            assert len(after.proposal_boxes)
            assert after.proposal_source == "adapted"
            after.validate(header)

    def test_features_come_from_the_featurizer(self, ours, train_records,
                                               featurizer):
        record = train_records[0]
        adapted = pipeline.adapt_records(ours.model.rpn, [record],
                                         featurizer)[0]
        probe = adapted.proposal_boxes[0]
        want = featurizer.detection(record.image_id, probe)[0]
        assert np.array_equal(adapted.proposal_features[0], want)

    def test_one_featurizer_call_per_record(self, ours, train_records,
                                            featurizer, monkeypatch):
        # a tracer that wraps WorldFeaturizer.detection must see every
        # detection feature adapt_records uses, one call per record
        calls = []
        original = WorldFeaturizer.detection

        def counting(self, image_id, boxes):
            rows = original(self, image_id, boxes)
            calls.append(rows)
            return rows

        monkeypatch.setattr(WorldFeaturizer, "detection", counting)
        adapted = pipeline.adapt_records(ours.model.rpn, train_records[:3],
                                         featurizer)
        assert len(calls) == 3
        for rows, record in zip(calls, adapted):
            assert np.array_equal(rows, record.proposal_features)


class TestIncrementalTrainer:
    def test_single_sequence_matches_batch(self, world, header,
                                           train_records, config, ours):
        # under 'ours' a featurizer is ignored
        recording = RecordingFeaturizer(world)
        trainer = pipeline.IncrementalTrainer(header, config,
                                              featurizer=recording)
        result = quiet_train(trainer.add_sequence, train_records)
        assert result.model.manifest["sequences"] == 1
        assert model_bytes(result.model) == model_bytes(ours.model)
        assert recording.image_ids == []

    def test_serial_sequence_matches_batch(self, world, header,
                                           train_records, config, serial):
        trainer = pipeline.IncrementalTrainer(
            header, config.replace(protocol="ours_serial"),
            featurizer=WorldFeaturizer(world))
        result = quiet_train(trainer.add_sequence, train_records)
        assert model_bytes(result.model) == model_bytes(serial.model)

    def test_serial_trainer_takes_one_sequence(self, world, header,
                                               train_records, config):
        trainer = pipeline.IncrementalTrainer(
            header, config.replace(protocol="ours_serial"),
            featurizer=WorldFeaturizer(world))
        quiet_train(trainer.add_sequence, train_records[:8])
        with pytest.raises(ValueError, match="single sequence"):
            trainer.add_sequence(train_records[8:])
        assert (trainer.num_records, trainer.sequences) == (8, 1)

    def test_first_sequence_without_objects_rejected(self, header,
                                                     train_records, config):
        empty = [dataclasses.replace(r, gt_objects=()) for r in train_records]
        trainer = pipeline.IncrementalTrainer(header, config)
        with pytest.raises(ValueError, match="no ground-truth objects"):
            trainer.add_sequence(empty)
        assert (trainer.class_ids, trainer.sequences) == ((), 0)
        with pytest.raises(ValueError, match="no ground-truth objects"):
            pipeline.train_ours(header, empty, config)

    def test_failed_sequence_leaves_trainer_unchanged(self, config,
                                                      monkeypatch):
        world = small_world(class_names=("a", "b", "c"), seed=21,
                            active_classes=(0, 1))
        first = list(world.generate(10))
        world.active_classes = (0, 1, 2)
        second = list(world.generate(10, start_id=200))
        trainer = pipeline.IncrementalTrainer(world.header(), config)
        quiet_train(trainer.add_sequence, first)
        failures = []

        def fail(model, records, new_class_ids, *args):
            # both reservoir forks hold the sequence and class 2 by now
            failures.append(tuple(new_class_ids))
            raise UntrainableClassError(new_class_ids)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "extend_segmentation", fail)
            for _ in range(2):  # a retry fails the same way
                with pytest.raises(UntrainableClassError):
                    quiet_train(trainer.add_sequence, second)
        assert failures == [(2,), (2,)]
        assert trainer.class_ids == (0, 1)
        assert len(trainer.rpn_reservoir.image_ids) == 10
        assert len(trainer.detection_reservoir.image_ids) == 10
        assert sorted(trainer.detection_reservoir.keys()) == [0, 1]
        assert (trainer.num_records, trainer.sequences) == (10, 1)
        got = quiet_train(trainer.add_sequence, second)

        clean = pipeline.IncrementalTrainer(world.header(), config)
        quiet_train(clean.add_sequence, first)
        want = quiet_train(clean.add_sequence, second)
        assert model_bytes(got.model) == model_bytes(want.model)

    def test_new_class_without_positives_fails_the_sequence(self, config):
        world, first, second = starved_new_class()
        trainer = pipeline.IncrementalTrainer(world.header(), config)
        quiet_train(trainer.add_sequence, first)
        before = (trainer.rpn_reservoir, trainer.detection_reservoir,
                  trainer.segmentation_model)
        with pytest.raises(UntrainableClassError) as info:
            quiet_train(trainer.add_sequence, second)
        assert info.value.keys == (2,)
        after = (trainer.rpn_reservoir, trainer.detection_reservoir,
                 trainer.segmentation_model)
        assert all(x is y for x, y in zip(after, before))
        assert len(trainer.rpn_reservoir.image_ids) == 10
        assert len(trainer.detection_reservoir.image_ids) == 10
        assert sorted(trainer.detection_reservoir.keys()) == [0, 1]
        assert trainer.class_ids == (0, 1)
        assert (trainer.num_records, trainer.sequences) == (10, 1)

    def test_each_head_trains_with_its_own_settings(self, header,
                                                    train_records,
                                                    monkeypatch):
        cfg = ProtocolConfig(num_batches=3, batch_size=77, rpn_centers=11,
                             detection_centers=22, segmentation_centers=33)
        for head, sigma, lam in ((rpn, 1.0, 0.1), (detection, 2.0, 0.2),
                                 (segmentation, 3.0, 0.3)):
            monkeypatch.setattr(head, "SIGMA", sigma)
            monkeypatch.setattr(head, "LAM", lam)
        trainer = pipeline.IncrementalTrainer(header, cfg)
        model = quiet_train(trainer.add_sequence, train_records).model
        assert trainer.rpn_reservoir.config == BootstrapConfig(
            num_batches=3, batch_size=77, num_centers=11, sigma=1.0, lam=0.1)
        assert trainer.detection_reservoir.config == BootstrapConfig(
            num_batches=3, batch_size=77, num_centers=22, sigma=2.0, lam=0.2)
        for head, want in ((model.rpn, (11, 1.0, 0.1)),
                           (model.detection, (22, 2.0, 0.2)),
                           (model.segmentation, (33, 3.0, 0.3))):
            assert head.classifiers
            assert {(len(c.centers), c.sigma, c.lam)
                    for c in head.classifiers.values()} == {want}

    def test_serial_protocol_rejected(self, header, config):
        with pytest.raises(ValueError, match="'ours_serial'"):
            pipeline.IncrementalTrainer(header,
                                        config.replace(protocol="ours_serial"))

    def test_new_classes_detected_automatically(self, config):
        world = small_world(class_names=("a", "b", "c"), seed=21,
                            active_classes=(0, 1))
        header = world.header()
        trainer = pipeline.IncrementalTrainer(header, config)
        first = quiet_train(trainer.add_sequence,
                            list(world.generate(10)))
        assert first.model.detection.class_ids == (0, 1)
        world.active_classes = (0, 1, 2)
        second = quiet_train(trainer.add_sequence,
                             list(world.generate(10, start_id=100)))
        assert second.model.detection.class_ids == (0, 1, 2)
        assert second.model.segmentation.class_ids == (0, 1, 2)

    def test_old_segmentation_classifiers_untouched(self, config):
        world = small_world(class_names=("a", "b", "c"), seed=21,
                            active_classes=(0, 1))
        trainer = pipeline.IncrementalTrainer(world.header(), config)
        first = quiet_train(trainer.add_sequence, list(world.generate(10)))
        before = {n: classifier_bytes(c) for n, c
                  in first.model.segmentation.classifiers.items()}
        world.active_classes = (0, 1, 2)
        second = quiet_train(trainer.add_sequence,
                             list(world.generate(10, start_id=100)))
        for n, payload in before.items():
            clf = second.model.segmentation.classifiers[n]
            assert classifier_bytes(clf) == payload


class TestSimulateStream:
    def test_absorbed_extraction(self, header, train_records, config):
        result = quiet_train(pipeline.simulate_stream, header,
                             train_records, 3.0, 14.7, config)
        assert result.residual_seconds == 0.0
        assert phase_seconds(result.ledger, BACKLOG) == 0.0
        assert result.ledger.extraction_passes == 1

    def test_backlog_counts_toward_training(self, header, train_records,
                                            config):
        # 16 frames: extraction 16 s, stream 16/3 s -> 32/3 s of backlog
        result = quiet_train(pipeline.simulate_stream, header,
                             train_records, 3.0, 1.0, config)
        want = 16.0 - 16.0 / 3.0
        assert result.residual_seconds == pytest.approx(want, abs=1e-12)
        assert result.training_seconds >= result.residual_seconds
        assert result.stream_seconds == pytest.approx(16.0 / 3.0)

    def test_serial_pass_two_always_counts(self, header, train_records,
                                           config):
        result = quiet_train(pipeline.simulate_stream, header,
                             train_records, 3.0, 14.7,
                             config.replace(protocol="ours_serial"))
        assert result.residual_seconds == 0.0
        assert result.ledger.extraction_passes == 2
        pass2 = phase_seconds(result.ledger, EXTRACTION_2)
        assert pass2 == pytest.approx(16.0 / 14.7)
        assert result.training_seconds >= pass2

    def test_model_matches_offline_training(self, header, train_records,
                                            config, ours):
        result = quiet_train(pipeline.simulate_stream, header,
                             train_records, 3.0, 14.7, config)
        assert model_bytes(result.model) == model_bytes(ours.model)

    def test_validation(self, header, train_records, config):
        with pytest.raises(ValueError, match="FPS"):
            pipeline.simulate_stream(header, train_records, 0.0, 1.0,
                                     config)


class TestInfer:
    def test_single_object_images(self):
        # single isolated object per image; the finer mask lattice keeps
        # resize loss under the 0.95 floor
        world = small_world(seed=33, min_objects=1, max_objects=1,
                            mask_grid=28)
        config = ProtocolConfig(**SMALL)
        result = quiet_train(pipeline.train_ours, world.header(),
                             list(world.generate(16)), config)
        featurizer = WorldFeaturizer(world)
        for record in world.generate(6, start_id=700):
            preds = pipeline.infer(result.model, record, featurizer)
            assert len(preds) == 1
            gt = record.gt_objects[0]
            assert preds[0].class_id == gt.class_id
            assert mask_iou(preds[0].mask, gt.mask) >= 0.95

    def test_empty_image_yields_nothing(self, world, ours, featurizer):
        world.set_layout(4000, [])
        record = world.render_record(4000)
        assert not record.gt_objects
        preds = pipeline.infer(ours.model, record, featurizer)
        assert preds == []

    def test_deterministic(self, ours, test_records, featurizer):
        a = pipeline.infer(ours.model, test_records[0], featurizer)
        b = pipeline.infer(ours.model, test_records[0], featurizer)
        assert [(p.class_id, p.score, tuple(p.box.as_array())) for p in a] \
            == [(p.class_id, p.score, tuple(p.box.as_array())) for p in b]

    def test_stored_proposals_path(self, ours, test_records, featurizer):
        preds = pipeline.infer(ours.model, test_records[0], featurizer,
                               use_stored_proposals=True)
        report = evaluate(preds, test_records[:1])
        assert report.mean_ap("segm", 0.5) == 1.0

    def test_box_only_needs_no_featurizer(self, ours, test_records):
        preds = pipeline.infer(ours.model, test_records[0],
                               use_stored_proposals=True, with_masks=False)
        assert preds and all(p.mask is None for p in preds)

    def test_featurizer_required_otherwise(self, ours, test_records):
        with pytest.raises(ValueError, match="featurizer"):
            pipeline.infer(ours.model, test_records[0])
        with pytest.raises(ValueError, match="featurizer"):
            pipeline.infer(ours.model, test_records[0],
                           use_stored_proposals=True)

    def test_featurizer_required_whatever_the_record_holds(self, ours,
                                                           test_records):
        record = test_records[0]
        empty = dataclasses.replace(
            record, proposal_boxes=record.proposal_boxes[:0],
            proposal_features=record.proposal_features[:0])
        with pytest.raises(ValueError, match="featurizer"):
            pipeline.infer(ours.model, empty, use_stored_proposals=True)


class TestFeaturizer:
    def test_header_rebuild_matches_live_world(self, world, header,
                                               test_records, featurizer):
        rebuilt = pipeline.featurizer_for(header)
        record = test_records[0]
        box = record.gt_objects[0].box
        assert np.array_equal(rebuilt.detection(record.image_id, box.as_array()),
                              featurizer.detection(record.image_id, box.as_array()))
        assert np.array_equal(rebuilt.mask(record.image_id, box),
                              featurizer.mask(record.image_id, box))

    def test_matches_stored_gt_features(self, test_records, featurizer):
        record = test_records[0]
        assert record.gt_objects
        for g in record.gt_objects:
            # each ground-truth box is stored once among the proposals
            (row,) = np.flatnonzero(
                (record.proposal_boxes == g.box.as_array()).all(axis=1))
            want = featurizer.detection(record.image_id, g.box.as_array())[0]
            assert np.allclose(record.proposal_features[row], want)


# trains a 30-image world with 2 x 500 mining batches and prints the
# sha256 of the model bytes
TRAIN_AND_HASH = """
import hashlib, warnings
from oseg import model_io, pipeline
from oseg.synthetic import SyntheticWorld
warnings.simplefilter("ignore", UserWarning)
world = SyntheticWorld(class_names=("a", "b", "c"), noise=1.0, seed=13)
config = pipeline.ProtocolConfig(num_batches=2, batch_size=500,
                                 rpn_centers=300, detection_centers=300,
                                 segmentation_centers=200, seed=4)
result = pipeline.train_ours(world.header(), list(world.generate(30)),
                             config)
print(hashlib.sha256(model_io.model_bytes(result.model)).hexdigest())
"""


def pool_counts(pools):
    return [get() for get, _ in pools]


@pytest.fixture
def pools():
    """The bundled OpenBLAS pools, each at two threads for the test."""
    pools = kernels._openblas_pools()
    previous = pool_counts(pools)
    for _, set_threads in pools:
        set_threads(2)
    yield pools
    for (_, set_threads), count in zip(pools, previous):
        set_threads(count)


@pytest.mark.skipif(not kernels._openblas_pools(),
                    reason="no bundled OpenBLAS library is loaded")
class TestOneBlasThread:
    def record_counts(self, monkeypatch, pools):
        """Counts of ``pools`` read whenever the proposal module trains."""
        seen = []
        original = pipeline.train_rpn_from_reservoir

        def train(*args):
            seen.append(pool_counts(pools))
            return original(*args)

        monkeypatch.setattr(pipeline, "train_rpn_from_reservoir", train)
        return seen

    def test_model_bytes_do_not_depend_on_the_thread_count(self):
        root = Path(__file__).resolve().parents[1]
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(root / "src"),
                       OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run([sys.executable, "-c", TRAIN_AND_HASH],
                                  env=env, capture_output=True, text=True,
                                  timeout=300)
            assert done.returncode == 0, done.stderr
            digests.add(done.stdout.split()[-1])
        assert len(digests) == 1

    def test_sequence_trains_at_one_thread_and_restores(
            self, pools, monkeypatch, header, train_records, config):
        seen = self.record_counts(monkeypatch, pools)
        trainer = pipeline.IncrementalTrainer(header, config)
        quiet_train(trainer.add_sequence, train_records)
        assert seen == [[1] * len(pools)]
        assert pool_counts(pools) == [2] * len(pools)

    def test_failed_sequence_restores(self, pools, monkeypatch, config):
        world, first, second = starved_new_class()
        trainer = pipeline.IncrementalTrainer(world.header(), config)
        quiet_train(trainer.add_sequence, first)
        before = (trainer.rpn_reservoir, trainer.detection_reservoir,
                  trainer.segmentation_model, trainer.class_ids)
        seen = self.record_counts(monkeypatch, pools)
        with pytest.raises(UntrainableClassError):
            quiet_train(trainer.add_sequence, second)
        assert seen == [[1] * len(pools)]
        assert pool_counts(pools) == [2] * len(pools)
        after = (trainer.rpn_reservoir, trainer.detection_reservoir,
                 trainer.segmentation_model, trainer.class_ids)
        assert all(x is y for x, y in zip(after, before))
        assert (trainer.num_records, trainer.sequences) == (10, 1)

    def test_no_op_without_a_library(self, pools, monkeypatch, header,
                                     train_records, config):
        want = model_bytes(quiet_train(pipeline.train_ours, header,
                                       train_records, config).model)
        # the real pools train at one thread, set from outside; inside,
        # the helper finds no library and leaves them alone
        with kernels.one_blas_thread():
            monkeypatch.setattr(kernels, "_OPENBLAS", (
                ("numpy", "no_such_{}_num_threads"),
                ("no_such_package", "scipy_openblas_{}_num_threads")))
            assert kernels._openblas_pools() == []
            got = model_bytes(quiet_train(pipeline.train_ours, header,
                                          train_records, config).model)
        assert got == want
        with kernels.one_blas_thread():
            assert pool_counts(pools) == [2] * len(pools)
