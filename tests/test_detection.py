"""Per-class detector tests: labeling, training paths, inference behavior."""

import dataclasses

import numpy as np
import pytest

from oseg import detection
from oseg.detection import (
    detect,
    detection_incremental_update,
    detection_labeler,
    train_detection_from_reservoir,
)
from oseg.geometry import Box, apply_targets, iou, nms
from oseg.incremental import DetectionReservoir, UntrainableClassError
from oseg.minibootstrap import BootstrapConfig
from oseg.synthetic import SyntheticWorld


class FakeGt:
    def __init__(self, class_id, box):
        self.class_id = class_id
        self.box = box


class FakeRecord:
    """Proposal i has the feature row ``[i, 0, 0, 0]``."""

    def __init__(self, image_id, gts, boxes):
        self.image_id = image_id
        self.image_size = (320, 320)
        self.gt_objects = [FakeGt(c, Box(*b)) for c, b in gts]
        self.proposal_boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
        self.proposal_features = np.zeros((len(boxes), 4))
        self.proposal_features[:, 0] = np.arange(len(boxes))


def with_proposals(record, index):
    """The record with only the proposals selected by ``index``."""
    return dataclasses.replace(
        record,
        proposal_boxes=record.proposal_boxes[index],
        proposal_features=record.proposal_features[index],
    )


def tags_of(rows):
    rows = np.asarray(rows)
    return set(int(v) for v in np.atleast_2d(rows)[:, 0]) if rows.size else set()


SMALL_POOL = BootstrapConfig(num_batches=4, batch_size=300, num_centers=200,
                             sigma=0.5, lam=1e-4)
LARGE_POOL = BootstrapConfig(num_batches=10, batch_size=2000, num_centers=1000,
                             sigma=5.0, lam=1e-5)


def fill_reservoir(records, class_ids, config=LARGE_POOL, seed=0):
    """Ingest one sequence in which every class is new."""
    reservoir = DetectionReservoir(config=config, seed=seed)
    detection_incremental_update(reservoir, records, class_ids)
    return reservoir


def detect_reference(model, record) -> list:
    """``detect`` as it was when it built one record per surviving
    region and sorted them in Python: ``(class_id, score, box,
    proposal_index)`` tuples, best first."""
    features, boxes = record.proposal_features, record.proposal_boxes
    detections = []
    if features.shape[0] == 0:
        return detections
    for n in sorted(model.classifiers):
        scores = model.classifiers[n].decision_values(features)
        keep = np.nonzero(scores >= detection.SCORE_THRESHOLD)[0]
        if keep.size == 0:
            continue
        offsets = model.regressors[n].predict(features[keep])
        refined, ok = apply_targets(boxes[keep], offsets, record.image_size)
        keep, refined = keep[ok], refined[ok]
        if keep.size == 0:
            continue
        for i in nms(refined, scores[keep], detection.NMS_IOU):
            detections.append((n, float(scores[keep[i]]),
                               Box.from_array(refined[i]), int(keep[i])))
    detections.sort(key=lambda d: (-d[1], d[0], d[3]))
    return detections[:detection.MAX_DETECTIONS]


def as_bytes(class_id, score, box) -> tuple:
    return (class_id, np.float64(score).tobytes(),
            np.array(dataclasses.astuple(box)).tobytes())


def assert_matches_reference(model, record):
    got = detect(model, record)
    want = detect_reference(model, record)
    assert all(p.image_id == record.image_id and p.mask is None for p in got)
    assert ([as_bytes(p.class_id, p.score, p.box) for p in got]
            == [as_bytes(*d[:3]) for d in want])


def train_detector(records, class_ids, seed):
    """The training core's detector path on one sequence."""
    reservoir = fill_reservoir(records, class_ids, SMALL_POOL, seed)
    return train_detection_from_reservoir(reservoir, seed)


class TestLabeling:
    gt = (40.0, 40.0, 100.0, 100.0)  # 60x60, class 0

    def record(self):
        boxes = [
            self.gt,                              # IoU 1
            (60.0, 40.0, 120.0, 100.0),           # shift w/3 = 20: IoU exactly 0.5
            (200.0, 200.0, 264.0, 264.0),         # disjoint
            (40.0, 40.0, 100.0, 94.0),            # 60x54 slice: IoU 0.9
        ]
        return FakeRecord(0, [(0, self.gt)], boxes)

    def test_threshold_sides(self):
        labeled = detection_labeler([0])(self.record())
        pos, neg, _, _ = labeled[0]
        assert tags_of(pos) == {0, 3}
        assert tags_of(neg) == {2}          # the 0.5-IoU box is ignored

    def test_exact_half_iou_construction(self):
        record = self.record()
        assert iou(record.proposal_boxes[1], record.gt_objects[0].box) == 0.5

    def test_absent_class_reports_empty(self):
        labeled = detection_labeler([0, 1])(self.record())
        pos, neg, _, _ = labeled[1]
        assert np.asarray(pos).size == 0
        assert np.asarray(neg).size == 0    # buffers stand in downstream

    def test_multi_class_sides_are_independent(self):
        gts = [(0, self.gt), (1, (200.0, 200.0, 264.0, 264.0))]
        boxes = [self.gt, (200.0, 200.0, 264.0, 264.0), (0.0, 150.0, 30.0, 180.0)]
        labeled = detection_labeler([0, 1])(FakeRecord(0, gts, boxes))
        assert tags_of(labeled[0][0]) == {0}
        assert tags_of(labeled[0][1]) == {1, 2}
        assert tags_of(labeled[1][0]) == {1}
        assert tags_of(labeled[1][1]) == {0, 2}

    def test_regression_targets_decode_onto_gt(self):
        from oseg.geometry import apply_targets

        record = self.record()
        _, _, feats, targets = detection_labeler([0])(record)[0]
        assert tags_of(feats) == {0, 3}
        boxes = record.proposal_boxes[[0, 3]]
        decoded, ok = apply_targets(boxes, np.asarray(targets), record.image_size)
        assert ok.all()
        for row in decoded:
            assert iou(Box.from_array(row), record.gt_objects[0].box) > 0.999

    def test_no_proposals_reports_empty(self):
        record = FakeRecord(0, [(0, self.gt)], [])
        labeled = detection_labeler([0])(record)
        assert np.asarray(labeled[0][0]).size == 0
        assert np.asarray(labeled[0][1]).size == 0


class TestTrainingSets:
    def test_absent_class_takes_all_proposals_as_negatives(self):
        gt = (40.0, 40.0, 104.0, 104.0)
        with_cls = FakeRecord(0, [(0, gt)], [gt, (200.0, 200.0, 230.0, 230.0)])
        without = FakeRecord(1, [], [(10.0, 10.0, 50.0, 50.0), (60.0, 60.0, 90.0, 90.0)])
        reservoir = fill_reservoir([with_cls, without], [0])
        lists = reservoir.negative_lists(0)
        assert reservoir.positives[0].shape[0] == 1
        # the empty image's buffer stands in: both of its proposals
        assert tags_of(lists[1]) == {0, 1}
        assert tags_of(np.concatenate(lists)) == {0, 1}
        assert reservoir.reg_features[0].shape[0] == 1

    def test_starved_class_raises_with_keys(self):
        record = FakeRecord(0, [(0, (40.0, 40.0, 104.0, 104.0))], [(0.0, 0.0, 10.0, 10.0)])
        reservoir = fill_reservoir([record], [0, 1])
        with pytest.raises(UntrainableClassError) as info:
            train_detection_from_reservoir(reservoir, seed=0)
        assert set(info.value.keys) == {0, 1}


def world_and_records(seed, class_names=("a", "b", "c"), n=25, **kw):
    world = SyntheticWorld(class_names=list(class_names), noise=0.0, seed=seed, **kw)
    return world, list(world.generate(n))


class TestTraining:
    def test_classifiers_separate_their_class(self):
        world, records = world_and_records(1, max_objects=2)
        model = train_detector(records, [0, 1, 2], seed=0)
        assert model.class_ids == (0, 1, 2)
        for record in list(world.generate(6, start_id=100)):
            for gt in record.gt_objects:
                feat = world.detection_features(record.image_id, gt.box.as_array())
                far = world.detection_features(record.image_id, Box(1.0, 1.0, 9.0, 9.0).as_array())
                for n, clf in model.classifiers.items():
                    own = clf.decision_values(feat)[0]
                    bg = clf.decision_values(far)[0]
                    assert bg < 0
                    if n == gt.class_id:
                        assert own > 0
                    else:
                        assert own < 0

    def test_same_seed_reproducible(self):
        _, records = world_and_records(3, n=10, max_objects=1)
        a = train_detector(records, [0, 1, 2], seed=7)
        b = train_detector(records, [0, 1, 2], seed=7)
        for n in a.classifiers:
            np.testing.assert_array_equal(a.classifiers[n].weights, b.classifiers[n].weights)

    def test_missing_class_fails_loudly(self):
        _, records = world_and_records(4, n=8, max_objects=1, active_classes=[0, 1])
        with pytest.raises(UntrainableClassError) as info:
            train_detector(records, [0, 1, 2], seed=0)
        assert 2 in info.value.keys


class TestDetect:
    def setup_method(self):
        self.world, records = world_and_records(5, n=30, max_objects=2)
        self.model = train_detector(records, [0, 1, 2], seed=0)
        self.test_records = list(self.world.generate(8, start_id=200))

    def test_every_object_found_with_right_class(self):
        for record in self.test_records:
            detections = detect(self.model, record)
            for gt in record.gt_objects:
                hits = [d for d in detections if iou(d.box, gt.box) > 0.5]
                assert hits
                assert hits[0].class_id == gt.class_id

    def test_output_sorted_and_capped(self):
        model = self.model
        for record in self.test_records:
            detections = detect(model, record)
            scores = [d.score for d in detections]
            assert scores == sorted(scores, reverse=True)
            assert len(detections) <= detection.MAX_DETECTIONS

    def test_per_class_suppression(self):
        for record in self.test_records:
            detections = detect(self.model, record)
            by_class = {}
            for d in detections:
                by_class.setdefault(d.class_id, []).append(d)
            for group in by_class.values():
                for i, a in enumerate(group):
                    for b in group[i + 1:]:
                        assert iou(a.box, b.box) <= detection.NMS_IOU + 1e-12

    def test_empty_proposals_empty_result(self):
        record = self.test_records[0]
        assert detect(self.model, with_proposals(record, slice(0))) == []

    def test_high_threshold_silences(self, monkeypatch):
        monkeypatch.setattr(detection, "SCORE_THRESHOLD", 1e9)
        model = train_detector(
            list(self.world.generate(10, start_id=300)),
            [0, 1, 2],
            seed=0,
        )
        assert detect(model, self.test_records[0]) == []

    def test_boxes_stay_near_input_proposals(self):
        record = self.test_records[0]
        detections = detect(self.model, record)
        assert detections
        for d in detections:
            # the refined box stays near some source proposal
            assert max(iou(d.box, box) for box in record.proposal_boxes) > 0.3

    def test_explicit_proposals_override_record(self):
        record = self.test_records[0]
        gt = record.gt_objects[0]
        lone = [i for i, box in enumerate(record.proposal_boxes)
                if iou(box, gt.box) == 1.0][:1]
        assert lone
        detections = detect(self.model, with_proposals(record, lone))
        assert detections
        # one proposal yields at most one detection per class, near it
        classes = [d.class_id for d in detections]
        assert len(classes) == len(set(classes))
        for d in detections:
            assert iou(d.box, record.proposal_boxes[lone[0]]) > 0.3

    def test_matches_reference_in_order(self):
        for record in self.test_records:
            assert_matches_reference(self.model, record)

    def test_ties_rank_by_class_then_proposal(self, monkeypatch):
        # zero weights score every region 0.0 for every class
        flat = {n: dataclasses.replace(clf, weights=np.zeros_like(clf.weights))
                for n, clf in self.model.classifiers.items()}
        model = dataclasses.replace(self.model, classifiers=flat)
        for record in self.test_records:
            detections = detect(model, record)
            assert {d.score for d in detections} == {0.0}
            classes = [d.class_id for d in detections]
            assert classes == sorted(classes) and len(set(classes)) == 3
            assert_matches_reference(model, record)
        # a cap below one class's survivors cuts inside the tie
        monkeypatch.setattr(detection, "MAX_DETECTIONS", 5)
        for record in self.test_records:
            assert len(detect(model, record)) == 5
            assert_matches_reference(model, record)
