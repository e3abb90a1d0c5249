"""Mask-head tests: pixel subsampling, per-class fits, grid-to-box prediction."""

import math

import numpy as np
import pytest

from oseg import segmentation
from oseg.geometry import Box, mask_iou
from oseg.incremental import UntrainableClassError
from oseg.segmentation import (
    OnlineSegmentationModel,
    UntrainedClassError,
    build_segmentation_training_sets,
    extend_segmentation,
    predict_mask,
    train_online_segmentation,
)
from oseg.seeding import rng_for
from oseg.synthetic import SyntheticWorld


class FakeGt:
    def __init__(self, class_id, box, mask_features, pixel_labels):
        self.class_id = class_id
        self.box = box
        self.mask_features = mask_features
        self.pixel_labels = pixel_labels


class FakeRecord:
    def __init__(self, image_id, gts):
        self.image_id = image_id
        self.image_size = (320, 320)
        self.gt_objects = gts


def half_mask_record(s=14, true_pixels=98):
    """One gt whose s x s grid holds exactly ``true_pixels`` positives."""
    labels = np.zeros(s * s, dtype=bool)
    labels[:true_pixels] = True
    features = np.zeros((s, s, 3))
    features[..., 0] = labels.reshape(s, s)  # feature encodes the label
    features[..., 1] = 1.0 - labels.reshape(s, s)
    gt = FakeGt(0, Box(40.0, 40.0, 104.0, 104.0), features, labels.reshape(s, s))
    return FakeRecord(0, [gt])


def reference_subsample_side(rows, fraction, rng):
    """Reference per-side sampler: keep floor(fraction * count) rows,
    at least one when any exist."""
    count = rows.shape[0]
    if count == 0:
        return rows
    keep = max(1, math.floor(fraction * count))
    if keep >= count:
        return rows
    idx = rng.choice(count, size=keep, replace=False)
    return rows[idx]


def reference_training_sets(records, class_ids, fraction, seed):
    pos = {n: [] for n in class_ids}
    neg = {n: [] for n in class_ids}
    for record in records:
        for k, gt in enumerate(record.gt_objects):
            if gt.class_id not in class_ids:
                continue
            flat = gt.mask_features.reshape(-1, gt.mask_features.shape[-1])
            labels = gt.pixel_labels.ravel()
            rng_pos = rng_for(seed, "seg-pixels", record.image_id, k, "pos")
            rng_neg = rng_for(seed, "seg-pixels", record.image_id, k, "neg")
            pos[gt.class_id].append(reference_subsample_side(flat[labels], fraction, rng_pos))
            neg[gt.class_id].append(reference_subsample_side(flat[~labels], fraction, rng_neg))
    return {n: (np.concatenate(pos[n]), np.concatenate(neg[n])) for n in class_ids}


class TestSubsampling:
    def test_fraction_of_98_pixels_keeps_29(self, monkeypatch):
        monkeypatch.setattr(segmentation, "PIXEL_FRACTION", 0.3)
        sets = build_segmentation_training_sets([half_mask_record()], [0], seed=0)
        pos, neg = sets[0]
        assert pos.shape[0] == 29 == math.floor(0.3 * 98)
        assert neg.shape[0] == 29
        assert (pos[:, 0] == 1.0).all() and (neg[:, 0] == 0.0).all()

    def test_full_fraction_keeps_everything(self, monkeypatch):
        monkeypatch.setattr(segmentation, "PIXEL_FRACTION", 1.0)
        sets = build_segmentation_training_sets([half_mask_record()], [0], seed=0)
        pos, neg = sets[0]
        assert pos.shape[0] == 98 and neg.shape[0] == 98

    def test_tiny_side_never_dropped_to_zero(self, monkeypatch):
        monkeypatch.setattr(segmentation, "PIXEL_FRACTION", 0.3)
        sets = build_segmentation_training_sets(
            [half_mask_record(true_pixels=1)], [0], seed=0
        )
        pos, neg = sets[0]
        assert pos.shape[0] == 1                       # floor(0.3) bumped to 1
        assert neg.shape[0] == math.floor(0.3 * 195)

    def test_seeded_determinism(self):
        a = build_segmentation_training_sets([half_mask_record()], [0], seed=5)
        b = build_segmentation_training_sets([half_mask_record()], [0], seed=5)
        np.testing.assert_array_equal(a[0][0], b[0][0])
        np.testing.assert_array_equal(a[0][1], b[0][1])

    def test_absent_class_raises(self):
        with pytest.raises(UntrainableClassError) as info:
            build_segmentation_training_sets([half_mask_record()], [0, 3], seed=0)
        assert info.value.keys == (3,)

    def test_label_purity_and_class_isolation(self, monkeypatch):
        monkeypatch.setattr(segmentation, "PIXEL_FRACTION", 0.5)
        world = SyntheticWorld(class_names=["a", "b"], noise=0.0, seed=2, max_objects=2)
        records = list(world.generate(10))
        sets = build_segmentation_training_sets(records, [0, 1], seed=0)
        protos = world.prototypes("seg")
        bg = world.background_prototype("seg")
        for n, (pos, neg) in sets.items():
            np.testing.assert_allclose(pos, np.tile(protos[n], (pos.shape[0], 1)), atol=1e-12)
            np.testing.assert_allclose(neg, np.tile(bg, (neg.shape[0], 1)), atol=1e-12)

    @pytest.mark.parametrize("fraction", [1e-3, 0.3, 1.0])
    def test_matches_reference_sampler_bytes(self, fraction, monkeypatch):
        monkeypatch.setattr(segmentation, "PIXEL_FRACTION", fraction)
        world = SyntheticWorld(class_names=["a", "b"], noise=0.2, seed=6, max_objects=2)
        records = list(world.generate(10))
        got = build_segmentation_training_sets(records, [0, 1], seed=9)
        want = reference_training_sets(records, [0, 1], fraction, seed=9)
        assert got.keys() == want.keys()
        for n in want:
            for mine, theirs in zip(got[n], want[n], strict=True):
                assert mine.shape == theirs.shape
                assert mine.tobytes() == theirs.tobytes()


class TestTraining:
    def test_noise_free_training_accuracy_is_one(self):
        world = SyntheticWorld(class_names=["a", "b"], noise=0.0, seed=3, max_objects=2)
        records = list(world.generate(12))
        model = train_online_segmentation(records, [0, 1], num_centers=300, seed=0)
        for record in records:
            for gt in record.gt_objects:
                clf = model.classifiers[gt.class_id]
                flat = gt.mask_features.reshape(-1, gt.mask_features.shape[-1])
                scores = clf.decision_values(flat)
                assert ((scores > 0) == gt.pixel_labels.ravel()).all()

    def test_single_class_fit(self):
        world = SyntheticWorld(class_names=["only"], noise=0.0, seed=4, max_objects=1)
        model = train_online_segmentation(
            list(world.generate(5)), [0], num_centers=300, seed=0
        )
        assert model.class_ids == (0,)

    def test_seeded_determinism(self):
        world = SyntheticWorld(class_names=["a"], noise=0.2, seed=5, max_objects=1)
        records = list(world.generate(8))
        a = train_online_segmentation(records, [0], num_centers=300, seed=1)
        b = train_online_segmentation(records, [0], num_centers=300, seed=1)
        np.testing.assert_array_equal(a.classifiers[0].weights, b.classifiers[0].weights)
        np.testing.assert_array_equal(a.classifiers[0].centers, b.classifiers[0].centers)


class TestExtend:
    def test_new_class_added_old_objects_shared(self):
        world = SyntheticWorld(
            class_names=["a", "b", "c"], noise=0.0, seed=6,
            active_classes=[0, 1], max_objects=1,
        )
        base = train_online_segmentation(
            list(world.generate(8)), [0, 1], num_centers=300, seed=0
        )
        world.active_classes = (2,)
        grown = extend_segmentation(
            base, list(world.generate(8, start_id=100)), [2], num_centers=300, seed=0
        )
        assert grown.class_ids == (0, 1, 2)
        assert grown.classifiers[0] is base.classifiers[0]
        assert grown.classifiers[1] is base.classifiers[1]
        assert base.class_ids == (0, 1)  # original untouched

    def test_clash_rejected(self):
        world = SyntheticWorld(class_names=["a"], noise=0.0, seed=7, max_objects=1)
        records = list(world.generate(5))
        model = train_online_segmentation(records, [0], num_centers=300, seed=0)
        with pytest.raises(ValueError, match="already trained"):
            extend_segmentation(model, records, [0], num_centers=300, seed=0)

    def test_no_new_classes_copies(self):
        world = SyntheticWorld(class_names=["a"], noise=0.0, seed=8, max_objects=1)
        records = list(world.generate(5))
        model = train_online_segmentation(records, [0], num_centers=300, seed=0)
        twin = extend_segmentation(model, [], [], num_centers=300, seed=0)
        assert twin is not model
        assert twin.classifiers[0] is model.classifiers[0]


class ScoreFromFirstFeature:
    """Stand-in classifier: the score is the first feature component."""

    def decision_values(self, rows):
        return np.asarray(rows)[:, 0]


class TestPredictMask:
    def fake_model(self):
        return OnlineSegmentationModel(classifiers={0: ScoreFromFirstFeature()})

    def constant_features(self, value, s=14):
        out = np.zeros((s, s, 2))
        out[..., 0] = value
        return out

    def test_all_positive_scores_fill_the_box(self):
        box = Box(10.0, 20.0, 50.0, 44.0)
        mask = predict_mask(self.fake_model(), 0, box, self.constant_features(1.0), (320, 320))
        assert mask.origin == (10, 20)
        assert mask.bits.shape == (24, 40)
        assert mask.bits.all()

    def test_infinite_threshold_empties_the_mask(self, monkeypatch):
        monkeypatch.setattr(segmentation, "MASK_THRESHOLD", math.inf)
        box = Box(10.0, 20.0, 50.0, 44.0)
        mask = predict_mask(
            self.fake_model(), 0, box, self.constant_features(1.0), (320, 320)
        )
        assert not mask.bits.any()

    def test_untrained_class_raises(self):
        with pytest.raises(UntrainedClassError):
            predict_mask(self.fake_model(), 1, Box(0, 0, 10, 10), self.constant_features(1.0), (320, 320))

    def test_bad_feature_shape_rejected(self):
        with pytest.raises(ValueError, match="mask features"):
            predict_mask(self.fake_model(), 0, Box(0, 0, 10, 10), np.zeros((14, 7, 2)), (320, 320))

    def test_translation_moves_origin_not_bits(self):
        feats = np.zeros((14, 14, 2))
        feats[:, 7:, 0] = 1.0   # right half positive
        feats[:, :7, 0] = -1.0
        here = predict_mask(self.fake_model(), 0, Box(16.0, 16.0, 72.0, 72.0), feats, (320, 320))
        there = predict_mask(self.fake_model(), 0, Box(23.0, 27.0, 79.0, 83.0), feats, (320, 320))
        assert here.origin == (16, 16) and there.origin == (23, 27)
        np.testing.assert_array_equal(here.bits, there.bits)

    def test_half_plane_resize_geometry(self):
        feats = np.zeros((14, 14, 2))
        feats[:, 7:, 0] = 1.0
        feats[:, :7, 0] = -1.0
        mask = predict_mask(self.fake_model(), 0, Box(0.0, 0.0, 56.0, 56.0), feats, (320, 320))
        assert not mask.bits[:, :26].any()   # left of the seam
        assert mask.bits[:, 30:].all()       # right of the seam

    def test_gt_box_mask_iou_meets_bar(self):
        # the 0.95 bar needs a 28-cell grid: a 14-cell +/-1 score lattice
        # tops out near 0.949 for elliptical masks no matter the classifier
        world = SyntheticWorld(
            class_names=["a", "b"], noise=0.0, seed=9, max_objects=2, mask_grid=28
        )
        records = list(world.generate(15))
        model = train_online_segmentation(records, [0, 1], num_centers=300, seed=0)
        ious = []
        for record in list(world.generate(6, start_id=50)):
            for gt in record.gt_objects:
                mask = predict_mask(
                    model, gt.class_id, gt.box, gt.mask_features, record.image_size
                )
                ious.append(mask_iou(mask, gt.mask))
        assert min(ious) >= 0.95

    def test_gt_box_mask_iou_default_grid_floor(self):
        world = SyntheticWorld(class_names=["a"], noise=0.0, seed=10, max_objects=1)
        records = list(world.generate(12))
        model = train_online_segmentation(records, [0], num_centers=300, seed=0)
        ious = []
        for record in list(world.generate(6, start_id=50)):
            for gt in record.gt_objects:
                mask = predict_mask(
                    model, gt.class_id, gt.box, gt.mask_features, record.image_size
                )
                ious.append(mask_iou(mask, gt.mask))
        assert min(ious) >= 0.94
