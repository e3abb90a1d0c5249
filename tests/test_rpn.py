"""Proposal-module tests: labeling rules, training, ranking, suppression."""

import warnings

import numpy as np
import pytest

from oseg import rpn
from oseg.geometry import AnchorGrid, Box, apply_targets, box_array, iou, nms
from oseg.incremental import RpnReservoir
from oseg.minibootstrap import BootstrapConfig
from oseg.rpn import (
    propose,
    rpn_incremental_update,
    rpn_labeler,
    train_rpn_from_reservoir,
)
from oseg.synthetic import SyntheticWorld


class FakeGt:
    def __init__(self, box):
        self.box = box


class FakeRecord:
    """Minimal record whose map rows carry their own location index."""

    def __init__(self, grid, boxes, image_id=0):
        rows, cols = grid.map_size
        self.image_id = image_id
        self.image_size = grid.image_size
        self.rpn_map = np.zeros((rows, cols, 4))
        self.rpn_map[..., 0] = np.arange(rows * cols).reshape(rows, cols)
        self.rpn_map[..., 1] = 1.0
        self.gt_objects = [FakeGt(Box(*b)) for b in boxes]


def locations_of(rows):
    return set(int(v) for v in np.atleast_2d(np.asarray(rows))[:, 0]) if np.asarray(rows).size else set()


def anchor_center(grid, col, row):
    return ((col + 0.5) * grid.stride, (row + 0.5) * grid.stride)


def centered_box(cx, cy, w, h):
    return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


SMALL_POOL = BootstrapConfig(num_batches=4, batch_size=300, num_centers=200,
                             sigma=0.5, lam=1e-4)


def train_rpn(records, grid, seed):
    """The training core's proposal-module path on one sequence."""
    reservoir = RpnReservoir(config=SMALL_POOL, seed=seed)
    rpn_incremental_update(reservoir, records, grid)
    return train_rpn_from_reservoir(reservoir, grid, seed)


def post_nms(monkeypatch, cap):
    """Smaller inference limits than the module's: the top 300 anchors
    are suppressed down to at most ``cap`` proposals."""
    monkeypatch.setattr(rpn, "PRE_NMS_TOP_K", 300)
    monkeypatch.setattr(rpn, "POST_NMS_TOP_K", cap)


@pytest.fixture(autouse=True)
def small_limits(monkeypatch):
    post_nms(monkeypatch, 50)


def propose_reference(model, record) -> list:
    """``propose`` as it was when it returned (Box, score) pairs in
    descending score order."""
    grid = model.grid
    feats = rpn._location_features(record, grid)
    num_shapes = grid.num_shapes
    scores = np.full((grid.num_locations, num_shapes), -np.inf)
    boxes = grid.anchor_boxes.reshape(grid.num_locations, num_shapes, 4).copy()
    valid = np.zeros((grid.num_locations, num_shapes), dtype=bool)
    w_img, h_img = record.image_size
    for a, clf in model.classifiers.items():
        scores[:, a] = clf.decision_values(feats)
        reg = model.regressors.get(a)
        if reg is not None:
            refined, ok = apply_targets(boxes[:, a, :], reg.predict(feats), record.image_size)
            boxes[:, a, :] = refined
            valid[:, a] = ok
        else:
            raw = boxes[:, a, :]
            raw[:, 0::2] = np.clip(raw[:, 0::2], 0.0, w_img)
            raw[:, 1::2] = np.clip(raw[:, 1::2], 0.0, h_img)
            valid[:, a] = (raw[:, 2] > raw[:, 0]) & (raw[:, 3] > raw[:, 1])
    flat_scores = scores.reshape(-1)
    flat_scores[~valid.reshape(-1)] = -np.inf
    flat_boxes = boxes.reshape(-1, 4)
    order = np.argsort(-flat_scores, kind="stable")[:rpn.PRE_NMS_TOP_K]
    order = order[np.isfinite(flat_scores[order])]
    if order.size == 0:
        return []
    keep = nms(flat_boxes[order], flat_scores[order], rpn.NMS_IOU,
               limit=rpn.POST_NMS_TOP_K)
    return [
        (Box.from_array(flat_boxes[order[i]]), float(flat_scores[order[i]]))
        for i in keep
    ]


def filled_reservoir(records, grid):
    reservoir = RpnReservoir(
        config=BootstrapConfig(num_batches=10, batch_size=2000,
                               num_centers=1000, sigma=5.0, lam=1e-5),
        seed=0)
    rpn_incremental_update(reservoir, records, grid)
    return reservoir


class TestLabeling:
    grid = AnchorGrid()

    def test_anchor_matching_gt_is_sole_positive(self):
        # gt coincides with the square anchor at cell (5, 5); every other
        # anchor is below 0.7 (best same-shape neighbor hits exactly 0.5)
        cx, cy = anchor_center(self.grid, 5, 5)
        record = FakeRecord(self.grid, [centered_box(cx, cy, 64, 64)])
        labeled = rpn_labeler(self.grid)(record)
        loc = 5 * self.grid.map_size[1] + 5
        assert locations_of(labeled[0][0]) == {loc}
        assert labeled[1][0].shape[0] == 0 and labeled[2][0].shape[0] == 0
        assert loc not in locations_of(labeled[0][1])        # not a negative
        # far away cells are negatives for every shape
        for a in range(3):
            assert 0 in locations_of(labeled[a][1])

    def test_low_overlap_argmax_forced_positive(self):
        # 48x48 gt offset (5, 7) from a square anchor center: contained, so
        # best IoU is 48^2/64^2 = 0.5625, below the 0.7 bar
        cx, cy = anchor_center(self.grid, 5, 5)
        record = FakeRecord(self.grid, [centered_box(cx + 5, cy + 7, 48, 48)])
        labeled = rpn_labeler(self.grid)(record)
        loc = 5 * self.grid.map_size[1] + 5
        assert locations_of(labeled[0][0]) == {loc}          # forced, unique
        assert labeled[1][0].shape[0] == 0 and labeled[2][0].shape[0] == 0
        # ... but regression refuses it (0.5625 < 0.7)
        for a in range(3):
            assert np.asarray(labeled[a][2]).size == 0

    def test_exact_half_iou_is_ignored(self):
        # 48-wide gt displaced by 16 = w/3 has IoU exactly (48-16)/(48+16)
        # = 0.5 with the tall anchor one cell over: neither side of 0.3/0.7
        cx, cy = anchor_center(self.grid, 6, 5)
        record = FakeRecord(self.grid, [centered_box(cx, cy, 48, 96)])
        shifted = Box(*centered_box(*anchor_center(self.grid, 5, 5), 48, 96))
        assert iou(shifted, record.gt_objects[0].box) == 0.5
        labeled = rpn_labeler(self.grid)(record)
        loc_hit = 5 * self.grid.map_size[1] + 6
        loc_half = 5 * self.grid.map_size[1] + 5
        assert loc_hit in locations_of(labeled[2][0])
        assert loc_half not in locations_of(labeled[2][0])
        assert loc_half not in locations_of(labeled[2][1])

    def test_no_gts_all_negative(self):
        record = FakeRecord(self.grid, [])
        labeled = rpn_labeler(self.grid)(record)
        for a in range(3):
            assert labeled[a][0].shape[0] == 0
            assert labeled[a][1].shape[0] == self.grid.num_locations
        assert all(np.asarray(labeled[a][2]).size == 0 for a in range(3))

    def test_regression_targets_reconstruct_gt(self):
        world = SyntheticWorld(class_names=["a", "b"], noise=0.0, seed=4, max_objects=2)
        grid = world.grid
        records = list(world.generate(6))
        reservoir = filled_reservoir(records, grid)
        total = sum(x.shape[0] for x in reservoir.reg_features.values())
        assert total > 0
        # anchors selected for regression (IoU >= 0.7) decode back onto
        # their ground truth exactly
        from oseg.geometry import label_anchors

        for record in records:
            labeled = rpn_labeler(grid)(record)
            gts = np.array([g.box.as_array() for g in record.gt_objects])
            _, _, best_iou = label_anchors(grid.anchor_boxes, gts, 0.7, 0.3)
            gt_boxes = [g.box for g in record.gt_objects]
            for a, (_, _, feats, targets) in labeled.items():
                sel = best_iou[a :: grid.num_shapes] >= 0.7
                assert np.atleast_2d(np.asarray(feats)).shape[0] in (0, int(sel.sum()))
                if np.asarray(feats).size == 0:
                    assert not sel.any()
                    continue
                anchors = grid.anchor_boxes[a :: grid.num_shapes][sel]
                decoded, ok = apply_targets(anchors, np.asarray(targets), world.image_size)
                assert ok.all()
                for db in decoded:
                    best = max(iou(Box.from_array(db), g) for g in gt_boxes)
                    assert best > 0.999

    def test_map_shape_mismatch_rejected(self):
        coarse = AnchorGrid(stride=32)
        record = FakeRecord(self.grid, [])
        with pytest.raises(ValueError, match="does not match grid"):
            rpn_labeler(coarse)(record)


class TestTrainedSetsStack:
    def test_counts_add_up_across_records(self):
        world = SyntheticWorld(class_names=["a", "b"], noise=0.0, seed=1, max_objects=2)
        records = list(world.generate(5))
        reservoir = filled_reservoir(records, world.grid)
        labeler = rpn_labeler(world.grid)
        for a in range(world.grid.num_shapes):
            pos = sum(np.atleast_2d(np.asarray(labeler(r)[a][0])).shape[0]
                      for r in records if np.asarray(labeler(r)[a][0]).size)
            assert reservoir.positives[a].shape[0] == pos
            assert (reservoir.reg_features[a].shape[0]
                    == reservoir.reg_targets[a].shape[0])


class TestTraining:
    def test_classifier_separates_object_locations(self):
        world = SyntheticWorld(class_names=["a", "b", "c"], noise=0.0, seed=2, max_objects=1)
        records = list(world.generate(30))
        model = train_rpn(records, world.grid, seed=0)
        assert not model.failures
        labeled = [rpn_labeler(world.grid)(r) for r in records]
        for a, clf in model.classifiers.items():
            # every labeled row, not the reservoir's quota sample
            positives = np.concatenate([sides[a][0] for sides in labeled])
            negatives = np.concatenate([sides[a][1] for sides in labeled])
            if positives.shape[0] == 0:
                continue
            assert clf.decision_values(positives).min() > 0
            neg_scores = clf.decision_values(negatives)
            assert np.mean(neg_scores < 0) > 0.99

    def test_same_seed_reproducible(self):
        world = SyntheticWorld(class_names=["a"], noise=0.1, seed=5, max_objects=1)
        records = list(world.generate(10))
        a = train_rpn(records, world.grid, seed=1)
        b = train_rpn(records, world.grid, seed=1)
        for key in a.classifiers:
            np.testing.assert_array_equal(a.classifiers[key].weights, b.classifiers[key].weights)
        for key in a.regressors:
            np.testing.assert_array_equal(a.regressors[key].weights, b.regressors[key].weights)

    def test_untrainable_shape_warns_and_is_skipped(self):
        # square-only objects never give a rectangular anchor IoU above 0.7
        # (concentric best is about 0.545), so shapes 1 and 2 are untrainable
        world = SyntheticWorld(
            class_names=["a", "b"], noise=0.0, seed=6,
            anchor_shapes=((64.0, 64.0),), max_objects=1,
        )
        records = list(world.generate(15))
        grid = AnchorGrid()  # trained on the full three-shape lattice
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = train_rpn(records, grid, seed=0)
        assert set(model.classifiers) == {0}
        assert set(model.failures) == {1, 2}
        assert any("untrainable" in str(w.message) for w in caught)
        # surviving proposals all come from the square shape; the top one
        # sits on an object, where the regressor barely moves the anchor
        for record in records:
            ranked = propose(model, record)
            assert len(ranked)
            x1, y1, x2, y2 = ranked[0]
            assert abs((x2 - x1) - (y2 - y1)) < 16


class TestPropose:
    def single_shape_model(self, seed=7):
        world = SyntheticWorld(
            class_names=["a", "b", "c"], noise=0.0, seed=seed,
            anchor_shapes=((64.0, 64.0),), max_objects=1,
        )
        train = list(world.generate(30))
        model = train_rpn(train, world.grid, seed=0)
        return world, model

    def test_top_proposal_overlaps_single_object(self):
        world, model = self.single_shape_model()
        for record in list(world.generate(8, start_id=100)):
            ranked = propose(model, record)
            assert len(ranked)
            assert iou(ranked[0], record.gt_objects[0].box) > 0.9

    def test_full_lattice_keeps_good_box_near_top(self):
        # with all three shapes the location features cannot reveal which
        # shape matched, so cross-shape near-ties are expected; a > 0.9 box
        # must still sit within the top three
        world = SyntheticWorld(class_names=["a", "b"], noise=0.0, seed=8, max_objects=1)
        model = train_rpn(list(world.generate(40)), world.grid, seed=0)
        assert not model.failures
        for record in list(world.generate(8, start_id=200)):
            ranked = propose(model, record)
            best3 = max(iou(box, record.gt_objects[0].box) for box in ranked[:3])
            assert best3 > 0.9

    def test_ranked_sorted_suppressed_capped(self, monkeypatch):
        post_nms(monkeypatch, 20)
        world = SyntheticWorld(class_names=["a", "b"], noise=0.0, seed=9, max_objects=3)
        model = train_rpn(list(world.generate(30)), world.grid, seed=0)
        for record in list(world.generate(5, start_id=300)):
            ranked = propose(model, record)
            assert 0 < len(ranked) <= 20
            scores = [s for _, s in propose_reference(model, record)]
            assert scores == sorted(scores, reverse=True)
            for i, a in enumerate(ranked):
                for b in ranked[i + 1:]:
                    assert iou(a, b) <= rpn.NMS_IOU + 1e-12

    def test_post_nms_cap_of_one(self, monkeypatch):
        post_nms(monkeypatch, 1)
        world, model = self.single_shape_model()
        record = next(world.generate(1, start_id=400))
        assert len(propose(model, record)) == 1

    def test_boxes_stay_inside_image(self):
        world, model = self.single_shape_model()
        record = next(world.generate(1, start_id=500))
        w_img, h_img = record.image_size
        for x1, y1, x2, y2 in propose(model, record):
            assert 0 <= x1 < x2 <= w_img
            assert 0 <= y1 < y2 <= h_img

    def empty_map_record(self, world, model):
        rows, cols = model.grid.map_size
        record = FakeRecord(model.grid, [])
        record.rpn_map = np.zeros((rows, cols, world.rpn_dim))
        return record

    def test_empty_map_record_still_ranks(self):
        world, model = self.single_shape_model()
        record = self.empty_map_record(world, model)
        ranked = propose(model, record)
        assert len(ranked)  # background everywhere: low scores, but still ranked
        assert all(s < 0 for _, s in propose_reference(model, record))

    def test_proposals_deterministic(self):
        world, model = self.single_shape_model()
        record = next(world.generate(1, start_id=600))
        first = propose(model, record)
        second = propose(model, record)
        assert first.shape == second.shape
        assert first.tobytes() == second.tobytes()
        assert propose_reference(model, record) == propose_reference(model, record)

    def test_equals_reference(self, monkeypatch):
        # the single-shape, full-lattice and three-object worlds above
        cases = [self.single_shape_model()]
        for seed, max_objects, count in ((8, 1, 40), (9, 3, 30)):
            world = SyntheticWorld(class_names=["a", "b"], noise=0.0, seed=seed,
                                   max_objects=max_objects)
            cases.append((world, train_rpn(list(world.generate(count)), world.grid, seed=0)))
        for cap in (50, 20, 1):
            post_nms(monkeypatch, cap)
            for world, model in cases:
                records = list(world.generate(4, start_id=100))
                records.append(self.empty_map_record(world, model))
                for record in records:
                    got = propose(model, record)
                    want = box_array(box for box, _ in propose_reference(model, record))
                    assert got.dtype == np.float64 and got.shape == want.shape
                    assert 0 < len(got) <= cap
                    assert got.tobytes() == want.tobytes()
