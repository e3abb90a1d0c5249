"""Box, anchor, NMS and mask geometry tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oseg.geometry import (
    AnchorGrid,
    BinaryMask,
    Box,
    apply_targets,
    box_areas,
    ellipse_mask,
    encode_targets,
    iou,
    iou_matrix,
    label_anchors,
    mask_iou,
    nms,
    pixel_bounds,
)
from oseg.seeding import rng_for


def random_boxes(rng, n, size=320.0):
    x1 = rng.uniform(0.0, size - 2.0, n)
    y1 = rng.uniform(0.0, size - 2.0, n)
    w = rng.uniform(1.0, size / 2.0, n)
    h = rng.uniform(1.0, size / 2.0, n)
    return np.stack(
        [x1, y1, np.minimum(x1 + w, size), np.minimum(y1 + h, size)], axis=1
    )


class TestIou:
    def test_hand_value(self):
        # overlap 5x10 = 50, union 100 + 100 - 50 = 150
        assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1.0 / 3.0)

    def test_identity_and_disjoint(self):
        b = Box(3.0, 4.0, 9.0, 11.0)
        assert iou(b, b) == pytest.approx(1.0)
        assert iou((0, 0, 10, 10), (10, 0, 20, 10)) == 0.0
        assert iou((0, 0, 10, 10), (40, 40, 50, 50)) == 0.0

    def test_matrix_symmetry_and_range(self):
        rng = rng_for(101, "iou")
        a = random_boxes(rng, 40)
        b = random_boxes(rng, 25)
        m = iou_matrix(a, b)
        assert m.shape == (40, 25)
        assert np.all(m >= 0.0) and np.all(m <= 1.0 + 1e-12)
        np.testing.assert_allclose(m, iou_matrix(b, a).T)

    def test_containment(self):
        # inner area 25 inside outer area 100
        assert iou((0, 0, 10, 10), (2, 2, 7, 7)) == pytest.approx(0.25)


class TestBoxDataclass:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Box(0.0, 0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            Box(5.0, 5.0, 4.0, 10.0)

    def test_round_trip(self):
        b = Box(1.5, 2.5, 3.5, 7.0)
        assert Box.from_array(b.as_array()) == b
        assert b.area == pytest.approx(2.0 * 4.5)


class TestTargets:
    def test_hand_encoding(self):
        t = encode_targets([(0, 0, 10, 10)], [(2, 2, 14, 14)])[0]
        np.testing.assert_allclose(
            t, [0.3, 0.3, np.log(1.2), np.log(1.2)], atol=1e-12
        )

    def test_zero_for_identical(self):
        b = np.array([[4.0, 6.0, 40.0, 30.0]])
        np.testing.assert_allclose(encode_targets(b, b), np.zeros((1, 4)), atol=0)

    def test_round_trip_random(self):
        rng = rng_for(101, "targets")
        src = random_boxes(rng, 200, 300.0)
        dst = random_boxes(rng, 200, 300.0)
        t = encode_targets(src, dst)
        out, valid = apply_targets(src, t, (320, 320))
        assert valid.all()
        np.testing.assert_allclose(out, dst, atol=1e-9)

    def test_clipping_and_validity(self):
        src = np.array([[100.0, 100.0, 140.0, 140.0]])
        # push the box far left of the image: clipped to zero width
        t = np.array([[-100.0, 0.0, 0.0, 0.0]])
        out, valid = apply_targets(src, t, (320, 320))
        assert not valid[0]
        # large positive log-size stays finite and clips to the image
        t = np.array([[0.0, 0.0, 50.0, 50.0]])
        out, valid = apply_targets(src, t, (320, 320))
        assert valid[0]
        np.testing.assert_allclose(out[0], [0.0, 0.0, 320.0, 320.0])


class TestNms:
    def test_hand_trace(self):
        boxes = [(0, 0, 10, 10), (1, 1, 11, 11), (20, 20, 30, 30)]
        scores = [0.9, 0.8, 0.7]
        # IoU(b0, b1) = 81/119 > 0.5 so the middle box is suppressed
        np.testing.assert_array_equal(nms(boxes, scores, 0.5), [0, 2])
        # with a permissive threshold everything survives
        np.testing.assert_array_equal(nms(boxes, scores, 0.7), [0, 1, 2])

    def test_tie_breaks_by_index(self):
        boxes = [(0, 0, 10, 10), (0, 0, 10, 10), (0, 0, 10, 10)]
        np.testing.assert_array_equal(nms(boxes, [0.5, 0.5, 0.5], 0.5), [0])

    def test_postconditions_random(self):
        rng = rng_for(101, "nms")
        for trial in range(20):
            boxes = random_boxes(rng, 60, 120.0)
            scores = rng.uniform(size=60)
            keep = nms(boxes, scores, 0.4)
            assert len(set(keep.tolist())) == len(keep)
            kept = boxes[keep]
            m = iou_matrix(kept, kept)
            np.fill_diagonal(m, 0.0)
            # survivors must be mutually below the threshold
            assert m.max(initial=0.0) <= 0.4 + 1e-12
            # every suppressed box overlaps some higher-scored survivor
            for i in range(60):
                if i in keep:
                    continue
                better = kept[scores[keep] >= scores[i]]
                assert iou_matrix(boxes[i], better).max() > 0.4


def nms_reference(boxes, scores, iou_threshold):
    """Greedy NMS as one suppression row per visited box, the plain loop."""
    boxes = np.asarray(boxes, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    keep = []
    suppressed = np.zeros(len(order), dtype=bool)
    areas = box_areas(boxes)
    for pos, i in enumerate(order):
        if suppressed[pos]:
            continue
        keep.append(i)
        rest = order[pos + 1:]
        if rest.size == 0:
            break
        lt = np.maximum(boxes[i, :2], boxes[rest, :2])
        rb = np.minimum(boxes[i, 2:], boxes[rest, 2:])
        wh = np.clip(rb - lt, 0.0, None)
        inter = wh[:, 0] * wh[:, 1]
        union = areas[i] + areas[rest] - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            ov = np.where(union > 0.0, inter / union, 0.0)
        suppressed[pos + 1:] |= ov > iou_threshold
    return np.array(keep, dtype=np.int64)


@st.composite
def nms_inputs(draw):
    """Half-pixel boxes on a small canvas, so overlaps, IoUs exactly at the
    threshold, zero-area boxes, duplicate boxes and equal scores all occur."""
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    corner = rng.integers(0, 40, size=(n, 2)) / 2.0
    size = rng.integers(0, 24, size=(n, 2)) / 2.0
    boxes = np.hstack([corner, corner + size])
    dupes = rng.random(n) < 0.25
    if n:
        boxes[dupes] = boxes[rng.integers(0, n, size=int(dupes.sum()))]
    scores = rng.integers(0, draw(st.integers(1, 8)), size=n) / 4.0
    threshold = draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))
    return boxes, scores, threshold


class TestNmsOracle:
    @settings(deadline=None)
    @given(nms_inputs())
    def test_matches_reference_loop(self, inputs):
        boxes, scores, threshold = inputs
        assert np.array_equal(nms(boxes, scores, threshold),
                              nms_reference(boxes, scores, threshold))

    @settings(deadline=None)
    @given(nms_inputs(), st.integers(0, 45))
    def test_limit_is_a_prefix(self, inputs, limit):
        boxes, scores, threshold = inputs
        full = nms(boxes, scores, threshold)
        assert np.array_equal(nms(boxes, scores, threshold, limit=limit),
                              full[:limit])


class TestAnchorGrid:
    def test_default_layout(self):
        g = AnchorGrid()
        assert g.map_size == (20, 20)
        assert g.num_locations * g.num_shapes == 20 * 20 * 3
        a = g.anchor_boxes
        assert a.shape == (1200, 4)
        # first cell center is (8, 8); the square anchor comes first
        np.testing.assert_allclose(a[0], [8 - 32, 8 - 32, 8 + 32, 8 + 32])
        np.testing.assert_allclose(a[1], [8 - 48, 8 - 24, 8 + 48, 8 + 24])
        np.testing.assert_allclose(a[2], [8 - 24, 8 - 48, 8 + 24, 8 + 48])
        # location-major ordering: next three anchors share the next center
        np.testing.assert_allclose(a[3], [24 - 32, 8 - 32, 24 + 32, 8 + 32])

    def test_indexing_helpers(self):
        # anchor 7 is shape 1 (96 x 48) of location 2, the cell centered
        # at (40, 8)
        g = AnchorGrid()
        np.testing.assert_allclose(g.anchor_boxes[7],
                                   [40 - 48, 8 - 24, 40 + 48, 8 + 24])

    def test_non_multiple_size_rounds_up(self):
        g = AnchorGrid(image_size=(321, 320))
        assert g.map_size == (20, 21)
        with pytest.raises(ValueError):
            AnchorGrid(stride=0)


class TestLabelAnchors:
    def test_threshold_rule(self):
        anchors = [(0, 0, 10, 10), (20, 20, 30, 30), (40, 40, 50, 50)]
        labels, best_gt, best_iou = label_anchors(anchors, [(0, 0, 10, 10)], 0.7, 0.3)
        np.testing.assert_array_equal(labels, [1, -1, -1])
        assert best_gt[0] == 0
        assert best_iou[0] == pytest.approx(1.0)

    def test_forced_positive_below_threshold(self):
        anchors = [(0, 0, 10, 10), (20, 20, 30, 30)]
        # best IoU with the gt is 81/119 ~ 0.68 < 0.7, still forced positive
        labels, _, best_iou = label_anchors(anchors, [(21, 21, 31, 31)], 0.7, 0.3)
        np.testing.assert_array_equal(labels, [-1, 1])
        assert best_iou[1] == pytest.approx(81.0 / 119.0)

    def test_ignore_band(self):
        # IoU 0.5: inside (neg_iou, pos_iou) so the anchor is ignored,
        # but the gt has no better anchor so it gets forced anyway;
        # use two gts sharing one anchor to observe a genuine ignore
        anchors = [(0, 0, 10, 10), (0, 0, 12, 10)]
        gts = [(0, 0, 12, 10), (0, 0, 5, 10)]
        labels, best_gt, _ = label_anchors(anchors, gts, 0.7, 0.3)
        # anchor 1 matches gt 0 exactly; anchor 0 has IoU 10/12 with gt 0
        assert labels[1] == 1 and best_gt[1] == 0
        assert labels[0] == 1  # forced for gt 1 (IoU 0.5 is its best)
        ignore_only = label_anchors(anchors, [gts[0]], 0.7, 0.3)[0]
        assert ignore_only[1] == 1

    def test_every_gt_covered(self):
        rng = rng_for(101, "labels")
        g = AnchorGrid()
        anchors = g.anchor_boxes
        for trial in range(10):
            gts = random_boxes(rng, 3, 320.0)
            gts[:, 2:] = np.minimum(gts[:, :2] + 150.0, 320.0)
            gts[:, 2] = np.maximum(gts[:, 2], gts[:, 0] + 8.0)
            gts[:, 3] = np.maximum(gts[:, 3], gts[:, 1] + 8.0)
            labels, best_gt, best_iou = label_anchors(anchors, gts, 0.7, 0.3)
            ovr = iou_matrix(anchors, gts)
            covered = set(ovr[labels == 1].argmax(axis=1).tolist())
            assert covered == set(range(len(gts)))

    def test_no_gts_all_negative(self):
        labels, best_gt, best_iou = label_anchors([(0, 0, 10, 10)], np.zeros((0, 4)), 0.7, 0.3)
        np.testing.assert_array_equal(labels, [-1])
        assert best_gt[0] == -1 and best_iou[0] == 0.0


class TestPixelBounds:
    def test_integer_boxes_exact(self):
        assert pixel_bounds((10, 20, 30, 50), (320, 320)) == (10, 20, 30, 50)

    def test_rounding(self):
        assert pixel_bounds((9.5, 9.4, 20.5, 20.6), (320, 320)) == (10, 9, 21, 21)

    def test_never_empty(self):
        x1, y1, x2, y2 = pixel_bounds((5.1, 5.1, 5.3, 5.3), (320, 320))
        assert x2 - x1 == 1 and y2 - y1 == 1
        x1, y1, x2, y2 = pixel_bounds((319.8, 319.8, 320.0, 320.0), (320, 320))
        assert (x1, y1, x2, y2) == (319, 319, 320, 320)


class TestMasks:
    def test_ellipse_area_ratio(self):
        m = ellipse_mask(200, 100)
        assert m.shape == (100, 200)
        assert m[50, 100] and not m[0, 0]
        # filled ellipse covers ~ pi/4 of the window
        assert m.mean() == pytest.approx(np.pi / 4.0, abs=0.01)

    def test_mask_iou_identity_and_disjoint(self):
        bits = ellipse_mask(20, 12)
        a = BinaryMask((5, 5), bits)
        assert mask_iou(a, a) == pytest.approx(1.0)
        b = BinaryMask((100, 100), bits.copy())
        assert mask_iou(a, b) == 0.0

    def test_mask_iou_shifted_rectangles(self):
        r = np.ones((10, 10), dtype=bool)
        a = BinaryMask((0, 0), r)
        b = BinaryMask((5, 0), r.copy())
        assert mask_iou(a, b) == pytest.approx(50.0 / 150.0)

    def test_canvas_matches_windowed_iou(self):
        rng = rng_for(101, "masks")
        for trial in range(10):
            wa, ha = rng.integers(4, 40, 2)
            wb, hb = rng.integers(4, 40, 2)
            a = BinaryMask(
                (int(rng.integers(0, 50)), int(rng.integers(0, 50))),
                rng.uniform(size=(ha, wa)) < 0.5,
            )
            b = BinaryMask(
                (int(rng.integers(0, 50)), int(rng.integers(0, 50))),
                rng.uniform(size=(hb, wb)) < 0.5,
            )
            ca = a.to_canvas((128, 128))
            cb = b.to_canvas((128, 128))
            inter = (ca & cb).sum()
            union = (ca | cb).sum()
            expect = inter / union if union else 0.0
            assert mask_iou(a, b) == pytest.approx(expect)


@st.composite
def image_boxes(draw, min_side=1e-3, margin=0.0):
    """An integer image size and boxes of positive extent; with a margin,
    boxes may reach that far past every image edge."""
    w, h = draw(st.integers(1, 640)), draw(st.integers(1, 640))

    def side(limit):
        lo = draw(st.floats(-margin, limit + margin - min_side))
        hi = draw(st.floats(min(lo + min_side, limit + margin), limit + margin))
        return lo, hi

    boxes = []
    for _ in range(draw(st.integers(1, 8))):
        (x1, x2), (y1, y2) = side(w), side(h)
        boxes.append((x1, y1, x2, y2))
    return (w, h), np.array(boxes)


class TestGeometryProperties:
    @settings(deadline=None)
    @given(image_boxes())
    def test_targets_round_trip_inside_image(self, drawn):
        size, src = drawn
        dst = np.roll(src, 1, axis=0)
        decoded, valid = apply_targets(src, encode_targets(src, dst), size)
        assert valid.all()
        np.testing.assert_allclose(decoded, dst, rtol=0.0, atol=1e-9)

    @settings(deadline=None)
    @given(image_boxes(margin=100.0), image_boxes(margin=100.0))
    def test_iou_matrix_symmetric_bounded_unit_diagonal(self, first, second):
        a, b = first[1], second[1]
        ab = iou_matrix(a, b)
        assert np.array_equal(ab, iou_matrix(b, a).T)
        assert ((ab >= 0.0) & (ab <= 1.0)).all()
        assert np.array_equal(np.diag(iou_matrix(a, a)), np.ones(len(a)))

    @settings(deadline=None)
    @given(image_boxes(min_side=0.0, margin=200.0))
    def test_pixel_bounds_at_least_one_pixel_inside(self, drawn):
        (w, h), boxes = drawn
        for box in boxes:
            x1, y1, x2, y2 = pixel_bounds(box, (w, h))
            assert all(isinstance(v, int) for v in (x1, y1, x2, y2))
            assert 0 <= x1 < x2 <= w
            assert 0 <= y1 < y2 <= h
