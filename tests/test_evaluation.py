"""Average-precision scoring: hand-traced values, a rational-arithmetic
oracle, and the invariants the report must keep."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from oseg.evaluation import InstancePrediction, average_precision, evaluate
from oseg.geometry import BinaryMask, Box, iou, mask_iou, pixel_bounds

IMAGE_SIZE = (320, 320)


def full_box_mask(box, image_size=IMAGE_SIZE):
    x1, y1, x2, y2 = pixel_bounds(box, image_size)
    return BinaryMask((x1, y1), np.ones((y2 - y1, x2 - x1), dtype=bool))


@dataclass(frozen=True)
class FakeGt:
    class_id: int
    box: Box
    mask: BinaryMask


@dataclass(frozen=True)
class FakeRecord:
    image_id: int
    gt_objects: tuple
    image_size: tuple = IMAGE_SIZE


def gt(class_id, coords, mask=None):
    box = Box(*coords)
    return FakeGt(class_id, box, mask if mask is not None
                  else full_box_mask(box))


def pred(image_id, class_id, score, coords, mask=None):
    box = Box(*coords)
    return InstancePrediction(image_id, class_id, score, box,
                              mask if mask is not None
                              else full_box_mask(box))


class TestMaskIoU:
    def test_half_overlap_is_one_third(self):
        # two 10x10 squares sharing a 5x10 strip: 50 / (100 + 100 - 50)
        a = BinaryMask((0, 0), np.ones((10, 10), dtype=bool))
        b = BinaryMask((5, 0), np.ones((10, 10), dtype=bool))
        assert mask_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)

    def test_identical_masks(self):
        a = BinaryMask((3, 7), np.ones((4, 6), dtype=bool))
        assert mask_iou(a, a) == 1.0

    def test_disjoint_masks(self):
        a = BinaryMask((0, 0), np.ones((5, 5), dtype=bool))
        b = BinaryMask((50, 50), np.ones((5, 5), dtype=bool))
        assert mask_iou(a, b) == 0.0

    def test_both_empty_is_an_error(self):
        empty = BinaryMask((0, 0), np.zeros((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            mask_iou(empty, empty)

    def test_one_empty_is_zero(self):
        empty = BinaryMask((0, 0), np.zeros((4, 4), dtype=bool))
        full = BinaryMask((0, 0), np.ones((4, 4), dtype=bool))
        assert mask_iou(empty, full) == 0.0


class TestHandTraces:
    def test_single_overlapping_prediction(self):
        # IoU((0,0,100,100), (10,0,110,100)) = 90/110 ~ 0.818
        records = [FakeRecord(0, (gt(1, (0, 0, 100, 100)),))]
        preds = [pred(0, 1, 0.9, (10, 0, 110, 100))]
        assert average_precision(preds, records, 1, 0.5) == 1.0
        assert average_precision(preds, records, 1, 0.7) == 1.0

    def test_threshold_rejects_weak_overlap(self):
        # IoU((0,0,100,100), (40,0,140,100)) = 60/140 ~ 0.43
        records = [FakeRecord(0, (gt(1, (0, 0, 100, 100)),))]
        preds = [pred(0, 1, 0.9, (40, 0, 140, 100))]
        assert average_precision(preds, records, 1, 0.5) == 0.0

    def test_duplicate_detection_is_a_false_positive(self):
        # both predictions overlap the single gt at 0.8; the higher score
        # takes it, the duplicate becomes FP after full recall: AP stays 1
        records = [FakeRecord(0, (gt(1, (0, 0, 100, 100)),))]
        box = (0, 0, 100, 80)
        assert iou(Box(*box), Box(0, 0, 100, 100)) == pytest.approx(0.8)
        preds = [pred(0, 1, 0.9, box), pred(0, 1, 0.8, box)]
        assert average_precision(preds, records, 1, 0.5) == 1.0

    def test_tp_fp_tp_sequence(self):
        # flags T,F,T over two gts: precision 1, 1/2, 2/3 at recall
        # 1/2, 1/2, 1 -> AP = 0.5 * 1 + 0.5 * (2/3) = 5/6
        records = [FakeRecord(0, (gt(1, (0, 0, 50, 50)),
                                  gt(1, (200, 200, 250, 250))))]
        preds = [pred(0, 1, 0.9, (0, 0, 50, 50)),
                 pred(0, 1, 0.8, (100, 100, 150, 150)),
                 pred(0, 1, 0.7, (200, 200, 250, 250))]
        assert average_precision(preds, records, 1, 0.5) == \
            pytest.approx(5 / 6, abs=1e-12)

    def test_equal_scores_order_by_image_id(self):
        # only image 1 holds the gt; the image-0 prediction sorts first on
        # the tie, so the ranking is FP then TP: AP = 1/2
        records = [FakeRecord(0, ()), FakeRecord(1, (gt(1, (0, 0, 50, 50)),))]
        preds = [pred(1, 1, 0.5, (0, 0, 50, 50)),
                 pred(0, 1, 0.5, (0, 0, 50, 50))]
        assert average_precision(preds, records, 1, 0.5) == 0.5

    def test_highest_iou_gt_wins(self):
        # one prediction overlapping two gts takes the closer one; the
        # second prediction then matches the remaining gt
        records = [FakeRecord(0, (gt(1, (0, 0, 100, 100)),
                                  gt(1, (60, 0, 160, 100))))]
        preds = [pred(0, 1, 0.9, (10, 0, 110, 100)),
                 pred(0, 1, 0.8, (10, 0, 110, 100))]
        # first pred: IoU 0.818 vs 0.333 -> takes gt 0; second matches gt 1
        # at 0.333 < 0.5 -> FP at threshold 0.5
        assert average_precision(preds, records, 1, 0.5) == 0.5

    def test_no_predictions_is_zero(self):
        records = [FakeRecord(0, (gt(1, (0, 0, 50, 50)),))]
        assert average_precision([], records, 1, 0.5) == 0.0

    def test_zero_gt_class_is_absent(self):
        records = [FakeRecord(0, (gt(1, (0, 0, 50, 50)),))]
        preds = [pred(0, 2, 0.9, (0, 0, 50, 50))]
        assert average_precision(preds, records, 2, 0.5) is None

    def test_matching_stays_inside_the_image(self):
        # a perfect box in the wrong image must not match
        records = [FakeRecord(0, (gt(1, (0, 0, 50, 50)),)), FakeRecord(1, ())]
        preds = [pred(1, 1, 0.9, (0, 0, 50, 50))]
        assert average_precision(preds, records, 1, 0.5) == 0.0


def oracle_average_precision(predictions, records, class_id, iou_threshold,
                             kind="bbox"):
    """Exact-rational reimplementation: exhaustive candidate scan per
    prediction and Fraction precision/recall arithmetic."""
    gts = {}
    for record in records:
        for j, g in enumerate(record.gt_objects):
            if g.class_id == class_id:
                gts.setdefault(record.image_id, []).append(g)
    num_gts = sum(len(v) for v in gts.values())
    if num_gts == 0:
        return None
    order = sorted(
        [i for i, p in enumerate(predictions) if p.class_id == class_id],
        key=lambda i: (-predictions[i].score, predictions[i].image_id, i))
    taken = set()
    flags = []
    for i in order:
        p = predictions[i]
        best, best_iou = None, 0.0
        for j, g in enumerate(gts.get(p.image_id, [])):
            if (p.image_id, j) in taken:
                continue
            if kind == "bbox":
                ov = iou(p.box, g.box)
            else:
                ov = mask_iou(p.mask, g.mask) if p.mask.area else 0.0
            if ov >= iou_threshold and ov > best_iou:
                best, best_iou = j, ov
        if best is not None:
            taken.add((p.image_id, best))
        flags.append(best is not None)
    tp = fp = 0
    points = []
    for hit in flags:
        tp, fp = tp + hit, fp + (not hit)
        points.append((Fraction(tp, num_gts), Fraction(tp, tp + fp)))
    area = Fraction(0)
    prev_recall = Fraction(0)
    for k, (recall, _) in enumerate(points):
        if recall > prev_recall:
            envelope = max(p for r, p in points[k:])
            area += (recall - prev_recall) * envelope
            prev_recall = recall
    return float(area)


def random_instance(rng, num_classes=2):
    """Toy dataset whose gts are far apart, so every prediction overlaps at
    most one gt above any threshold and the greedy match is unambiguous."""
    records = []
    preds = []
    centers = [(60, 60), (60, 220), (220, 60), (220, 220)]
    for image_id in range(int(rng.integers(1, 3))):
        gts = []
        slots = rng.permutation(len(centers))[:int(rng.integers(1, 4))]
        for slot in slots:
            cx, cy = centers[slot]
            w, h = rng.integers(30, 60, size=2)
            cls = int(rng.integers(0, num_classes))
            gts.append(gt(cls, (cx - w, cy - h, cx + w, cy + h)))
        records.append(FakeRecord(image_id, tuple(gts)))
        for g in gts:
            if len(preds) >= 5:
                break
            x1, y1, x2, y2 = g.box.as_array()
            jitter = rng.integers(-10, 11, size=4)
            coords = (x1 + jitter[0], y1 + jitter[1],
                      x2 + jitter[2], y2 + jitter[3])
            preds.append(pred(image_id, g.class_id,
                              float(rng.uniform(0.1, 1.0)), coords))
    while len(preds) < 5 and records:
        image_id = int(rng.integers(0, len(records)))
        x1, y1 = rng.integers(0, 250, size=2)
        preds.append(pred(image_id, int(rng.integers(0, num_classes)),
                          float(rng.uniform(0.1, 1.0)),
                          (x1, y1, x1 + 40, y1 + 40)))
    return records, preds


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_instances_match_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        records, preds = random_instance(rng)
        for class_id in (0, 1):
            for thr in (0.5, 0.7):
                for kind in ("bbox", "segm"):
                    got = average_precision(preds, records, class_id,
                                            thr, kind)
                    want = oracle_average_precision(preds, records, class_id,
                                                    thr, kind)
                    if want is None:
                        assert got is None
                    else:
                        assert got == pytest.approx(want, abs=1e-9)

    def test_tied_scores_match_the_oracle(self):
        records = [FakeRecord(0, (gt(0, (10, 10, 60, 60)),)),
                   FakeRecord(1, (gt(0, (10, 10, 60, 60)),))]
        preds = [pred(1, 0, 0.5, (10, 10, 60, 60)),
                 pred(0, 0, 0.5, (12, 12, 62, 62)),
                 pred(0, 0, 0.5, (200, 200, 240, 240))]
        got = average_precision(preds, records, 0, 0.5)
        want = oracle_average_precision(preds, records, 0, 0.5)
        assert got == pytest.approx(want, abs=1e-9)


def two_class_world():
    records = [
        FakeRecord(0, (gt(1, (10, 10, 70, 70)), gt(2, (150, 150, 220, 210)))),
        FakeRecord(1, (gt(1, (40, 200, 120, 260)),)),
    ]
    perfect = [pred(r.image_id, g.class_id, 0.9, tuple(g.box.as_array()))
               for r in records for g in r.gt_objects]
    return records, perfect


class TestEvaluate:
    def test_perfect_predictions_score_one_everywhere(self):
        records, preds = two_class_world()
        report = evaluate(preds, records)
        assert report.class_ids == (1, 2)
        for kind in ("bbox", "segm"):
            for thr in (0.5, 0.7):
                assert report.mean_ap(kind, thr) == 1.0
                for n in (1, 2):
                    assert report.ap(kind, thr, n) == 1.0

    def test_counts_are_reported(self):
        records, preds = two_class_world()
        preds = preds + [pred(0, 1, 0.1, (250, 250, 300, 300))]
        report = evaluate(preds, records)
        cell = report.scores[("bbox", 0.5)]
        assert cell[1].matched == 2
        assert cell[1].unmatched == 1
        assert cell[1].num_gts == 2
        assert cell[2].matched == 1
        assert cell[2].unmatched == 0

    def test_empty_predictions_score_zero(self):
        records, _ = two_class_world()
        report = evaluate([], records)
        for kind in ("bbox", "segm"):
            for thr in (0.5, 0.7):
                assert report.mean_ap(kind, thr) == 0.0

    def test_box_filling_masks_tie_bbox_and_segm(self):
        # integer box corners make the pixel raster land exactly on the
        # box, so overlaps (and hence every AP) agree between the kinds
        records, _ = two_class_world()
        rng = np.random.default_rng(3)
        preds = []
        for r in records:
            for g in r.gt_objects:
                x1, y1, x2, y2 = (int(v) for v in g.box.as_array())
                d = [int(v) for v in rng.integers(-8, 9, size=4)]
                coords = (x1 + d[0], y1 + d[1], x2 + d[2], y2 + d[3])
                preds.append(pred(r.image_id, g.class_id,
                                  float(rng.uniform()), coords))
        preds.append(pred(0, 1, 0.05, (200, 20, 260, 80)))
        report = evaluate(preds, records)
        for thr in (0.5, 0.7):
            assert report.mean_ap("bbox", thr) == \
                pytest.approx(report.mean_ap("segm", thr), abs=1e-12)

    def test_monotone_score_transform_keeps_ap(self):
        rng = np.random.default_rng(11)
        records, preds = random_instance(rng)
        rescaled = [InstancePrediction(p.image_id, p.class_id,
                                       0.5 * p.score + 3.0, p.box, p.mask)
                    for p in preds]
        before = evaluate(preds, records)
        after = evaluate(rescaled, records)
        assert before.means == after.means

    def test_trailing_false_positive_never_helps(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            records, preds = random_instance(rng)
            floor_score = min(p.score for p in preds) - 0.05
            extra = preds + [pred(records[0].image_id, 0, floor_score,
                                  (260, 260, 300, 300))]
            before = evaluate(preds, records)
            after = evaluate(extra, records)
            for key, value in before.means.items():
                assert after.means[key] <= value + 1e-12

    def test_unknown_class_predictions_are_ignored(self):
        records, preds = two_class_world()
        noisy = preds + [pred(0, 9, 0.99, (10, 10, 70, 70))]
        report = evaluate(noisy, records)
        assert report.class_ids == (1, 2)
        assert report.mean_ap("bbox", 0.5) == 1.0

    def test_rows_are_deterministic(self):
        records, preds = two_class_world()
        a = evaluate(preds, records).rows()
        b = evaluate(preds, records).rows()
        assert a == b
        assert len(a) == 4 * 3  # 2 kinds x 2 thresholds x (2 classes + mean)

    def test_segm_requires_masks(self):
        records, _ = two_class_world()
        bare = [InstancePrediction(0, 1, 0.9, Box(10, 10, 70, 70))]
        with pytest.raises(ValueError, match="mask"):
            evaluate(bare, records)
        # class 1 has two gts; the lone perfect box recovers half of them
        report = evaluate(bare, records, kinds=("bbox",))
        assert report.ap("bbox", 0.5, 1) == 0.5

    def test_duplicate_image_ids_rejected(self):
        records = [FakeRecord(0, ()), FakeRecord(0, ())]
        with pytest.raises(ValueError, match="duplicate"):
            evaluate([], records)

    def test_argument_validation(self):
        records, preds = two_class_world()
        with pytest.raises(ValueError, match="kind"):
            evaluate(preds, records, kinds=("boxes",))
        with pytest.raises(ValueError, match="finite"):
            InstancePrediction(0, 1, float("nan"), Box(0, 0, 10, 10))
