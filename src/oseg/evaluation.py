"""VOC-style average precision over boxes and instance masks.

Scoring uses the all-point interpolation: predictions are ranked by
descending score, greedily matched to ground truth within their own image,
and AP is the area under the monotonized precision-recall curve.  Classes
with no ground truth anywhere are excluded from the mean rather than
reported as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oseg import geometry
from oseg.geometry import BinaryMask, Box

KINDS = ("bbox", "segm")
# the IoU thresholds that every report scores at
THRESHOLDS = (0.5, 0.7)


@dataclass(frozen=True)
class InstancePrediction:
    """One scored detection, optionally with a pixel mask for its box."""

    image_id: int
    class_id: int
    score: float
    box: Box
    mask: BinaryMask | None = None

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError("prediction score must be finite")


@dataclass(frozen=True)
class ClassScore:
    """Per-class tally at one (kind, threshold) cell."""

    ap: float
    matched: int
    unmatched: int
    num_gts: int


@dataclass(frozen=True)
class EvalReport:
    """Per-class AP and mean AP for every requested (kind, threshold)."""

    kinds: tuple[str, ...]
    thresholds: tuple[float, ...]
    class_ids: tuple[int, ...]
    scores: dict
    means: dict

    def ap(self, kind: str, threshold: float, class_id: int) -> float:
        return self.scores[(kind, float(threshold))][class_id].ap

    def mean_ap(self, kind: str, threshold: float) -> float:
        return self.means[(kind, float(threshold))]

    def rows(self):
        """Flat (kind, threshold, class_id, ap, matched, unmatched, num_gts)
        rows followed by one mean row per cell, in deterministic order."""
        out = []
        for kind in self.kinds:
            for thr in self.thresholds:
                cell = self.scores[(kind, thr)]
                for n in self.class_ids:
                    s = cell[n]
                    out.append((kind, thr, n, s.ap, s.matched, s.unmatched,
                                s.num_gts))
                out.append((kind, thr, None, self.means[(kind, thr)],
                            sum(cell[n].matched for n in self.class_ids),
                            sum(cell[n].unmatched for n in self.class_ids),
                            sum(cell[n].num_gts for n in self.class_ids)))
        return out


def _overlap(pred: InstancePrediction, gt, kind: str) -> float:
    if kind == "bbox":
        return geometry.iou(pred.box, gt.box)
    if pred.mask is None:
        raise ValueError("segmentation scoring needs predictions with masks")
    if pred.mask.area == 0:
        # empty prediction never overlaps; avoids the both-empty error
        return 0.0
    return geometry.mask_iou(pred.mask, gt.mask)


def _sorted_class_predictions(predictions, class_id: int):
    mine = [(i, p) for i, p in enumerate(predictions)
            if p.class_id == class_id]
    mine.sort(key=lambda item: (-item[1].score, item[1].image_id, item[0]))
    return [p for _, p in mine]


def _match_predictions(preds, gts_by_image, iou_threshold: float, kind: str):
    """Greedy TP/FP flags: each prediction takes the highest-IoU unmatched
    ground truth of its image at or above the threshold."""
    taken = set()
    flags = np.zeros(len(preds), dtype=bool)
    for i, pred in enumerate(preds):
        best = -1
        best_iou = 0.0
        for j, gt in enumerate(gts_by_image.get(pred.image_id, ())):
            if (pred.image_id, j) in taken:
                continue
            ov = _overlap(pred, gt, kind)
            if ov >= iou_threshold and ov > best_iou:
                best = j
                best_iou = ov
        if best >= 0:
            taken.add((pred.image_id, best))
            flags[i] = True
    return flags


def _interpolated_area(recall: np.ndarray, precision: np.ndarray) -> float:
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 1, 0, -1):
        mpre[i - 1] = max(mpre[i - 1], mpre[i])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def _gts_by_image(records, class_id: int) -> dict:
    out = {}
    for record in records:
        mine = [g for g in record.gt_objects if g.class_id == class_id]
        if mine:
            out[record.image_id] = mine
    return out


def _score_class(predictions, records, class_id: int, iou_threshold: float,
                 kind: str):
    gts = _gts_by_image(records, class_id)
    num_gts = sum(len(v) for v in gts.values())
    if num_gts == 0:
        return None
    preds = _sorted_class_predictions(predictions, class_id)
    if not preds:
        return ClassScore(0.0, 0, 0, num_gts)
    flags = _match_predictions(preds, gts, iou_threshold, kind)
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / num_gts
    precision = tp / (tp + fp)
    ap = _interpolated_area(recall, precision)
    return ClassScore(ap, int(tp[-1]), int(fp[-1]), num_gts)


def average_precision(predictions, records, class_id: int,
                      iou_threshold: float = 0.5, kind: str = "bbox"):
    """AP for one class, or ``None`` when the records hold no such ground
    truth (the class then does not participate in any mean)."""
    if kind not in KINDS:
        raise ValueError(f"unknown overlap kind {kind!r}")
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError("IoU threshold must lie in (0, 1]")
    score = _score_class(predictions, records, class_id, iou_threshold, kind)
    return None if score is None else score.ap


def evaluate(predictions, records, kinds=KINDS) -> EvalReport:
    """Score predictions against the records at every kind and every
    threshold of ``THRESHOLDS``.

    Only classes with at least one ground truth instance are scored; the
    mean AP averages over exactly those classes.
    """
    records = list(records)
    predictions = list(predictions)
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown overlap kind {kind!r}")
    seen = set()
    for record in records:
        if record.image_id in seen:
            raise ValueError(f"duplicate image id {record.image_id}")
        seen.add(record.image_id)
    if "segm" in kinds:
        for p in predictions:
            if p.mask is None:
                raise ValueError(
                    "segmentation scoring needs predictions with masks")
    class_ids = sorted({g.class_id for r in records for g in r.gt_objects})
    scores = {}
    means = {}
    for kind in kinds:
        for thr in THRESHOLDS:
            cell = {}
            for n in class_ids:
                cell[n] = _score_class(predictions, records, n, thr, kind)
            scores[(kind, thr)] = cell
            aps = [cell[n].ap for n in class_ids]
            means[(kind, thr)] = sum(aps) / len(aps) if aps else 0.0
    return EvalReport(kinds=kinds, thresholds=THRESHOLDS,
                      class_ids=tuple(class_ids), scores=scores, means=means)
