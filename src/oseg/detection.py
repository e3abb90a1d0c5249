"""On-line detection module: per-class region classification + refinement.

One binary kernel classifier and one four-output ridge regressor per
class, over per-region feature vectors.  A region is a positive for
class n when it overlaps a class-n ground truth at IoU > 0.6 and a
negative when it stays below 0.3 against every class-n ground truth;
images without class-n objects contribute through the reservoir's
per-image buffers instead of explicit negatives.

Classes are independent: there is no softmax or cross-class
suppression, so one region may legitimately yield detections for
several classes.  :func:`detect` returns the
:class:`~oseg.evaluation.InstancePrediction`s that evaluation scores,
without masks; inference attaches those.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluation import InstancePrediction
from .geometry import (Box, apply_targets, box_array, encode_targets,
                       iou_matrix, nms)
from .incremental import DetectionReservoir, UntrainableClassError
from .kernels import train_rls
from .minibootstrap import run_minibootstrap

# labeling policy: classification sides and the regression ridge
POS_IOU = 0.6
NEG_IOU = 0.3
REG_LAM = 1e-6

# the class classifiers' kernel width and ridge
SIGMA = 5.0
LAM = 1e-5

# inference: score cut, per-class suppression overlap and output cap
SCORE_THRESHOLD = 0.0
NMS_IOU = 0.3
MAX_DETECTIONS = 100


@dataclass
class OnlineDetectionModel:
    classifiers: dict
    regressors: dict

    def __post_init__(self):
        if set(self.classifiers) != set(self.regressors):
            raise ValueError("classifier and regressor class sets differ")

    @property
    def class_ids(self) -> tuple:
        return tuple(sorted(self.classifiers))


def detection_labeler(class_ids):
    """Per-record labeler keyed by class id.

    Yields ``{n: (positives, negatives, reg_features, reg_targets)}``.
    The regression rows are exactly the positives, each paired with the
    offsets to its best class-n ground truth.  On an image without class-n
    ground truths every side is reported empty (the reservoir buffer
    substitutes for the negatives); explicit negatives exist only where
    the class is present.
    """
    class_ids = tuple(class_ids)

    def labeler(record):
        features, boxes = record.proposal_features, record.proposal_boxes
        out = {}
        for n in class_ids:
            gts = box_array(g.box for g in record.gt_objects if g.class_id == n)
            if gts.shape[0] == 0 or features.shape[0] == 0:
                out[n] = ((), (), (), ())
                continue
            overlap = iou_matrix(boxes, gts)
            best = overlap.max(axis=1)
            sel = best > POS_IOU
            positives, targets = features[sel], ()
            if sel.any():
                targets = encode_targets(boxes[sel], gts[overlap[sel].argmax(axis=1)])
            out[n] = (positives, features[best < NEG_IOU], positives, targets)
        return out

    return labeler


def detection_incremental_update(reservoir: DetectionReservoir, records,
                                 class_ids) -> None:
    """Absorb a sequence into the detection reservoir; ``class_ids`` is
    the full set trained after this update."""
    reservoir.update(records, detection_labeler(class_ids))


def train_detection_from_reservoir(
    reservoir: DetectionReservoir,
    seed,
) -> OnlineDetectionModel:
    """Mine per-class classifiers from the reservoir and fit regressors.

    Unlike the proposal module, a class that cannot be trained is an
    error: callers asked for it by name.  Any class without positives,
    new or old, fails here.
    """
    starved = [n for n, p in reservoir.positives.items() if p.shape[0] == 0]
    if starved:
        raise UntrainableClassError(starved)
    result = run_minibootstrap(reservoir, seed)
    if result.failures:
        raise RuntimeError(f"detection training failed: {result.failures}")
    regressors = {
        n: train_rls(reservoir.reg_features[n], reservoir.reg_targets[n], REG_LAM)
        for n in result.classifiers
    }
    return OnlineDetectionModel(result.classifiers, regressors)


def detect(model: OnlineDetectionModel, record) -> list:
    """Classify and refine the record's regions; returns
    ``InstancePrediction``s without masks, best first.

    Each class scores every region independently; scores below
    ``SCORE_THRESHOLD`` are dropped, the survivors' boxes are refined by
    the class regressor and suppressed per class at ``NMS_IOU``.  All
    classes' survivors are then ranked by descending score, class id and
    proposal index, and the first ``MAX_DETECTIONS`` are returned.
    """
    features, boxes = record.proposal_features, record.proposal_boxes
    if features.shape[0] == 0:
        return []
    survivors = []  # (class id, proposal indices, scores, refined boxes)
    for n in sorted(model.classifiers):
        scores = model.classifiers[n].decision_values(features)
        keep = np.nonzero(scores >= SCORE_THRESHOLD)[0]
        if keep.size == 0:
            continue
        offsets = model.regressors[n].predict(features[keep])
        refined, ok = apply_targets(boxes[keep], offsets, record.image_size)
        keep, refined = keep[ok], refined[ok]
        if keep.size == 0:
            continue
        kept = nms(refined, scores[keep], NMS_IOU)
        survivors.append((np.full(kept.size, n), keep[kept],
                          scores[keep[kept]], refined[kept]))
    if not survivors:
        return []
    class_ids, indices, scores, refined = (
        np.concatenate(column) for column in zip(*survivors))
    order = np.lexsort((indices, class_ids, -scores))[:MAX_DETECTIONS]
    return [InstancePrediction(image_id=record.image_id,
                               class_id=int(class_ids[i]),
                               score=float(scores[i]),
                               box=Box.from_array(refined[i]))
            for i in order]
