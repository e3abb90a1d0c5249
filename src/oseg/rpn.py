"""On-line proposal module: kernel objectness plus box refinement.

The convolutional objectness and refinement layers of a region proposal
network are replaced by A kernel classifiers and A four-output ridge
regressor banks, one pair per anchor shape, all reading the same
unrolled location features.  Classifiers are trained with the
hard-negative bootstrapping loop; regressors fit anchor-to-box offsets
on locations whose anchor overlaps a ground truth at IoU >= 0.7.

At inference every (location, shape) pair is scored, its anchor box is
refined by the shape's regressor, and the survivors of score ranking
plus non-maximum suppression become the image's proposals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    AnchorGrid,
    apply_targets,
    box_array,
    encode_targets,
    label_anchors,
    nms,
)
from .incremental import RpnReservoir
from .kernels import train_rls
from .minibootstrap import run_minibootstrap

# labeling policy: classification sides, regression overlap, ridge
POS_IOU = 0.7
NEG_IOU = 0.3
REG_IOU = 0.7
REG_LAM = 1e-6

# the objectness classifiers' kernel width and ridge
SIGMA = 5.0
LAM = 1e-5

# inference: score ranking, suppression overlap and proposal cap
PRE_NMS_TOP_K = 1000
NMS_IOU = 0.7
POST_NMS_TOP_K = 300


@dataclass
class OnlineRpnModel:
    """A per-shape classifiers and regressor banks over one anchor grid.

    Shapes absent from ``classifiers`` were untrainable; their anchors
    score minus infinity and never surface in proposals.
    """

    grid: AnchorGrid
    classifiers: dict
    regressors: dict
    failures: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in self.classifiers:
            if not 0 <= key < self.grid.num_shapes:
                raise ValueError(f"classifier key {key} outside anchor shapes")


def _location_features(record, grid: AnchorGrid) -> np.ndarray:
    rows, cols = grid.map_size
    if record.rpn_map.shape[:2] != (rows, cols):
        raise ValueError(
            f"record {record.image_id} map {record.rpn_map.shape[:2]} "
            f"does not match grid {(rows, cols)}"
        )
    return record.rpn_map.reshape(grid.num_locations, -1)


def rpn_labeler(grid: AnchorGrid):
    """Per-record labeler keyed by anchor-shape index.

    Yields ``{a: (positives, negatives, reg_features, reg_targets)}``.
    Only anchors genuinely overlapping a ground truth (IoU >= REG_IOU)
    give offset-regression samples; low-overlap anchors promoted to
    classification positives as a fallback are excluded, since their
    offsets are outliers.
    """

    def labeler(record):
        feats = _location_features(record, grid)
        gts = box_array(g.box for g in record.gt_objects)
        labels, best_gt, best_iou = label_anchors(grid.anchor_boxes, gts, POS_IOU, NEG_IOU)
        out = {}
        for a in range(grid.num_shapes):
            shape = slice(a, None, grid.num_shapes)
            shape_labels = labels[shape]
            sel = best_iou[shape] >= REG_IOU
            targets = ()
            if sel.any():
                targets = encode_targets(grid.anchor_boxes[shape][sel], gts[best_gt[shape][sel]])
            out[a] = (feats[shape_labels == 1], feats[shape_labels == -1], feats[sel], targets)
        return out

    return labeler


def rpn_incremental_update(reservoir: RpnReservoir, records, grid) -> None:
    """Absorb a sequence into the proposal-module reservoir."""
    reservoir.update(records, rpn_labeler(grid))


def train_rpn_from_reservoir(
    reservoir: RpnReservoir,
    grid: AnchorGrid,
    seed,
) -> OnlineRpnModel:
    """Mine classifiers from the reservoir and fit regressor banks.

    Batch layout and kernel hyper-parameters come from the reservoir's
    own bootstrap config.  Untrainable shapes are skipped with a warning
    and recorded on the model.
    """
    result = run_minibootstrap(reservoir, seed)
    for key, reason in result.failures.items():
        warnings.warn(f"anchor shape {key} untrainable: {reason}", stacklevel=2)
    regressors = {}
    for key, x in reservoir.reg_features.items():
        if key in result.classifiers and x.shape[0]:
            regressors[key] = train_rls(x, reservoir.reg_targets[key], REG_LAM)
    return OnlineRpnModel(
        grid=grid,
        classifiers=result.classifiers,
        regressors=regressors,
        failures=result.failures,
    )


def propose(model: OnlineRpnModel, record) -> np.ndarray:
    """Score, refine and suppress every anchor; returns the kept boxes.

    The ``(n, 4)`` array is sorted by descending score, holds at most
    ``POST_NMS_TOP_K`` rows, and no two rows overlap beyond ``NMS_IOU``.
    """
    grid = model.grid
    feats = _location_features(record, grid)
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
    order = np.argsort(-flat_scores, kind="stable")[:PRE_NMS_TOP_K]
    order = order[np.isfinite(flat_scores[order])]
    if order.size == 0:
        return np.empty((0, 4))
    keep = nms(flat_boxes[order], flat_scores[order], NMS_IOU,
               limit=POST_NMS_TOP_K)
    return flat_boxes[order[keep]]
