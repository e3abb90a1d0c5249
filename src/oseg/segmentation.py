"""On-line segmentation module: per-class per-pixel kernel classifiers.

Each class gets one binary kernel classifier over per-pixel features
sampled inside that class's ground-truth boxes: mask pixels are
positives, in-box background pixels are negatives, and both sides are
independently subsampled per object by a fixed fraction.  There is no
hard-negative mining here; in-box pixel sets are small and balanced
enough for a plain fit.

Mask prediction scores the s x s feature grid of a box, bilinearly
resizes the score grid to the box's pixel window and binarizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates

from .geometry import BinaryMask, Box, pixel_bounds
from .incremental import UntrainableClassError, subsample_rows
from .kernels import train_kernel_classifier
from .seeding import rng_for

# training: kernel width, ridge and the per-object pixel fraction
SIGMA = 5.0
LAM = 1e-5
PIXEL_FRACTION = 0.3

# inference: a pixel whose resized score reaches this is in the mask
MASK_THRESHOLD = 0.0


class UntrainedClassError(LookupError):
    """Mask prediction was asked for a class the model never trained."""


@dataclass
class OnlineSegmentationModel:
    classifiers: dict

    @property
    def class_ids(self) -> tuple:
        return tuple(sorted(self.classifiers))


def build_segmentation_training_sets(records, class_ids, seed) -> dict:
    """Per-class pixel features from ground-truth boxes only.

    Every ground truth of a requested class contributes its mask pixels
    as positives and its in-box background pixels as negatives, each
    side subsampled independently to floor(PIXEL_FRACTION * count)
    (never to zero while any pixel exists).  Pixels from other classes'
    boxes are never mixed in.

    Raises:
        UntrainableClassError: for classes that end up with no positives
            or no negatives (e.g. every mask fills its whole box).
    """
    class_ids = tuple(class_ids)
    wanted = set(class_ids)
    pos: dict[int, list] = {n: [] for n in class_ids}
    neg: dict[int, list] = {n: [] for n in class_ids}
    for record in records:
        for k, gt in enumerate(record.gt_objects):
            if gt.class_id not in wanted:
                continue
            flat = gt.mask_features.reshape(-1, gt.mask_features.shape[-1])
            labels = gt.pixel_labels.ravel()
            for side, rows, store in (("pos", flat[labels], pos),
                                      ("neg", flat[~labels], neg)):
                keep = max(1, math.floor(PIXEL_FRACTION * rows.shape[0]))
                rng = rng_for(seed, "seg-pixels", record.image_id, k, side)
                store[gt.class_id].append(subsample_rows(rows, keep, rng))
    out = {}
    starved = []
    for n in class_ids:
        p = np.concatenate(pos[n]) if pos[n] else np.empty((0, 0))
        q = np.concatenate(neg[n]) if neg[n] else np.empty((0, 0))
        if p.shape[0] == 0 or q.shape[0] == 0:
            starved.append(n)
        out[n] = (p, q)
    if starved:
        raise UntrainableClassError(starved, context="segmentation")
    return out


def train_online_segmentation(
    records,
    class_ids,
    num_centers: int,
    seed,
) -> OnlineSegmentationModel:
    """Fit one per-pixel classifier per requested class on
    ``PIXEL_FRACTION`` of each object's pixels."""
    sets = build_segmentation_training_sets(records, class_ids, seed)
    classifiers = {}
    for n in sorted(sets):
        p, q = sets[n]
        classifiers[n] = train_kernel_classifier(
            p,
            q,
            num_centers=min(num_centers, p.shape[0] + q.shape[0]),
            sigma=SIGMA,
            lam=LAM,
            seed=rng_for(seed, "seg-centers", n),
        )
    return OnlineSegmentationModel(classifiers)


def extend_segmentation(
    model: OnlineSegmentationModel,
    records,
    new_class_ids,
    num_centers: int,
    seed,
) -> OnlineSegmentationModel:
    """Add classifiers for new classes; existing ones are carried over.

    The returned model shares the old per-class classifier objects, so
    extending never perturbs what earlier classes predict.
    """
    new_class_ids = tuple(new_class_ids)
    clash = [n for n in new_class_ids if n in model.classifiers]
    if clash:
        raise ValueError(f"classes already trained: {clash}")
    grown = train_online_segmentation(records, new_class_ids, num_centers, seed)
    merged = dict(model.classifiers)
    merged.update(grown.classifiers)
    return OnlineSegmentationModel(merged)


def predict_mask(
    model: OnlineSegmentationModel,
    class_id: int,
    box: Box,
    mask_features: np.ndarray,
    image_size,
) -> BinaryMask:
    """Binary mask over the box's pixel window for one class.

    The s x s per-pixel scores are bilinearly resized to the window and
    thresholded at ``MASK_THRESHOLD``.  The result depends on the box
    only through its pixel size, so translating a box translates its
    mask unchanged.
    """
    clf = model.classifiers.get(class_id)
    if clf is None:
        raise UntrainedClassError(f"class {class_id} has no trained mask classifier")
    s = mask_features.shape[0]
    if mask_features.shape[:2] != (s, s) or mask_features.ndim != 3:
        raise ValueError(f"expected (s, s, f) mask features, got {mask_features.shape}")
    scores = clf.decision_values(mask_features.reshape(s * s, -1)).reshape(s, s)
    x1, y1, x2, y2 = pixel_bounds(box, image_size)
    width, height = x2 - x1, y2 - y1
    gy = (np.arange(height) + 0.5) * (s / height) - 0.5
    gx = (np.arange(width) + 0.5) * (s / width) - 0.5
    grid = np.meshgrid(gy, gx, indexing="ij")
    resized = map_coordinates(scores, grid, order=1, mode="nearest")
    return BinaryMask((x1, y1), resized >= MASK_THRESHOLD)
