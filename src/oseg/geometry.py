"""Boxes, anchors, IoU, NMS, masks and the box-offset parameterization.

Boxes are continuous ``[x1, y1, x2, y2]`` corner coordinates with
``x2 > x1`` and ``y2 > y1``.  Array functions take float64 ``(n, 4)``
arrays; the :class:`Box` dataclass is the scalar record-level form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with strictly positive extent."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x2 > self.x1 and self.y2 > self.y1):
            raise ValueError(f"degenerate box {(self.x1, self.y1, self.x2, self.y2)}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "Box":
        x1, y1, x2, y2 = (float(v) for v in a)
        return Box(x1, y1, x2, y2)


def box_array(boxes) -> np.ndarray:
    """``(n, 4)`` corners of a sequence of :class:`Box`, also when it is empty."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def _as_boxes(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim == 1:
        out = out[None, :]
    if out.ndim != 2 or out.shape[1] != 4:
        raise ValueError(f"expected (n, 4) box array, got shape {out.shape}")
    return out


def box_areas(boxes) -> np.ndarray:
    b = _as_boxes(boxes)
    return (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])


def iou_matrix(a, b) -> np.ndarray:
    """Pairwise IoU between two box arrays, shape ``(len(a), len(b))``."""
    a = _as_boxes(a)
    b = _as_boxes(b)
    lt = np.maximum(a[:, None, :2], b[None, :, :2])
    rb = np.minimum(a[:, None, 2:], b[None, :, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[:, :, 0] * wh[:, :, 1]
    union = box_areas(a)[:, None] + box_areas(b)[None, :] - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(union > 0.0, inter / union, 0.0)
    return out


def iou(a, b) -> float:
    """IoU between two boxes (Box instances or length-4 sequences)."""
    if isinstance(a, Box):
        a = a.as_array()
    if isinstance(b, Box):
        b = b.as_array()
    return float(iou_matrix(a, b)[0, 0])


def encode_targets(src, dst) -> np.ndarray:
    """Offsets that move each ``src`` box onto the matching ``dst`` box.

    The parameterization is translation of the center relative to the source
    size plus log size ratios: ``(dx/w, dy/h, log(w'/w), log(h'/h))``.
    """
    src = _as_boxes(src)
    dst = _as_boxes(dst)
    sw = src[:, 2] - src[:, 0]
    sh = src[:, 3] - src[:, 1]
    scx = src[:, 0] + 0.5 * sw
    scy = src[:, 1] + 0.5 * sh
    dw = dst[:, 2] - dst[:, 0]
    dh = dst[:, 3] - dst[:, 1]
    dcx = dst[:, 0] + 0.5 * dw
    dcy = dst[:, 1] + 0.5 * dh
    t = np.empty_like(src)
    t[:, 0] = (dcx - scx) / sw
    t[:, 1] = (dcy - scy) / sh
    t[:, 2] = np.log(dw / sw)
    t[:, 3] = np.log(dh / sh)
    return t


def apply_targets(src, t, image_size) -> tuple[np.ndarray, np.ndarray]:
    """Decode offsets into boxes clipped to the image.

    Returns ``(boxes, valid)`` where ``valid`` flags rows that survived with
    positive extent after clipping; invalid rows hold unusable coordinates.
    """
    src = _as_boxes(src)
    t = np.asarray(t, dtype=np.float64)
    if t.shape != src.shape:
        raise ValueError(f"target shape {t.shape} does not match boxes {src.shape}")
    w, h = float(image_size[0]), float(image_size[1])
    sw = src[:, 2] - src[:, 0]
    sh = src[:, 3] - src[:, 1]
    cx = src[:, 0] + 0.5 * sw + t[:, 0] * sw
    cy = src[:, 1] + 0.5 * sh + t[:, 1] * sh
    with np.errstate(over="ignore"):
        ow = sw * np.exp(t[:, 2])
        oh = sh * np.exp(t[:, 3])
    out = np.empty_like(src)
    out[:, 0] = np.clip(cx - 0.5 * ow, 0.0, w)
    out[:, 1] = np.clip(cy - 0.5 * oh, 0.0, h)
    out[:, 2] = np.clip(cx + 0.5 * ow, 0.0, w)
    out[:, 3] = np.clip(cy + 0.5 * oh, 0.0, h)
    valid = (out[:, 2] > out[:, 0]) & (out[:, 3] > out[:, 1])
    valid &= np.isfinite(out).all(axis=1)
    return out, valid


def nms(boxes, scores, iou_threshold: float, limit: int | None = None) -> np.ndarray:
    """Greedy non-maximum suppression; returns kept indices.

    Boxes are visited in descending score order (ties broken by lower index)
    and kept unless they overlap an already kept box above the threshold.
    The pass stops once ``limit`` boxes are kept, so the result equals the
    first ``limit`` indices of the unlimited one.  IoU rows are computed
    only for kept boxes, against the boxes after them in score order.
    """
    boxes = _as_boxes(boxes)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (boxes.shape[0],):
        raise ValueError("scores must be 1-d and match the box count")
    order = np.argsort(-scores, kind="stable")
    x1, y1, x2, y2 = np.ascontiguousarray(boxes[order].T)
    areas = (x2 - x1) * (y2 - y1)
    keep = []
    suppressed = np.zeros(order.size, dtype=bool)
    pos = 0
    while order.size and (limit is None or len(keep) < limit):
        keep.append(order[pos])
        later = suppressed[pos + 1:]
        if not later.size:
            break
        rest = slice(pos + 1, None)
        w = np.maximum(np.minimum(x2[pos], x2[rest]) - np.maximum(x1[pos], x1[rest]), 0.0)
        h = np.maximum(np.minimum(y2[pos], y2[rest]) - np.maximum(y1[pos], y1[rest]), 0.0)
        inter = w * h
        union = areas[pos] + areas[rest] - inter
        with np.errstate(invalid="ignore", divide="ignore"):
            ov = np.where(union > 0.0, inter / union, 0.0)
        later |= ov > iou_threshold
        step = int(later.argmin())
        if later[step]:
            break  # every later box is suppressed
        pos += 1 + step
    return np.array(keep, dtype=np.int64)


@dataclass(frozen=True)
class AnchorGrid:
    """Regular anchor lattice over a fixed-size image.

    One anchor per shape is centered on every feature-map cell; the map is
    ``ceil(image_size / stride)`` cells on each side.  Anchors are stored
    location-major (all shapes of cell 0, then cell 1, ...), rows scanned
    left to right, top to bottom.
    """

    image_size: tuple[int, int] = (320, 320)
    stride: int = 16
    anchor_shapes: tuple[tuple[float, float], ...] = (
        (64.0, 64.0),
        (96.0, 48.0),
        (48.0, 96.0),
    )

    def __post_init__(self):
        if self.stride < 1 or self.image_size[0] < 1 or self.image_size[1] < 1:
            raise ValueError("stride and image size must be positive")
        if not self.anchor_shapes:
            raise ValueError("need at least one anchor shape")

    @property
    def map_size(self) -> tuple[int, int]:
        """Feature-map size as ``(rows, cols)``."""
        return (
            -(-self.image_size[1] // self.stride),
            -(-self.image_size[0] // self.stride),
        )

    @property
    def num_locations(self) -> int:
        r, c = self.map_size
        return r * c

    @property
    def num_shapes(self) -> int:
        return len(self.anchor_shapes)

    @cached_property
    def anchor_boxes(self) -> np.ndarray:
        """All anchors as a ``(num_locations * num_shapes, 4)`` array (not
        clipped)."""
        rows, cols = self.map_size
        cy, cx = np.mgrid[0:rows, 0:cols].astype(np.float64)
        cx = (cx.ravel() + 0.5) * self.stride
        cy = (cy.ravel() + 0.5) * self.stride
        shapes = np.asarray(self.anchor_shapes, dtype=np.float64)
        half_w = 0.5 * shapes[:, 0]
        half_h = 0.5 * shapes[:, 1]
        out = np.empty((self.num_locations, len(shapes), 4), dtype=np.float64)
        out[:, :, 0] = cx[:, None] - half_w[None, :]
        out[:, :, 1] = cy[:, None] - half_h[None, :]
        out[:, :, 2] = cx[:, None] + half_w[None, :]
        out[:, :, 3] = cy[:, None] + half_h[None, :]
        out = out.reshape(-1, 4)
        out.setflags(write=False)
        return out


def label_anchors(anchors, gts, pos_iou: float, neg_iou: float):
    """Assign a training label to every anchor against ground-truth boxes.

    An anchor is positive when its best IoU exceeds ``pos_iou``, negative
    when it falls below ``neg_iou``, and ignored in between.  Any ground
    truth left without a positive anchor claims its highest-IoU anchors
    (all ties) as positives so that no object goes unrepresented.

    Returns:
        labels: int8 array, +1 positive / -1 negative / 0 ignored.
        best_gt: index of each anchor's highest-IoU ground truth (-1 when
            there are no ground truths).
        best_iou: that IoU (0 when there are no ground truths).
    """
    anchors = _as_boxes(anchors)
    n = anchors.shape[0]
    gts = np.asarray(gts, dtype=np.float64).reshape(-1, 4)
    if gts.shape[0] == 0:
        return (
            np.full(n, -1, dtype=np.int8),
            np.full(n, -1, dtype=np.int64),
            np.zeros(n, dtype=np.float64),
        )
    ovr = iou_matrix(anchors, gts)
    best_gt = ovr.argmax(axis=1)
    best_iou = ovr[np.arange(n), best_gt]
    labels = np.zeros(n, dtype=np.int8)
    labels[best_iou > pos_iou] = 1
    labels[best_iou < neg_iou] = -1
    gt_best = ovr.max(axis=0)
    for g in np.nonzero(gt_best <= pos_iou)[0]:
        forced = np.nonzero(ovr[:, g] == gt_best[g])[0]
        labels[forced] = 1
    return labels, best_gt, best_iou


def pixel_bounds(box, image_size) -> tuple[int, int, int, int]:
    """Integer pixel window covered by a box, rounded half-up, >= 1 px.

    The window is ``(x1, y1, x2, y2)`` with exclusive upper bounds, clipped
    to the image; a sliver that rounds or clips to nothing is widened to a
    single pixel at the nearest valid position.
    """
    if isinstance(box, Box):
        box = box.as_array()
    bx1, by1, bx2, by2 = (float(v) for v in box)
    w, h = int(image_size[0]), int(image_size[1])

    def _side(lo: float, hi: float, limit: int) -> tuple[int, int]:
        a = int(np.floor(lo + 0.5))
        b = int(np.floor(hi + 0.5))
        a = min(max(a, 0), limit)
        b = min(max(b, 0), limit)
        if b <= a:
            if a >= limit:
                a = limit - 1
            b = a + 1
        return a, b

    ix1, ix2 = _side(bx1, bx2, w)
    iy1, iy2 = _side(by1, by2, h)
    return ix1, iy1, ix2, iy2


def ellipse_mask(width: int, height: int) -> np.ndarray:
    """Filled axis-aligned ellipse inscribed in a ``width x height`` window."""
    if width < 1 or height < 1:
        raise ValueError("mask window must be at least 1x1")
    y = (np.arange(height, dtype=np.float64) + 0.5) / height - 0.5
    x = (np.arange(width, dtype=np.float64) + 0.5) / width - 0.5
    return (x[None, :] ** 2 + y[:, None] ** 2) <= 0.25


@dataclass(frozen=True)
class BinaryMask:
    """Boolean pixel mask anchored at an integer image offset."""

    origin: tuple[int, int]
    bits: np.ndarray

    def __post_init__(self):
        if self.bits.dtype != np.bool_ or self.bits.ndim != 2:
            raise ValueError("mask bits must be a 2-d boolean array")

    @property
    def area(self) -> int:
        return int(self.bits.sum())

    def to_canvas(self, image_size) -> np.ndarray:
        """Paste onto a full-image boolean canvas (mask must fit inside)."""
        w, h = int(image_size[0]), int(image_size[1])
        x0, y0 = self.origin
        mh, mw = self.bits.shape
        if x0 < 0 or y0 < 0 or x0 + mw > w or y0 + mh > h:
            raise ValueError("mask extends outside the image")
        canvas = np.zeros((h, w), dtype=bool)
        canvas[y0:y0 + mh, x0:x0 + mw] = self.bits
        return canvas


def mask_iou(a: BinaryMask, b: BinaryMask) -> float:
    """IoU of two pixel masks in shared image coordinates; two empty masks
    are an error."""
    ax, ay = a.origin
    bx, by = b.origin
    ah, aw = a.bits.shape
    bh, bw = b.bits.shape
    x1 = max(ax, bx)
    y1 = max(ay, by)
    x2 = min(ax + aw, bx + bw)
    y2 = min(ay + ah, by + bh)
    inter = 0
    if x2 > x1 and y2 > y1:
        sub_a = a.bits[y1 - ay:y2 - ay, x1 - ax:x2 - ax]
        sub_b = b.bits[y1 - by:y2 - by, x1 - bx:x2 - bx]
        inter = int((sub_a & sub_b).sum())
    union = a.area + b.area - inter
    if union == 0:
        raise ValueError("mask IoU is undefined when both masks are empty")
    return inter / union
