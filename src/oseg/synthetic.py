"""Synthetic feature oracle standing in for a frozen CNN backbone.

Images are never rendered.  Each image is a deterministic layout of
elliptical objects, and every feature tensor is computed from closed
forms over that layout:

- location map: at each anchor-grid cell, the sum over objects of
  (best-anchor IoU with the object) times the object's class prototype;
- region vector for a box: sum over objects of IoU times the class
  prototype, plus ``max(0, 1 - sum IoU)`` of a background prototype;
- per-pixel grid for a box: the covering object's class prototype where
  the sample point falls inside an object mask, background elsewhere.

Gaussian noise with per-component scale ``noise / sqrt(dim)`` is added
to every tensor, seeded by image id (and, for box features, the box
quantized to 0.5 px), so any box featurized twice gets identical bytes.
Each tensor is computed in float64 and returned rounded once to
float32, the format the dataset stores, so a record in memory and the
same record read back from a file are equal.
Prototypes are orthonormal within each feature family, which makes the
noise-free problem exactly separable by nearest prototype.

Objects are placed on the anchor lattice (size within 2% of an anchor
shape, center within ~1.5 px of a lattice center) and pairwise disjoint
with a 4 px gap, so a correctly trained proposal module can localize
them from anchors alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .binio import value_of
from .feature_store import (CONTRACT, DatasetHeader, FeatureRecord, GtObject,
                            write_dataset)
from .geometry import (
    AnchorGrid,
    BinaryMask,
    Box,
    _as_boxes,
    box_array,
    ellipse_mask,
    iou_matrix,
    pixel_bounds,
)
from .seeding import rng_for

_PLACEMENT_TRIES = 60
_BACKGROUND_TRIES = 100
_BORDER_MARGIN = 2
_GAP = 4
# the generator keys a header stores beyond "kind", with their kinds
_GENERATOR_KEYS = {"seed": (int,), "noise": (float,),
                   "active_classes": (int, (0,)), "min_objects": (int,),
                   "max_objects": (int,), "proposals_per_gt": (int,),
                   "background_proposals": (int,)}


@dataclass(frozen=True)
class PlacedObject:
    class_id: int
    box: Box


def _quantized(coords: np.ndarray) -> list[tuple[str, str, str, str]]:
    """Noise-seed components of each ``(n, 4)`` box row.

    0.5 px quantization keeps the noise hash stable across float jitter.
    """
    cells = np.round(np.reshape(coords, (-1, 4)) * 2.0) / 2.0
    return [tuple("%.1f" % v for v in row) for row in cells.tolist()]


def _orthonormal_rows(count: int, dim: int, rng) -> np.ndarray:
    if count > dim:
        raise ValueError(f"cannot fit {count} orthonormal prototypes in dim {dim}")
    a = rng.normal(size=(dim, count))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))[None, :]
    return np.ascontiguousarray(q.T)


@dataclass
class SyntheticWorld:
    """Deterministic object layouts plus the feature formulas above.

    ``class_names`` fixes the prototype set; ``active_classes`` limits
    which of them actually appear in layouts, so a later class can be
    activated without disturbing any existing image or prototype.
    """

    class_names: tuple[str, ...]
    noise: float = 0.0
    seed: int = 0
    image_size: tuple[int, int] = (320, 320)
    stride: int = 16
    anchor_shapes: tuple[tuple[float, float], ...] = (
        (64.0, 64.0),
        (96.0, 48.0),
        (48.0, 96.0),
    )
    rpn_dim: int = 64
    det_dim: int = 64
    seg_dim: int = 64
    mask_grid: int = 14
    active_classes: tuple[int, ...] | None = None
    min_objects: int = 1
    max_objects: int = 3
    proposals_per_gt: int = 6
    background_proposals: int = 8

    grid: AnchorGrid = field(init=False, repr=False)
    _layouts: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        self.class_names = tuple(self.class_names)
        self.image_size = tuple(self.image_size)
        self.anchor_shapes = tuple(tuple(s) for s in self.anchor_shapes)
        if not self.class_names:
            raise ValueError("need at least one class")
        if not 0 <= self.noise < np.inf:  # NaN fails every comparison
            raise ValueError(f"noise must be finite and >= 0, got {self.noise!r}")
        if not 1 <= self.min_objects <= self.max_objects:
            raise ValueError("need 1 <= min_objects <= max_objects")
        if self.active_classes is None:
            self.active_classes = range(len(self.class_names))
        self.active_classes = tuple(self.active_classes)
        if not self.active_classes:
            raise ValueError("need at least one active class")
        for c in self.active_classes:
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"active_classes holds {c!r}, not a class index")
            if not 0 <= c < len(self.class_names):
                raise ValueError(f"active class {c} out of range")
        self.grid = AnchorGrid(image_size=self.image_size, stride=self.stride,
                               anchor_shapes=self.anchor_shapes)
        n = len(self.class_names)
        self._rpn_protos = _orthonormal_rows(
            n, self.rpn_dim, rng_for(self.seed, "prototypes", "rpn")
        )
        det = _orthonormal_rows(
            n + 1, self.det_dim, rng_for(self.seed, "prototypes", "det")
        )
        seg = _orthonormal_rows(
            n + 1, self.seg_dim, rng_for(self.seed, "prototypes", "seg")
        )
        self._det_protos, self._det_background = det[:n], det[n]
        self._seg_protos, self._seg_background = seg[:n], seg[n]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def prototypes(self, family: str) -> np.ndarray:
        return {
            "rpn": self._rpn_protos,
            "det": self._det_protos,
            "seg": self._seg_protos,
        }[family]

    def background_prototype(self, family: str) -> np.ndarray:
        return {"det": self._det_background, "seg": self._seg_background}[family]

    # -- layouts ---------------------------------------------------------

    def set_layout(self, image_id: int, objects) -> None:
        """Pin an explicit layout for one image (overrides generation)."""
        placed = []
        for class_id, box in objects:
            self._check_inside(box.as_array())
            if not 0 <= class_id < self.num_classes:
                raise ValueError(f"class {class_id} out of range")
            placed.append(PlacedObject(int(class_id), box))
        self._layouts[int(image_id)] = tuple(placed)

    def layout(self, image_id: int) -> tuple[PlacedObject, ...]:
        key = int(image_id)
        if key not in self._layouts:
            self._layouts[key] = self._generate_layout(key)
        return self._layouts[key]

    def _generate_layout(self, image_id: int) -> tuple[PlacedObject, ...]:
        rng = rng_for(self.seed, "layout", image_id)
        count = int(rng.integers(self.min_objects, self.max_objects + 1))
        w_img, h_img = self.image_size
        placed: list[PlacedObject] = []
        for _ in range(count):
            class_id = int(self.active_classes[rng.integers(len(self.active_classes))])
            for _ in range(_PLACEMENT_TRIES):
                aw, ah = self.anchor_shapes[int(rng.integers(len(self.anchor_shapes)))]
                sx, sy = rng.uniform(0.98, 1.02, size=2)
                bw = max(int(round(aw * sx)), 2)
                bh = max(int(round(ah * sy)), 2)
                dx, dy = (int(v) for v in rng.integers(-1, 2, size=2))
                # lattice centers are (c + 0.5) * stride; jitter keeps the
                # best anchor's IoU above ~0.9
                half = self.stride // 2
                # x1 = c*stride + half + dx - bw//2 must honor the margins
                cx_lo = -(-(_BORDER_MARGIN - half - dx + bw // 2) // self.stride)
                cx_hi = (w_img - _BORDER_MARGIN - bw + bw // 2 - half - dx) // self.stride
                cy_lo = -(-(_BORDER_MARGIN - half - dy + bh // 2) // self.stride)
                cy_hi = (h_img - _BORDER_MARGIN - bh + bh // 2 - half - dy) // self.stride
                if cx_hi < cx_lo or cy_hi < cy_lo:
                    continue
                cx = int(rng.integers(cx_lo, cx_hi + 1)) * self.stride + half + dx
                cy = int(rng.integers(cy_lo, cy_hi + 1)) * self.stride + half + dy
                x1 = cx - bw // 2
                y1 = cy - bh // 2
                box = Box(float(x1), float(y1), float(x1 + bw), float(y1 + bh))
                if all(self._gap_clear(box, p.box) for p in placed):
                    placed.append(PlacedObject(class_id, box))
                    break
        if not placed:
            raise RuntimeError(f"could not place any object in image {image_id}")
        return tuple(placed)

    @staticmethod
    def _gap_clear(a: Box, b: Box) -> bool:
        return (
            a.x2 + _GAP <= b.x1
            or b.x2 + _GAP <= a.x1
            or a.y2 + _GAP <= b.y1
            or b.y2 + _GAP <= a.y1
        )

    def _check_inside(self, boxes) -> np.ndarray:
        """``boxes`` as ``(n, 4)``, each inside the image with positive extent."""
        coords = _as_boxes(boxes)
        x1, y1, x2, y2 = coords.T
        w, h = self.image_size
        ok = (0 <= x1) & (x1 < x2) & (x2 <= w) & (0 <= y1) & (y1 < y2) & (y2 <= h)
        if not ok.all():  # a NaN or infinite row fails a comparison too
            bad = coords[int(ok.argmin())].tolist()
            raise ValueError(f"box {bad} outside image {self.image_size}")
        return coords

    # -- feature formulas --------------------------------------------------

    def _noise(self, tag: str, shape, *components) -> np.ndarray:
        if self.noise == 0.0:
            return np.zeros(shape)
        rng = rng_for(self.seed, tag, *components)
        scale = self.noise / np.sqrt(shape[-1])
        return rng.normal(0.0, scale, size=shape)

    def rpn_map(self, image_id: int) -> np.ndarray:
        rows, cols = self.grid.map_size
        out = np.zeros((rows, cols, self.rpn_dim))
        anchors = self.grid.anchor_boxes
        for obj in self.layout(image_id):
            per_anchor = iou_matrix(anchors, obj.box.as_array())[:, 0]
            best = per_anchor.reshape(self.grid.num_locations, self.grid.num_shapes)
            best = best.max(axis=1).reshape(rows, cols)
            out += best[:, :, None] * self._rpn_protos[obj.class_id][None, None, :]
        out += self._noise("noise-rpn", out.shape, image_id)
        return out.astype(np.float32)

    def detection_features(self, image_id: int, boxes) -> np.ndarray:
        """Region vectors of an ``(n, 4)`` box array, one ``det_dim`` row
        per box; a single ``[x1, y1, x2, y2]`` row gives one.

        Each row is accumulated in layout order and draws its noise from
        its own box's stream, so it does not depend on the other boxes.
        """
        coords = self._check_inside(boxes)
        objects = self.layout(image_id)
        weights = iou_matrix(coords, box_array([o.box for o in objects]))
        out = np.zeros((len(coords), self.det_dim))
        total = np.zeros(len(coords))
        for j, obj in enumerate(objects):
            out += weights[:, j, None] * self._det_protos[obj.class_id]
            total += weights[:, j]
        out += np.maximum(1.0 - total, 0.0)[:, None] * self._det_background
        for row, cell in zip(out, _quantized(coords)):
            row += self._noise("noise-det", row.shape, image_id, *cell)
        return out.astype(np.float32)

    def _grid_points(self, box: Box) -> tuple[np.ndarray, np.ndarray]:
        s = self.mask_grid
        gx = box.x1 + (np.arange(s) + 0.5) * box.width / s
        gy = box.y1 + (np.arange(s) + 0.5) * box.height / s
        return gx, gy

    def _inside_object(self, obj: PlacedObject, gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
        # same inscribed ellipse the raster mask uses, evaluated at
        # continuous sample points
        wx1, wy1, wx2, wy2 = pixel_bounds(obj.box, self.image_size)
        u = (gx - wx1) / (wx2 - wx1) - 0.5
        v = (gy - wy1) / (wy2 - wy1) - 0.5
        return (u[None, :] ** 2 + v[:, None] ** 2) <= 0.25

    def mask_feature_grid(self, image_id: int, box: Box) -> tuple[np.ndarray, np.ndarray]:
        """Per-pixel features and mask bits on the s x s grid over a box."""
        self._check_inside(box.as_array())
        s = self.mask_grid
        gx, gy = self._grid_points(box)
        feats = np.tile(self._seg_background, (s, s, 1))
        bits = np.zeros((s, s), dtype=bool)
        for obj in self.layout(image_id):
            inside = self._inside_object(obj, gx, gy) & ~bits
            feats[inside] = self._seg_protos[obj.class_id]
            bits |= inside
        feats += self._noise("noise-seg", feats.shape, image_id,
                             *_quantized(box.as_array())[0])
        return feats.astype(np.float32), bits

    # -- record assembly ---------------------------------------------------

    def _jitter_box(self, gt: Box, target_iou: float, rng) -> Box:
        w_img, h_img = self.image_size
        if rng.random() < 0.5:
            # slide along an axis: IoU of two equal boxes offset by d is
            # (w - d) / (w + d), so d = w (1 - t) / (1 + t)
            horizontal = bool(rng.random() < 0.5)
            size = gt.width if horizontal else gt.height
            d = size * (1.0 - target_iou) / (1.0 + target_iou)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            dx = sign * d if horizontal else 0.0
            dy = 0.0 if horizontal else sign * d
            box = Box(gt.x1 + dx, gt.y1 + dy, gt.x2 + dx, gt.y2 + dy)
            if 0 <= box.x1 and 0 <= box.y1 and box.x2 <= w_img and box.y2 <= h_img:
                return box
        # contained scale-down by sqrt(t) per side has IoU exactly t
        f = np.sqrt(target_iou)
        cx = 0.5 * (gt.x1 + gt.x2)
        cy = 0.5 * (gt.y1 + gt.y2)
        hw = 0.5 * gt.width * f
        hh = 0.5 * gt.height * f
        return Box(cx - hw, cy - hh, cx + hw, cy + hh)

    _IOU_BANDS = ((0.65, 0.9), (0.35, 0.55), (0.05, 0.25))

    def _stored_proposals(self, image_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Boxes and region features of the stored proposals: the
        ground-truth boxes first, then jittered and background boxes."""
        rng = rng_for(self.seed, "proposals", image_id)
        objects = self.layout(image_id)
        boxes: list[Box] = [obj.box for obj in objects]
        for obj in objects:
            for k in range(self.proposals_per_gt):
                lo, hi = self._IOU_BANDS[k % len(self._IOU_BANDS)]
                target = float(rng.uniform(lo, hi))
                boxes.append(self._jitter_box(obj.box, target, rng))
        w_img, h_img = self.image_size
        gt_arr = box_array([o.box for o in objects])
        for _ in range(self.background_proposals):
            for _ in range(_BACKGROUND_TRIES):
                bw = float(rng.uniform(24, 120))
                bh = float(rng.uniform(24, 120))
                x1 = float(rng.uniform(0, w_img - bw))
                y1 = float(rng.uniform(0, h_img - bh))
                box = Box(x1, y1, x1 + bw, y1 + bh)
                if not len(gt_arr) or iou_matrix(box.as_array(), gt_arr).max() < 0.3:
                    boxes.append(box)
                    break
        # featurizing draws nothing from ``rng``, so it can run last
        coords = box_array(boxes)
        return coords, self.detection_features(image_id, coords)

    def render_record(self, image_id: int) -> FeatureRecord:
        objects = self.layout(image_id)
        gts = []
        for obj in objects:
            ix1, iy1, ix2, iy2 = pixel_bounds(obj.box, self.image_size)
            bits = ellipse_mask(ix2 - ix1, iy2 - iy1)
            feats, grid_bits = self.mask_feature_grid(image_id, obj.box)
            gts.append(
                GtObject(
                    class_id=obj.class_id,
                    box=obj.box,
                    mask=BinaryMask((ix1, iy1), bits),
                    mask_features=feats,
                    pixel_labels=grid_bits,
                )
            )
        boxes, feats = self._stored_proposals(image_id)
        return FeatureRecord(
            image_id=int(image_id),
            image_size=tuple(self.image_size),
            rpn_map=self.rpn_map(image_id),
            proposal_boxes=boxes,
            proposal_features=feats,
            proposal_source="stored",
            gt_objects=tuple(gts),
        )

    def generate(self, num_images: int, start_id: int = 0) -> Iterator[FeatureRecord]:
        """Records of ``num_images`` consecutive ids; the count is checked
        at the call, before any record is rendered or written."""
        if num_images < 1:
            raise ValueError("num_images must be >= 1")
        return (self.render_record(image_id)
                for image_id in range(start_id, start_id + num_images))

    # -- header round-trip -------------------------------------------------

    def header(self) -> DatasetHeader:
        return DatasetHeader(
            **{name: getattr(self, name) for name in CONTRACT},
            generator={"kind": "synthetic",
                       **{key: getattr(self, key) for key in _GENERATOR_KEYS},
                       "active_classes": list(self.active_classes)},  # as read back
        )

    @staticmethod
    def from_header(header: DatasetHeader) -> "SyntheticWorld":
        gen = header.generator
        if not gen or gen.get("kind") != "synthetic":
            raise ValueError("dataset was not produced by the synthetic oracle")
        kw = {}
        for key, kind in _GENERATOR_KEYS.items():
            try:
                kw[key] = value_of(gen, key, *kind)
            except ValueError as exc:
                raise ValueError(f"synthetic generator key {key!r}: "
                                 f"{exc}") from exc
        return SyntheticWorld(
            **{name: getattr(header, name) for name in CONTRACT}, **kw)


def generate_dataset(path, world: SyntheticWorld, num_images: int,
                     start_id: int = 0) -> int:
    """Generate and write a dataset file; returns the record count.

    Distinct ``start_id`` ranges carve disjoint image sets out of one
    world, e.g. a held-out split that shares prototypes with training.
    """
    return write_dataset(path, world.header(),
                         world.generate(num_images, start_id))
