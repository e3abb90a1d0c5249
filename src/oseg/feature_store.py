"""Per-image feature records and the versioned on-disk dataset format.

A dataset file carries a header (class vocabulary, anchor grid, feature
dimensions) followed by one block per image.  Records hold the three
feature families consumed by training: the location feature map for
proposal learning, per-proposal feature vectors for detection, and
per-pixel feature grids with labels for each ground-truth object.

A record keeps its proposals as arrays (boxes and features, one row per
proposal) with one source for the whole record.  On disk the record meta
lists the boxes and the source, and the feature rows follow the location
map in proposal order.

Feature tensors are stored as little-endian float32, the precision a CNN
backbone emits; version 2 files, which stored them as float64, are
refused.  Arithmetic on the features stays float64: every fit and score
upcasts.  Masks and pixel labels are stored as packed bits.  Reading is
streaming: records are yielded one at a time in stored order, each
validated against the header.  The synthetic generator that fills
these records lives in :mod:`oseg.synthetic`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import binio
from .binio import FormatError, value_of
from .geometry import AnchorGrid, BinaryMask, Box, pixel_bounds

DATASET_MAGIC = b"OSEG"
DATASET_VERSION = 3

_F4 = np.dtype("<f4")


@dataclass(frozen=True)
class GtObject:
    """Ground truth: class, box, pixel mask, and per-pixel mask features."""

    class_id: int
    box: Box
    mask: BinaryMask
    mask_features: np.ndarray
    pixel_labels: np.ndarray


@dataclass(frozen=True)
class FeatureRecord:
    """Everything extracted from one image.

    The image's ``P`` candidate regions are stored as arrays: corner
    boxes ``(P, 4)`` and per-region feature vectors ``(P, det_dim)``.
    ``proposal_source`` names the extraction that produced all of them:
    "stored" for the dataset's own pass, "adapted" for regions
    regenerated by a trained proposal module.
    """

    image_id: int
    image_size: tuple[int, int]
    rpn_map: np.ndarray
    proposal_boxes: np.ndarray
    proposal_features: np.ndarray
    proposal_source: str
    gt_objects: tuple[GtObject, ...]

    def validate(self, header: "DatasetHeader") -> None:
        rows, cols = header.grid.map_size
        s = header.mask_grid
        if self.image_size != header.image_size:
            raise ValueError(f"record {self.image_id}: image size mismatch")
        if self.rpn_map.shape != (rows, cols, header.rpn_dim):
            raise ValueError(
                f"record {self.image_id}: rpn map shape {self.rpn_map.shape} "
                f"does not match grid {(rows, cols, header.rpn_dim)}"
            )
        if not np.isfinite(self.rpn_map).all():
            raise ValueError(f"record {self.image_id}: non-finite rpn map")
        boxes = self.proposal_boxes
        count = len(boxes)
        if (boxes.shape != (count, 4)
                or self.proposal_features.shape != (count, header.det_dim)):
            raise ValueError(f"record {self.image_id}: bad proposal arrays")
        if self.proposal_source not in ("stored", "adapted"):
            raise ValueError(f"record {self.image_id}: unknown proposal "
                             f"source {self.proposal_source!r}")
        if not np.isfinite(self.proposal_features).all():
            raise ValueError(f"record {self.image_id}: non-finite proposal")
        if not np.isfinite(boxes).all():
            raise ValueError(f"record {self.image_id}: non-finite proposal box")
        if not ((boxes[:, 2] > boxes[:, 0]) & (boxes[:, 3] > boxes[:, 1])).all():
            raise ValueError(f"record {self.image_id}: degenerate proposal box")
        for g in self.gt_objects:
            if not 0 <= g.class_id < header.num_classes:
                raise ValueError(f"record {self.image_id}: class out of range")
            if g.mask_features.shape != (s, s, header.seg_dim):
                raise ValueError(f"record {self.image_id}: bad mask features")
            if g.pixel_labels.shape != (s, s) or g.pixel_labels.dtype != np.bool_:
                raise ValueError(f"record {self.image_id}: bad pixel labels")
            if not np.isfinite(g.mask_features).all():
                raise ValueError(f"record {self.image_id}: non-finite mask features")
            bx1, by1, bx2, by2 = pixel_bounds(g.box, self.image_size)
            x0, y0 = g.mask.origin
            mh, mw = g.mask.bits.shape
            if x0 < bx1 or y0 < by1 or x0 + mw > bx2 or y0 + mh > by2:
                raise ValueError(
                    f"record {self.image_id}: mask extends outside its box"
                )


# the fields of a dataset's contract, each with the kind and shape of
# its JSON value (``binio.value_of``)
CONTRACT = {"class_names": (str, (0,)), "image_size": (int, (2,)),
            "stride": (int,), "anchor_shapes": (float, (0, 2)),
            "rpn_dim": (int,), "det_dim": (int,), "seg_dim": (int,),
            "mask_grid": (int,)}


def grid_from_json(tree) -> AnchorGrid:
    """The anchor grid of a dataset or model header tree."""
    return AnchorGrid(**{name: value_of(tree, name, *CONTRACT[name])
                         for name in ("image_size", "stride", "anchor_shapes")})


@dataclass(frozen=True)
class DatasetHeader:
    """Dataset-wide contract: vocabulary, grid, and tensor dimensions.

    ``generator`` preserves the parameters of the synthetic oracle that
    produced the file (None for converted real-feature datasets).
    """

    class_names: tuple[str, ...]
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
    generator: dict | None = None
    grid: AnchorGrid = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.class_names) < 1:
            raise ValueError("need at least one class")
        if len(set(self.class_names)) != len(self.class_names):
            raise ValueError("class names must be unique")
        if min(self.rpn_dim, self.det_dim, self.seg_dim, self.mask_grid) < 1:
            raise ValueError("dimensions must be positive")
        if not isinstance(self.generator, (dict, type(None))):
            raise ValueError(f"generator must be an object or null, "
                             f"got {self.generator!r}")
        object.__setattr__(self, "grid", grid_from_json(self.to_json()))

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def to_json(self) -> dict:
        """The header tree; tuples serialize as JSON lists."""
        return {**{name: getattr(self, name) for name in CONTRACT},
                "generator": self.generator}

    @staticmethod
    def from_json(obj: dict) -> "DatasetHeader":
        return DatasetHeader(**{name: value_of(obj, name, *kind)
                                for name, kind in CONTRACT.items()},
                             generator=obj.get("generator"))


def _f4_bytes(tensor: np.ndarray, image_id: int, what: str) -> bytes:
    """``tensor`` as float32 bytes.  A finite value beyond float32's
    range is refused here, not written as an infinity that the reader
    would refuse later."""
    try:
        with np.errstate(over="raise"):
            return tensor.astype(_F4, copy=False).tobytes()
    except FloatingPointError:
        raise ValueError(f"record {image_id}: {what} beyond the float32 "
                         f"range") from None


def _pack_record(record: FeatureRecord) -> bytes:
    meta = {
        "image_id": record.image_id,
        "image_size": list(record.image_size),
        "map_shape": list(record.rpn_map.shape),
        "proposal_boxes": record.proposal_boxes.tolist(),
        "proposal_source": record.proposal_source,
        "gts": [
            {
                "class_id": g.class_id,
                "box": [g.box.x1, g.box.y1, g.box.x2, g.box.y2],
                "mask_origin": list(g.mask.origin),
                "mask_shape": list(g.mask.bits.shape),
            }
            for g in record.gt_objects
        ],
    }
    image_id = record.image_id
    parts = [_f4_bytes(record.rpn_map, image_id, "rpn map"),
             _f4_bytes(record.proposal_features, image_id, "proposal features")]
    for g in record.gt_objects:
        parts.append(np.packbits(g.mask.bits).tobytes())
        parts.append(_f4_bytes(g.mask_features, image_id, "mask features"))
        parts.append(np.packbits(g.pixel_labels).tobytes())
    blob = b"".join(parts)
    meta_bytes = binio.canonical_json(meta)
    return len(meta_bytes).to_bytes(8, "little") + meta_bytes + blob


def _unpack_record(payload: bytes, header: DatasetHeader, offset: int) -> FeatureRecord:
    if len(payload) < 8:
        raise FormatError("record payload shorter than its meta prefix", offset)
    meta_len = int.from_bytes(payload[:8], "little")
    if 8 + meta_len > len(payload):
        raise FormatError("record meta overruns payload", offset)
    try:
        meta = json.loads(payload[8:8 + meta_len])
    except ValueError as exc:  # also bytes that are not UTF-8
        raise FormatError(f"record meta is not valid JSON: {exc}", offset) from exc
    blob = payload[8 + meta_len:]
    pos = 0

    def take(count: int, dtype, what: str) -> np.ndarray:
        nonlocal pos
        nbytes = count * np.dtype(dtype).itemsize
        if pos + nbytes > len(blob):
            raise FormatError(f"record blob truncated in {what}", offset)
        out = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
        pos += nbytes
        return out

    map_shape = value_of(meta, "map_shape", int, (3,))
    rpn_map = take(int(np.prod(map_shape)), _F4, "rpn map").reshape(map_shape)
    listed = meta["proposal_boxes"]
    count = len(listed)
    features = take(count * header.det_dim, _F4, "proposal features")
    # one type check over every coordinate, so that a string or a bool is
    # never cast; ``validate`` checks the shape of what the meta lists
    if not set(map(type, itertools.chain.from_iterable(listed))) <= {float, int}:
        raise ValueError("proposal_boxes: every coordinate must be a number")
    boxes = np.array(listed or np.empty((0, 4)), dtype=np.float64)
    s = header.mask_grid
    gts = []
    for g in meta["gts"]:
        mh, mw = value_of(g, "mask_shape", int, (2,))
        packed = take(-(-mh * mw // 8), np.uint8, "mask bits")
        bits = np.unpackbits(packed, count=mh * mw).astype(bool).reshape(mh, mw)
        feats = take(s * s * header.seg_dim, _F4, "mask features")
        packed_labels = take(-(-s * s // 8), np.uint8, "pixel labels")
        labels = np.unpackbits(packed_labels, count=s * s).astype(bool).reshape(s, s)
        gts.append(
            GtObject(
                class_id=value_of(g, "class_id", int),
                box=Box(*value_of(g, "box", float, (4,))),
                mask=BinaryMask(value_of(g, "mask_origin", int, (2,)), bits),
                mask_features=feats.copy().reshape(s, s, header.seg_dim),
                pixel_labels=labels,
            )
        )
    if pos != len(blob):
        raise FormatError(
            f"record blob has {len(blob) - pos} unexplained trailing bytes", offset
        )
    return FeatureRecord(
        image_id=value_of(meta, "image_id", int),
        image_size=value_of(meta, "image_size", int, (2,)),
        rpn_map=rpn_map.copy(),
        proposal_boxes=boxes,
        proposal_features=features.reshape(count, header.det_dim).copy(),
        proposal_source=value_of(meta, "proposal_source", str),
        gt_objects=tuple(gts),
    )


def write_dataset(path, header: DatasetHeader, records: Iterable[FeatureRecord]) -> int:
    """Write header and records; returns the record count.

    Records are validated against the header before anything is written
    for them, so a failure leaves a prefix of valid records.
    """
    count = 0
    with open(path, "wb") as fh:
        binio.write_preamble(fh, DATASET_MAGIC, DATASET_VERSION, header.to_json())
        for record in records:
            record.validate(header)
            binio.write_block(fh, _pack_record(record))
            count += 1
    return count


def read_dataset(path) -> tuple[DatasetHeader, Iterator[FeatureRecord]]:
    """Open a dataset for streaming; records are yielded lazily in order.

    The header is read at the call, so a bad preamble raises there.
    Every record is validated against the header as it is read.
    Corruption, or a record that breaks the header's contract, raises
    :class:`FormatError` carrying the byte offset; records yielded
    before the failure are valid.  The file closes when the iterator is
    exhausted, closed or garbage-collected, also if it was never started.
    """
    fh = open(path, "rb")
    try:
        _, raw = binio.read_preamble(fh, DATASET_MAGIC, {DATASET_VERSION})
        with binio.malformed("dataset header", len(DATASET_MAGIC) + 12):
            header = DatasetHeader.from_json(raw)
    except Exception:
        fh.close()
        raise

    def records() -> Iterator[FeatureRecord]:
        with fh:
            while True:
                offset = fh.tell()
                payload = binio.read_block(fh)
                if payload is None:
                    return
                with binio.malformed("record", offset):
                    record = _unpack_record(payload, header, offset)
                    record.validate(header)
                yield record

    iterator = records()
    # a generator that never started never enters its ``with`` block
    weakref.finalize(iterator, fh.close)
    return header, iterator


def load_dataset(path) -> tuple[DatasetHeader, list[FeatureRecord]]:
    """Read a whole dataset into memory."""
    header, stream = read_dataset(path)
    return header, list(stream)


def dataset_sha256(path) -> str:
    """Content hash used in reproducibility manifests."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
