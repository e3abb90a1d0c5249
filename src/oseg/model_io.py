"""Trained-pipeline files: RPN, detector and mask head in one container.

Same byte layout as dataset files (magic, version, canonical-JSON header,
length-prefixed blocks).  The header describes every scalar field and
names each tensor by block index; blocks hold little-endian f64 data in
header order, so identical models serialize to identical bytes.  Writes
land in a temp file and are renamed into place atomically.

Format version 2 keeps only what training produced; inference settings
are constants of the head modules.  Non-finite tensors are malformed.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from oseg import binio
from oseg.binio import value_of
from oseg.detection import OnlineDetectionModel
from oseg.feature_store import grid_from_json
from oseg.geometry import AnchorGrid
from oseg.kernels import KernelClassifier, RlsRegressor
from oseg.rpn import OnlineRpnModel
from oseg.segmentation import OnlineSegmentationModel

MAGIC = b"OSGM"
VERSION = 2


@dataclass(frozen=True)
class PipelineModel:
    """Everything needed to run inference, plus the run's provenance."""

    class_names: tuple
    rpn: OnlineRpnModel
    detection: OnlineDetectionModel
    segmentation: OnlineSegmentationModel
    manifest: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.class_names) < 1:
            raise ValueError("need at least one class")
        known = set(range(len(self.class_names)))
        for part in (self.detection, self.segmentation):
            if not set(part.class_ids) <= known:
                raise ValueError("model trained on class ids outside the "
                                 "class-name table")


class _TensorSink:
    """Assigns block indices to tensors during header construction."""

    def __init__(self):
        self.tensors = []

    def add(self, arr) -> dict:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        self.tensors.append(arr)
        return {"block": len(self.tensors) - 1, "shape": list(arr.shape)}


def _classifier_tree(clf: KernelClassifier, sink: _TensorSink) -> dict:
    return {"sigma": clf.sigma, "lam": clf.lam,
            "centers": sink.add(clf.centers),
            "weights": sink.add(clf.weights)}


def _regressor_tree(reg: RlsRegressor, sink: _TensorSink) -> dict:
    return {"lam": reg.lam, "weights": sink.add(reg.weights),
            "bias": sink.add(reg.bias)}


def _bank_tree(bank: dict, encode, sink: _TensorSink) -> list:
    return [[key, encode(bank[key], sink)] for key in sorted(bank)]


def _take_tensor(tree: dict, blocks, offset_of) -> np.ndarray:
    index = value_of(tree, "block", int)
    if not 0 <= index < len(blocks):
        raise binio.FormatError(f"tensor block {index} out of range",
                                offset_of(min(index, len(blocks) - 1)))
    shape = value_of(tree, "shape", int, (0,))
    raw = blocks[index]
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if len(raw) != 8 * count:
        raise binio.FormatError(
            f"tensor block {index}: {len(raw)} bytes for shape {shape}",
            offset_of(index))
    arr = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if not np.isfinite(arr).all():
        raise binio.FormatError(f"tensor block {index} holds non-finite values",
                                offset_of(index))
    return arr


def _classifier_from(tree: dict, blocks, offset_of) -> KernelClassifier:
    return KernelClassifier(
        centers=_take_tensor(tree["centers"], blocks, offset_of),
        weights=_take_tensor(tree["weights"], blocks, offset_of),
        sigma=value_of(tree, "sigma", float), lam=value_of(tree, "lam", float))


def _regressor_from(tree: dict, blocks, offset_of) -> RlsRegressor:
    return RlsRegressor(
        weights=_take_tensor(tree["weights"], blocks, offset_of),
        bias=_take_tensor(tree["bias"], blocks, offset_of),
        lam=value_of(tree, "lam", float))


def _by_class(pairs):
    """The ``[class_id, value]`` pairs of a bank, each class id checked."""
    for pair in pairs:
        _, value = pair
        yield value_of(pair, 0, int), value


def _bank_from(items, decode, blocks, offset_of) -> dict:
    return {key: decode(tree, blocks, offset_of)
            for key, tree in _by_class(items)}


def _grid_tree(grid: AnchorGrid) -> dict:
    return {"image_size": list(grid.image_size), "stride": grid.stride,
            "anchor_shapes": [list(s) for s in grid.anchor_shapes]}


def _header_tree(model: PipelineModel, sink: _TensorSink) -> dict:
    return {
        "class_names": list(model.class_names),
        "grid": _grid_tree(model.rpn.grid),
        "rpn": {
            "failures": [[k, str(v)] for k, v in
                         sorted(model.rpn.failures.items())],
            "classifiers": _bank_tree(model.rpn.classifiers,
                                      _classifier_tree, sink),
            "regressors": _bank_tree(model.rpn.regressors,
                                     _regressor_tree, sink),
        },
        "detection": {
            "classifiers": _bank_tree(model.detection.classifiers,
                                      _classifier_tree, sink),
            "regressors": _bank_tree(model.detection.regressors,
                                     _regressor_tree, sink),
        },
        "segmentation": {
            "classifiers": _bank_tree(model.segmentation.classifiers,
                                      _classifier_tree, sink),
        },
        "manifest": model.manifest,
    }


def model_bytes(model: PipelineModel) -> bytes:
    """The exact file content ``save_pipeline`` would write."""
    import io

    sink = _TensorSink()
    header = _header_tree(model, sink)
    buf = io.BytesIO()
    binio.write_preamble(buf, MAGIC, VERSION, header)
    for arr in sink.tensors:
        binio.write_block(buf, arr.astype("<f8").tobytes())
    return buf.getvalue()


def classifier_bytes(clf: KernelClassifier) -> bytes:
    """Canonical bytes of one classifier, for stability comparisons."""
    sink = _TensorSink()
    tree = _classifier_tree(clf, sink)
    parts = [binio.canonical_json(tree)]
    parts.extend(arr.astype("<f8").tobytes() for arr in sink.tensors)
    return b"".join(parts)


def save_pipeline(path, model: PipelineModel) -> None:
    """Write the model file atomically (temp file + rename)."""
    path = os.fspath(path)
    data = model_bytes(model)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".oseg-model-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_pipeline(path) -> PipelineModel:
    with open(path, "rb") as fh:
        _, header = binio.read_preamble(fh, MAGIC, (VERSION,))
        blocks = []
        offsets = []
        while True:
            offsets.append(fh.tell())
            block = binio.read_block(fh)
            if block is None:
                break
            blocks.append(block)

    def offset_of(index: int) -> int:
        return offsets[index] if 0 <= index < len(offsets) else 0

    with binio.malformed("model header", len(MAGIC) + 12):
        grid = grid_from_json(header["grid"])
        rpn_tree = header["rpn"]
        rpn = OnlineRpnModel(
            grid=grid,
            classifiers=_bank_from(rpn_tree["classifiers"], _classifier_from,
                                   blocks, offset_of),
            regressors=_bank_from(rpn_tree["regressors"], _regressor_from,
                                  blocks, offset_of),
            failures=dict(_by_class(rpn_tree["failures"])),
        )
        det_tree = header["detection"]
        detection = OnlineDetectionModel(
            classifiers=_bank_from(det_tree["classifiers"], _classifier_from,
                                   blocks, offset_of),
            regressors=_bank_from(det_tree["regressors"], _regressor_from,
                                  blocks, offset_of),
        )
        seg_tree = header["segmentation"]
        segmentation = OnlineSegmentationModel(
            classifiers=_bank_from(seg_tree["classifiers"], _classifier_from,
                                   blocks, offset_of),
        )
        return PipelineModel(
            class_names=value_of(header, "class_names", str, (0,)), rpn=rpn,
            detection=detection, segmentation=segmentation,
            manifest=header.get("manifest", {}))
