"""Training protocols, stream-time accounting and inference.

Two protocols build the same three on-line modules from a dataset of
pre-extracted features.  ``ours`` makes a single pass and trains the
detector on the proposals stored with the dataset; ``ours_serial`` first
trains the proposal module, then featurizes its own proposals in a second
pass so the detector sees adapted regions.  ``IncrementalTrainer`` is
the one training driver: a run of either protocol is the first sequence
of a fresh trainer, which fills the per-image reservoirs, mines the
proposal module and the detector from them, and trains or extends
segmentation.  Stream mode converts record counts and declared FPS
figures into a deterministic backlog calculation instead of measuring
hardware-bound extraction speed.
"""

from __future__ import annotations

import dataclasses
import math
import platform
import time
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy

import oseg
from oseg import detection, rpn
from oseg.binio import value_of
from oseg.detection import (detect, detection_incremental_update,
                            train_detection_from_reservoir)
from oseg.feature_store import DatasetHeader
from oseg.incremental import DetectionReservoir, RpnReservoir
from oseg.kernels import one_blas_thread
from oseg.minibootstrap import BootstrapConfig
from oseg.model_io import PipelineModel
from oseg.rpn import (propose, rpn_incremental_update,
                      train_rpn_from_reservoir)
from oseg.seeding import rng_for
from oseg.segmentation import (extend_segmentation, predict_mask,
                               train_online_segmentation)

PROTOCOLS = ("ours", "ours_serial")

# ledger phase names
ACQUISITION = "acquisition"
EXTRACTION_1 = "extraction-pass-1"
EXTRACTION_2 = "extraction-pass-2"
BACKLOG = "extraction-backlog"
RPN_TRAINING = "rpn-training"
DETECTION_TRAINING = "detection-training"
SEGMENTATION_TRAINING = "segmentation-training"


@dataclass(frozen=True)
class ProtocolConfig:
    """Every setting that runs vary; mirrors the JSON config file 1:1.

    Kernel widths, ridges and the segmentation pixel fraction are
    constants of their heads."""

    protocol: str = "ours"
    num_batches: int = 10
    batch_size: int = 2000
    rpn_centers: int = 1000
    detection_centers: int = 1000
    segmentation_centers: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"expected one of {PROTOCOLS}")
        for name in ("num_batches", "batch_size", "rpn_centers",
                     "detection_centers", "segmentation_centers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")

    def replace(self, **kw) -> "ProtocolConfig":
        return dataclasses.replace(self, **kw)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(tree: dict) -> "ProtocolConfig":
        """A config from a JSON tree; each value has its field's kind."""
        if not isinstance(tree, dict):
            raise ValueError(f"a config must be a JSON object, got {tree!r}")
        kinds = typing.get_type_hints(ProtocolConfig)
        extra = set(tree) - set(kinds)
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return ProtocolConfig(**{key: value_of(tree, key, kinds[key])
                                 for key in tree})


def _module_seed(seed: int, tag: str) -> int:
    """Stable per-module child seed, independent of module call order."""
    return int(rng_for(seed, "module", tag).integers(0, 2**32))


@dataclass(frozen=True)
class TimingPhase:
    name: str
    seconds: float

    @property
    def overlappable(self) -> bool:
        """Only the first extraction pass can run during acquisition."""
        return self.name == EXTRACTION_1


@dataclass
class TimingLedger:
    """Per-phase wall (or modeled) times of one training run.

    An overlappable phase runs concurrently with data acquisition in
    stream mode and then stops counting toward the training time.
    """

    phases: list = field(default_factory=list)

    @property
    def extraction_passes(self) -> int:
        return sum(p.name in (EXTRACTION_1, EXTRACTION_2) for p in self.phases)

    def add(self, name: str, seconds: float) -> None:
        self.phases.append(TimingPhase(name, float(seconds)))

    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.phases)

    def post_acquisition_seconds(self) -> float:
        return sum(p.seconds for p in self.phases if p.name != ACQUISITION)

    def training_seconds(self) -> float:
        """Reported stream-mode training time: the post-acquisition time
        less the overlappable phases, which the stream hides."""
        return sum(p.seconds for p in self.phases
                   if p.name != ACQUISITION and not p.overlappable)


@contextmanager
def _timed(ledger: TimingLedger, name: str):
    start = time.perf_counter()
    yield
    ledger.add(name, time.perf_counter() - start)


@dataclass(frozen=True)
class TrainResult:
    model: PipelineModel
    ledger: TimingLedger


class WorldFeaturizer:
    """Featurizes arbitrary boxes through the synthetic oracle."""

    def __init__(self, world):
        self.world = world

    def detection(self, image_id: int, boxes) -> np.ndarray:
        """One ``det_dim`` row per row of the ``(n, 4)`` box array."""
        return self.world.detection_features(image_id, boxes)

    def mask(self, image_id: int, box) -> np.ndarray:
        return self.world.mask_feature_grid(image_id, box)[0]


def featurizer_for(header: DatasetHeader) -> WorldFeaturizer:
    """Rebuild the generating oracle of a synthetic dataset header.

    Only boxes on records from that same dataset featurize meaningfully:
    the oracle replays image layouts from the header's generator seed, so
    a record produced under different generator settings (another seed,
    class roster, or object budget) belongs to a different oracle.
    """
    from oseg.synthetic import SyntheticWorld

    return WorldFeaturizer(SyntheticWorld.from_header(header))


def versions_block() -> dict:
    return {
        "oseg": oseg.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def build_manifest(config: ProtocolConfig, header: DatasetHeader,
                   num_records: int, sequences: int,
                   dataset_hash=None) -> dict:
    """Reproducibility manifest: everything needed to re-run, no clocks."""
    return {
        "config": config.to_json(),
        "seed": config.seed,
        "protocol": config.protocol,
        "num_records": num_records,
        "sequences": sequences,
        "class_names": list(header.class_names),
        "dataset_sha256": dataset_hash,
        "versions": versions_block(),
    }


def train_ours(header: DatasetHeader, records, config: ProtocolConfig,
               dataset_hash=None) -> TrainResult:
    """Single-pass protocol: all three modules train from stored features.

    The detector reuses the proposals extracted before adaptation, so one
    extraction-equivalent pass covers the whole run and can overlap with
    acquisition in stream mode.
    """
    return IncrementalTrainer(header, config.replace(protocol="ours"),
                              dataset_hash).add_sequence(records)


def adapt_records(rpn_model, records, featurizer):
    """Replace stored proposals with featurized output of a trained RPN."""
    adapted = []
    for record in records:
        boxes = propose(rpn_model, record)
        adapted.append(dataclasses.replace(
            record,
            proposal_boxes=boxes,
            proposal_features=featurizer.detection(record.image_id, boxes),
            proposal_source="adapted"))
    return adapted


def train_ours_serial(header: DatasetHeader, records, config: ProtocolConfig,
                      featurizer=None, dataset_hash=None) -> TrainResult:
    """Two-pass protocol: the detector trains on adapted proposals.

    Pass 1 trains the proposal module from stored features; pass 2 runs it
    on every image and featurizes the resulting regions, which cannot
    overlap with acquisition because it needs the trained module.  Without
    a ``featurizer`` the dataset's own synthetic oracle is rebuilt.
    """
    return IncrementalTrainer(header, config.replace(protocol="ours_serial"),
                              dataset_hash, featurizer or featurizer_for(header)
                              ).add_sequence(records)


def train(header: DatasetHeader, records, config: ProtocolConfig,
          featurizer=None, dataset_hash=None) -> TrainResult:
    """Dispatch on ``config.protocol``."""
    if config.protocol == "ours":
        return train_ours(header, records, config, dataset_hash)
    return train_ours_serial(header, records, config, featurizer,
                             dataset_hash)


class IncrementalTrainer:
    """Grows one model over a stream of task sequences.  It is the one
    training driver: a run of either protocol is its first sequence.

    Each ``add_sequence`` call folds new images (and optionally new
    classes) into fixed-size per-image reservoirs, retrains the proposal
    and detection modules from the reservoirs, and extends the
    segmentation model with classifiers for the new classes only;
    previously trained segmentation classifiers are never touched.  Under
    ``ours_serial`` the detector and segmentation train on the records
    that the new proposal module adapts through ``featurizer``; that
    protocol is an offline two-pass run, so its trainer takes a single
    sequence.  Under ``ours`` a ``featurizer`` is ignored.
    """

    def __init__(self, header: DatasetHeader, config: ProtocolConfig,
                 dataset_hash=None, featurizer=None):
        serial = config.protocol == "ours_serial"
        if serial and featurizer is None:
            raise ValueError("protocol 'ours_serial' needs a featurizer for "
                             "its second extraction pass")
        self.header = header
        self.config = config
        self.dataset_hash = dataset_hash
        self.featurizer = featurizer if serial else None

        def pool(centers, head):
            return BootstrapConfig(num_batches=config.num_batches,
                                   batch_size=config.batch_size,
                                   num_centers=centers, sigma=head.SIGMA,
                                   lam=head.LAM)

        self.rpn_reservoir = RpnReservoir(
            config=pool(config.rpn_centers, rpn),
            seed=_module_seed(config.seed, "rpn"))
        self.detection_reservoir = DetectionReservoir(
            config=pool(config.detection_centers, detection),
            seed=_module_seed(config.seed, "detection"))
        self.segmentation_model = None
        self.class_ids: tuple = ()
        self.num_records = 0
        self.sequences = 0

    @one_blas_thread()
    def add_sequence(self, records) -> TrainResult:
        """Ingest one sequence and return the retrained pipeline.

        This is the one place that decides which classes a sequence
        adds: those present in the records that the model has not seen
        yet.  A class without positives fails detection training.  The
        heads train on forks of the reservoirs, and the trainer keeps
        them only once every head has trained, so a sequence that fails
        to train leaves the trainer as it was.  It runs on one BLAS
        thread (:func:`oseg.kernels.one_blas_thread`).
        """
        serial = self.featurizer is not None
        if serial and self.sequences:
            raise ValueError("protocol 'ours_serial' trains on a single "
                             "sequence")
        ledger = TimingLedger()
        with _timed(ledger, ACQUISITION):
            records = list(records)
        if not records:
            raise ValueError("dataset holds no records")
        for record in records:
            if record.proposal_source != "stored":
                raise ValueError(
                    f"image {record.image_id}: proposal source "
                    f"{record.proposal_source!r}, expected 'stored'")
        seen = {g.class_id for r in records for g in r.gt_objects}
        new_class_ids = tuple(sorted(seen - set(self.class_ids)))
        class_ids = tuple(sorted(seen | set(self.class_ids)))
        if not class_ids:
            raise ValueError("dataset holds no ground-truth objects")
        config, grid = self.config, self.header.grid
        rpn_reservoir = self.rpn_reservoir.fork()
        det_reservoir = self.detection_reservoir.fork()
        with _timed(ledger, EXTRACTION_1):
            rpn_incremental_update(rpn_reservoir, records, grid)
            if not serial:
                detection_incremental_update(det_reservoir, records,
                                             class_ids)
        with _timed(ledger, RPN_TRAINING):
            rpn_model = train_rpn_from_reservoir(
                rpn_reservoir, grid, _module_seed(config.seed, "rpn"))
        if serial:
            with _timed(ledger, EXTRACTION_2):
                records = adapt_records(rpn_model, records, self.featurizer)
        with _timed(ledger, DETECTION_TRAINING):
            if serial:
                # the adapted records exist only after pass 2, so filling the
                # reservoir from them counts as detection training
                detection_incremental_update(det_reservoir, records,
                                             class_ids)
            det_model = train_detection_from_reservoir(
                det_reservoir, _module_seed(config.seed, "detection"))
        with _timed(ledger, SEGMENTATION_TRAINING):
            seg_seed = _module_seed(config.seed, "segmentation")
            if self.segmentation_model is None:
                segmentation = train_online_segmentation(
                    records, new_class_ids, config.segmentation_centers,
                    seg_seed)
            else:
                segmentation = extend_segmentation(
                    self.segmentation_model, records, new_class_ids,
                    config.segmentation_centers, seg_seed)

        self.rpn_reservoir, self.detection_reservoir = (rpn_reservoir,
                                                        det_reservoir)
        self.segmentation_model = segmentation
        self.class_ids = class_ids
        self.num_records += len(records)
        self.sequences += 1
        manifest = build_manifest(config, self.header, self.num_records,
                                  self.sequences, self.dataset_hash)
        model = PipelineModel(self.header.class_names, rpn_model, det_model,
                              segmentation, manifest=manifest)
        return TrainResult(model, ledger)


@dataclass(frozen=True)
class StreamResult:
    """Stream-mode timing: modeled extraction, measured training."""

    model: PipelineModel
    ledger: TimingLedger
    num_frames: int
    stream_seconds: float
    extraction_seconds: float
    residual_seconds: float
    training_seconds: float


def _require_fps(stream_fps: float, extraction_fps: float) -> None:
    # a NaN compares false both ways, so test for the valid range
    if not all(math.isfinite(f) and f > 0 for f in (stream_fps, extraction_fps)):
        raise ValueError(f"FPS figures must be positive and finite, got "
                         f"{stream_fps!r} and {extraction_fps!r}")


def stream_residual(num_frames: int, stream_fps: float,
                    extraction_fps: float) -> float:
    """Backlog left when the stream ends: extraction capacity below the
    frame rate accumulates work that must drain before training starts."""
    if num_frames < 0:
        raise ValueError("frame count must be non-negative")
    _require_fps(stream_fps, extraction_fps)
    return max(0.0, num_frames / extraction_fps - num_frames / stream_fps)


def simulate_stream(header: DatasetHeader, records, stream_fps: float,
                    extraction_fps: float, config: ProtocolConfig,
                    dataset_hash=None) -> StreamResult:
    """Train while modeling acquisition and extraction as a timed stream.

    Frames arrive at ``stream_fps`` while extraction consumes them at
    ``extraction_fps``; extraction overlaps the stream, so only the
    backlog remaining at the last frame counts toward training time.  The
    on-line training phases (and the serial protocol's second pass) are
    measured for real and always count.  The serial protocol's second
    pass featurizes through the dataset's own synthetic oracle.
    """
    _require_fps(stream_fps, extraction_fps)
    result = train(header, records, config, dataset_hash=dataset_hash)
    num_frames = result.model.manifest["num_records"]
    stream_seconds = num_frames / stream_fps
    extraction_seconds = num_frames / extraction_fps
    residual = stream_residual(num_frames, stream_fps, extraction_fps)

    # the serial second pass re-featurizes every frame after adaptation,
    # so it is modeled at extraction speed and never overlaps the stream
    modeled = {ACQUISITION: stream_seconds, EXTRACTION_1: extraction_seconds,
               EXTRACTION_2: extraction_seconds}
    ledger = TimingLedger()
    for phase in result.ledger.phases:
        ledger.add(phase.name, modeled.get(phase.name, phase.seconds))
        if phase.name == EXTRACTION_1 and residual > 0.0:
            ledger.add(BACKLOG, residual)
    return StreamResult(model=result.model, ledger=ledger,
                        num_frames=num_frames,
                        stream_seconds=stream_seconds,
                        extraction_seconds=extraction_seconds,
                        residual_seconds=residual,
                        training_seconds=ledger.training_seconds())


def infer(model: PipelineModel, record, featurizer=None,
          use_stored_proposals: bool = False,
          with_masks: bool = True) -> list:
    """Full-image predictions: propose, featurize, detect, mask.

    With ``use_stored_proposals`` the detector runs on the proposals
    stored in the record instead of the proposal module's output; mask
    features always come from the featurizer because refined boxes never
    exist in the store.  ``with_masks=False`` yields box-only predictions;
    with stored proposals it is the one combination that works without a
    featurizer, and any other is refused before any work.
    """
    if featurizer is None and (with_masks or not use_stored_proposals):
        raise ValueError("only box-only inference on stored proposals runs "
                         "without a featurizer")
    if not use_stored_proposals:
        record = adapt_records(model.rpn, [record], featurizer)[0]
    predictions = detect(model.detection, record)
    if not with_masks:
        return predictions
    return [dataclasses.replace(p, mask=predict_mask(
                model.segmentation, p.class_id, p.box,
                featurizer.mask(record.image_id, p.box), record.image_size))
            for p in predictions]


def infer_dataset(model: PipelineModel, records, featurizer=None,
                  use_stored_proposals: bool = False,
                  with_masks: bool = True) -> list:
    """Predictions for every record, concatenated in record order."""
    out = []
    for record in records:
        out.extend(infer(model, record, featurizer, use_stored_proposals,
                         with_masks))
    return out
