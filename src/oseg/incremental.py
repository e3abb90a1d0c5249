"""Per-image negative reservoirs: stage 1 of the minibootstrap.

A reservoir keeps, per binary problem key, the accumulated positives and
a per-image list of candidate negatives, stored only for images that
gave the key some negatives; it is the only stage-1 store,
and :func:`oseg.minibootstrap.run_minibootstrap` mines it directly.
When a new image sequence arrives, every stored per-image list is first
downsampled to the new quota ``ceil(num_batches * batch_size /
total_images)`` (:func:`per_image_quota`) and the new images are then
ingested under the same quota, so the memory budget stays fixed no
matter how many sequences have been absorbed.

Because each image's rows are only ever subsampled uniformly and
independently, the pool after any number of updates is distributed
exactly as if it had been collected from all sequences in one shot;
:func:`sampling_equivalence_test` verifies that property empirically on
an enumerable space.

The detection reservoir additionally keeps a per-image buffer drawn from
all proposal features of the image.  When a class has no stored
negatives for some image (in particular on images that predate the
class), the buffer stands in for them at training time.

Feature rows are kept as float32, the format of the dataset files, which
halves a reservoir's bytes; every fit upcasts them to float64.

A reservoir is filled through a labeler that yields, per record and
key, the classification positives and negatives together with the
box-offset regression samples, so a record is labeled once per module;
each head module owns its labeler.  The one training core of
:mod:`oseg.pipeline` updates forks (:meth:`SampleReservoir.fork`), so a
sequence that fails to train leaves the reservoirs it started from
unchanged.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.stats import chisquare

from .minibootstrap import BootstrapConfig
from .seeding import rng_for


class UntrainableClassError(ValueError):
    """A requested class has no positive samples to train on."""

    def __init__(self, keys, context: str = "training"):
        self.keys = tuple(keys)
        super().__init__(f"no positive samples for {context}: {list(self.keys)}")


def per_image_quota(num_batches: int, batch_size: int, num_images: int) -> int:
    """How many negatives each image may contribute to the pool."""
    if num_batches < 1 or batch_size < 1 or num_images < 1:
        raise ValueError("all quota arguments must be >= 1")
    return math.ceil(num_batches * batch_size / num_images)


def subsample_rows(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform subsample without replacement; everything if k >= len(rows)."""
    n = rows.shape[0]
    if k >= n:
        return rows
    idx = rng.choice(n, size=k, replace=False)
    return rows[idx]


def _subsample(rows: np.ndarray, k: int, *seed) -> np.ndarray:
    """``subsample_rows`` under ``rng_for(*seed)``, which is built only
    when rows must go."""
    if k >= rows.shape[0]:
        return rows
    return subsample_rows(rows, k, rng_for(*seed))


def _as_features(a, width: int | None) -> tuple[np.ndarray, int | None]:
    """Feature rows as float32, the stored format; fits upcast."""
    a = np.asarray(a, dtype=np.float32)
    if a.size == 0:
        # zero-width placeholder until some image reveals the true width;
        # zero-row arrays are never concatenated downstream
        return np.empty((0, width or 0), dtype=np.float32), width
    a = np.atleast_2d(a)
    if width is not None and a.shape[1] != width:
        raise ValueError("feature width changed between images")
    return a, a.shape[1]


def _copy_containers(value):
    if isinstance(value, dict):
        return {k: _copy_containers(v) for k, v in value.items()}
    if isinstance(value, list):
        return list(value)
    return value


def _append(store: dict, key, rows: np.ndarray) -> None:
    current = store.get(key)
    if current is None or current.shape[0] == 0:
        store[key] = rows
    elif rows.shape[0]:
        store[key] = np.concatenate([current, rows], axis=0)


@dataclass
class SampleReservoir:
    """Positives plus quota-bounded per-image negatives, per problem key.

    ``labeler(record) -> {key: (positives, negatives, reg_features,
    reg_targets)}`` supplies the raw per-image samples during
    :meth:`update`.  The box-offset samples feed a side channel that is
    kept unsampled (they track the positives, which are never evicted).
    """

    config: BootstrapConfig
    seed: int = 0
    feature_dim: int | None = None
    updates: int = 0
    image_ids: list = field(default_factory=list)
    positives: dict = field(default_factory=dict)
    negatives: dict = field(default_factory=dict)
    reg_features: dict = field(default_factory=dict)
    reg_targets: dict = field(default_factory=dict)

    def keys(self):
        return self.positives.keys()

    def fork(self):
        """A copy that :meth:`update` can change while this one stays as
        it is.  The lists and dicts are new and the arrays shared:
        ``update`` replaces arrays and never writes into one."""
        fields = dataclasses.fields(self)
        return dataclasses.replace(
            self, **{f.name: _copy_containers(getattr(self, f.name)) for f in fields}
        )

    def _require_new_ids(self, records) -> list:
        ids = [record.image_id for record in records]
        seen = set(self.image_ids)
        for image_id in ids:
            if image_id in seen:
                raise ValueError(f"image id {image_id!r} ingested twice")
            seen.add(image_id)
        return ids

    def _downsample_old(self, quota: int, t: int) -> None:
        for key, per_image in self.negatives.items():
            for image_id, rows in per_image.items():
                per_image[image_id] = _subsample(
                    rows, quota, self.seed, "down", t, key, image_id)

    def update(self, records, labeler) -> None:
        """Absorb one sequence: shrink old lists, ingest new images.
        All or nothing: a fork does the work and is adopted on success."""
        fork = self.fork()
        fork._update(records, labeler)
        self.__dict__.update(fork.__dict__)

    def _update(self, records, labeler) -> None:
        records, new_ids, quota = self._start(records)
        self._ingest(records, new_ids, labeler, quota)

    def _start(self, records) -> tuple[list, list, int]:
        """Check the new ids and shrink every stored list to the new quota."""
        records = list(records)
        if not records:
            raise ValueError("need at least one record")
        new_ids = self._require_new_ids(records)
        quota = per_image_quota(
            self.config.num_batches, self.config.batch_size,
            len(self.image_ids) + len(records),
        )
        self._downsample_old(quota, self.updates + 1)
        return records, new_ids, quota

    def _ingest(self, records, new_ids, labeler, quota: int) -> None:
        for image_id, record in zip(new_ids, records):
            for key, (pos, neg, x, y) in labeler(record).items():
                pos, self.feature_dim = _as_features(pos, self.feature_dim)
                neg, self.feature_dim = _as_features(neg, self.feature_dim)
                _append(self.positives, key, pos)
                per_image = self.negatives.setdefault(key, {})
                if neg.shape[0]:
                    per_image[image_id] = _subsample(
                        neg, quota, self.seed, "stage1", key, image_id)
                x = np.atleast_2d(np.asarray(x, dtype=np.float32))
                if x.size:
                    _append(self.reg_features, key, x)
                    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
                    _append(self.reg_targets, key, y)
            self.image_ids.append(image_id)
        if self.feature_dim is None:
            raise ValueError("labeler produced no features")
        self.updates += 1

    def negative_lists(self, key) -> list:
        """A key's negatives as one array per image, in ingest order; an
        image without stored rows reads as an empty array."""
        per_image = self.negatives[key]
        empty = np.empty((0, self.feature_dim), dtype=np.float32)
        return [per_image.get(image_id, empty) for image_id in self.image_ids]


@dataclass
class RpnReservoir(SampleReservoir):
    """Per-anchor reservoir; keys are anchor-shape indices."""


@dataclass
class DetectionReservoir(SampleReservoir):
    """Per-class reservoir with per-image fallback buffers.

    ``buffers[image_id]`` holds a quota-bounded sample of the
    ``proposal_features`` of that image; it substitutes for a class's
    negatives on any image without a stored list (images without that
    class's objects, and all images older than the class).
    """

    buffers: dict = field(default_factory=dict)

    def _update(self, records, labeler) -> None:
        # each new image's buffer is drawn before its labels are ingested
        records, new_ids, quota = self._start(records)
        for image_id, record in zip(new_ids, records):
            rows, self.feature_dim = _as_features(
                record.proposal_features, self.feature_dim
            )
            self.buffers[image_id] = _subsample(
                rows, quota, self.seed, "buffer", image_id)
        self._ingest(records, new_ids, labeler, quota)

    def _downsample_old(self, quota: int, t: int) -> None:
        super()._downsample_old(quota, t)
        for image_id, rows in self.buffers.items():
            self.buffers[image_id] = _subsample(
                rows, quota, self.seed, "down-buffer", t, image_id)

    def negative_lists(self, key) -> list:
        per_image = self.negatives[key]
        return [per_image.get(image_id, self.buffers[image_id])
                for image_id in self.image_ids]


@dataclass(frozen=True)
class EquivalenceResult:
    statistic: float
    p_value: float
    dof: int
    num_subsets: int
    trials: int
    passed: bool


def sampling_equivalence_test(
    pool_size: int,
    subset_size: int,
    chain=(),
    trials: int = 150000,
    seed=0,
    sampler=subsample_rows,
) -> EquivalenceResult:
    """Check that chained uniform subsampling is uniform overall.

    Repeatedly subsamples ``range(pool_size)`` down the ``chain`` of
    intermediate sizes and finally to ``subset_size``, counting how often
    each of the ``C(pool_size, subset_size)`` subsets appears; a
    chi-square goodness-of-fit test against the uniform distribution
    passes when the p-value exceeds the fixed 0.01 level.  ``sampler``
    exists so a deliberately biased sampler can serve as a negative
    control.
    """
    sizes = [pool_size, *chain, subset_size]
    if any(b > a for a, b in zip(sizes, sizes[1:])) or subset_size < 1:
        raise ValueError(f"subsampling chain must be non-increasing: {sizes}")
    num_subsets = math.comb(pool_size, subset_size)
    if num_subsets > 10_000:
        raise ValueError(
            f"{num_subsets} possible subsets is too many to enumerate (max 10000)"
        )
    if trials < 50 * num_subsets:
        raise ValueError(
            f"need at least {50 * num_subsets} trials for {num_subsets} subsets"
        )
    index_of = {
        subset: i
        for i, subset in enumerate(combinations(range(pool_size), subset_size))
    }
    counts = np.zeros(num_subsets, dtype=np.int64)
    rng = rng_for(seed, "sampling-equivalence")
    base = np.arange(pool_size)
    for _ in range(trials):
        kept = base
        for size in sizes[1:]:
            kept = sampler(kept, size, rng)
        counts[index_of[tuple(sorted(int(v) for v in kept))]] += 1
    statistic, p_value = chisquare(counts)
    return EquivalenceResult(
        statistic=float(statistic),
        p_value=float(p_value),
        dof=num_subsets - 1,
        num_subsets=num_subsets,
        trials=trials,
        passed=bool(p_value > 0.01),
    )
