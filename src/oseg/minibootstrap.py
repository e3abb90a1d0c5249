"""Hard-negative mining for kernel classifiers on feature batches.

Negatives vastly outnumber positives in region-based training, so each
classifier is fit on a bootstrapped subset instead.  Stage 1 pools
candidate negatives per image under a quota, stage 2 shuffles the pool
and cuts it into fixed-size batches, and stage 3 visits the batches once
each: after every refit, rows the current model fails to reject stay in
the working set and rows it rejects confidently are pruned.

Stage 1 is the per-image reservoir of :mod:`oseg.incremental`, which
hands a :class:`NegativePool` to stages 2-3.  The pool keeps its
per-image structure until stage 2.  That independence is what makes the
incremental reservoir updates statistically equivalent to collecting the
pool in one shot (chained uniform subsampling of each image's rows is
itself uniform).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelClassifier, SolverError, train_kernel_classifier
from .seeding import rng_for


@dataclass(frozen=True)
class BootstrapConfig:
    """Pool layout, kernel hyper-parameters and mining thresholds.

    A negative scoring at or above ``hard_threshold`` after a refit is
    still "hard" and enters the working set; a working negative scoring
    below ``easy_threshold`` is pruned.  ``num_centers`` is clamped to
    the training-set size at each refit.
    """

    num_batches: int = 10
    batch_size: int = 2000
    num_centers: int = 1000
    sigma: float = 5.0
    lam: float = 1e-5
    hard_threshold: float = -1.0
    easy_threshold: float = -1.0

    def __post_init__(self):
        if self.num_batches < 1 or self.batch_size < 1 or self.num_centers < 1:
            raise ValueError("num_batches, batch_size and num_centers must be >= 1")
        if self.hard_threshold < self.easy_threshold:
            raise ValueError("hard_threshold must be >= easy_threshold")


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


@dataclass
class NegativePool:
    """Per-problem positives and per-image negative lists.

    Keys identify independent binary problems (anchor indices for the
    proposal module, class indices for detection).  Negatives keep their
    per-image grouping so that later subsampling stays per-image.
    """

    positives: dict = field(default_factory=dict)
    negatives: dict = field(default_factory=dict)

    def keys(self):
        return self.positives.keys()

    def untrainable_keys(self) -> list:
        return [k for k in self.positives if self.positives[k].shape[0] == 0]


def make_batches(pool: NegativePool, key, config: BootstrapConfig, seed) -> list[np.ndarray]:
    """Stage 2: shuffle a key's pooled negatives and cut them into batches.

    At most ``num_batches`` batches of ``batch_size`` rows; the surplus
    is dropped after the shuffle.  A short pool yields fewer or smaller
    batches and a warning; an empty pool is an error.
    """
    parts = [a for a in pool.negatives[key] if a.shape[0]]
    if not parts:
        raise ValueError(f"no negatives pooled for {key!r}")
    merged = np.concatenate(parts, axis=0)
    want = config.num_batches * config.batch_size
    if merged.shape[0] < want:
        warnings.warn(
            f"negative pool for {key!r} has {merged.shape[0]} rows, wanted {want}; "
            "batches will be short",
            stacklevel=2,
        )
    rng = rng_for(seed, "stage2", key)
    order = rng.permutation(merged.shape[0])[:want]
    merged = merged[order]
    return [
        merged[i:i + config.batch_size]
        for i in range(0, merged.shape[0], config.batch_size)
    ]


@dataclass(frozen=True)
class IterationStats:
    batch_index: int
    batch_rows: int
    hard_added: int
    easy_pruned: int
    active_negatives: int
    training_size: int
    centers_used: int
    train_seconds: float


@dataclass
class MiningStats:
    num_positives: int
    iterations: list[IterationStats] = field(default_factory=list)


def mine_hard_negatives(
    positives,
    batches,
    config: BootstrapConfig,
    seed,
) -> tuple[KernelClassifier, MiningStats]:
    """Stage 3 for a single binary problem.

    Trains on the positives plus the first batch, prunes the confident
    rejections, then for every later batch selects the rows the current
    model fails to reject, refits on positives + working set + new rows,
    and prunes again.  Refits happen every iteration (fresh center draw)
    even when a batch contributes nothing, mirroring the plain loop.
    """
    pos = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    if pos.shape[0] == 0:
        raise ValueError("need at least one positive sample")
    batches = [np.atleast_2d(np.asarray(b, dtype=np.float64)) for b in batches]
    if not batches or batches[0].shape[0] == 0:
        raise ValueError("need a non-empty first negative batch")

    stats = MiningStats(num_positives=pos.shape[0])
    model: KernelClassifier | None = None
    active = np.empty((0, pos.shape[1]))
    for j, batch in enumerate(batches):
        if model is None:
            hard = batch
        else:
            hard = batch[model.decision_values(batch) >= config.hard_threshold]
        active = np.concatenate([active, hard], axis=0)
        n_train = pos.shape[0] + active.shape[0]
        centers = min(config.num_centers, n_train)
        started = time.perf_counter()
        model = train_kernel_classifier(
            pos,
            active,
            num_centers=centers,
            sigma=config.sigma,
            lam=config.lam,
            seed=rng_for(seed, "centers", j),
        )
        elapsed = time.perf_counter() - started
        if active.shape[0]:
            keep = model.decision_values(active) >= config.easy_threshold
            pruned = int((~keep).sum())
            active = active[keep]
        else:
            pruned = 0
        stats.iterations.append(
            IterationStats(
                batch_index=j,
                batch_rows=batch.shape[0],
                hard_added=hard.shape[0],
                easy_pruned=pruned,
                active_negatives=active.shape[0],
                training_size=n_train,
                centers_used=centers,
                train_seconds=elapsed,
            )
        )
    assert model is not None
    return model, stats


@dataclass
class MiningResult:
    """Classifiers per key, with stats; failed keys carry a reason instead."""

    classifiers: dict
    stats: dict
    failures: dict


def run_minibootstrap(pool: NegativePool, config: BootstrapConfig, seed) -> MiningResult:
    """Stages 2-3 over every key of a pool.

    Keys without positives, and keys whose solver fails mid-iteration,
    are recorded in ``failures`` and skipped; the remaining keys train
    normally.  The caller decides whether a failure is fatal.
    """
    result = MiningResult(classifiers={}, stats={}, failures={})
    for key in sorted(pool.keys(), key=str):
        if pool.positives[key].shape[0] == 0:
            result.failures[key] = "no positive samples"
            continue
        try:
            batches = make_batches(pool, key, config, seed)
            model, stats = mine_hard_negatives(
                pool.positives[key], batches, config, rng_seed_key(seed, key)
            )
        except (SolverError, ValueError) as exc:
            result.failures[key] = str(exc)
            continue
        result.classifiers[key] = model
        result.stats[key] = stats
    return result


def rng_seed_key(seed, key) -> tuple:
    """Stable per-key seed tuple for the stage-3 loop."""
    return (seed, "stage3", key)
