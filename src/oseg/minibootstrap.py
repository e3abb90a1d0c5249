"""Hard-negative mining for kernel classifiers on feature batches.

Negatives vastly outnumber positives in region-based training, so each
classifier is fit on a bootstrapped subset instead.  Stage 1 pools
candidate negatives per image under a quota, stage 2 shuffles the pool
and cuts it into fixed-size batches, and stage 3 visits the batches once
each: after every refit, rows the current model fails to reject stay in
the working set and rows it rejects confidently are pruned.

Stage 1 is the per-image reservoir of :mod:`oseg.incremental`; this
module holds stages 2-3 and reads the reservoir directly.  The
negatives keep their per-image structure until stage 2.  That
independence is what makes the incremental reservoir updates
statistically equivalent to collecting the pool in one shot (chained
uniform subsampling of each image's rows is itself uniform).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelClassifier, SolverError, train_kernel_classifier
from .seeding import rng_for


# a negative scoring at or above HARD_THRESHOLD after a refit is still
# "hard" and enters the working set; a working negative scoring below
# EASY_THRESHOLD is pruned
HARD_THRESHOLD = -1.0
EASY_THRESHOLD = -1.0


@dataclass(frozen=True)
class BootstrapConfig:
    """Pool layout and kernel hyper-parameters.

    A reservoir keeps about ``num_batches * batch_size`` negatives per
    key, and stage 2 cuts them into at most ``num_batches`` batches.
    ``num_centers`` is clamped to the training-set size at each refit.
    """

    num_batches: int
    batch_size: int
    num_centers: int
    sigma: float
    lam: float

    def __post_init__(self):
        if self.num_batches < 1 or self.batch_size < 1 or self.num_centers < 1:
            raise ValueError("num_batches, batch_size and num_centers must be >= 1")


def make_batches(negatives, key, config: BootstrapConfig, seed) -> list[np.ndarray]:
    """Stage 2: shuffle a key's per-image negatives and cut them into batches.

    At most ``num_batches`` batches of ``batch_size`` rows; the surplus
    is dropped after the shuffle.  A short pool yields fewer or smaller
    batches and a warning; an empty pool is an error.
    """
    parts = [a for a in negatives if a.shape[0]]
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
            hard = batch[model.decision_values(batch) >= HARD_THRESHOLD]
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
            keep = model.decision_values(active) >= EASY_THRESHOLD
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


def run_minibootstrap(reservoir, seed) -> MiningResult:
    """Stages 2-3 over every key of a reservoir.

    Batch layout and kernel hyper-parameters come from
    ``reservoir.config``.  Keys without positives, and keys whose solver
    fails mid-iteration, are recorded in ``failures`` and skipped; the
    remaining keys train normally.  The caller decides whether a failure
    is fatal.
    """
    config = reservoir.config
    result = MiningResult(classifiers={}, stats={}, failures={})
    for key in sorted(reservoir.positives, key=str):
        positives = reservoir.positives[key]
        if positives.shape[0] == 0:
            result.failures[key] = "no positive samples"
            continue
        try:
            batches = make_batches(reservoir.negative_lists(key), key, config, seed)
            model, stats = mine_hard_negatives(
                positives, batches, config, (seed, "stage3", key)
            )
        except (SolverError, ValueError) as exc:
            result.failures[key] = str(exc)
            continue
        result.classifiers[key] = model
        result.stats[key] = stats
    return result
