"""Nystrom Gaussian-kernel classifiers and regularized least squares.

The classifier is kernel ridge regression on +1/-1 labels restricted to a
random subset of training points (the centers).  With ``num_centers`` equal
to the training-set size it coincides with exact kernel ridge regression;
with fewer centers it is the usual Nystrom approximation, solved directly
by Cholesky factorization of the ``m x m`` system.

Kernel matrices come from one BLAS matrix product, as in FALKON (Rudi et
al., 2017), rather than from pairwise differences; see
:func:`gaussian_kernel` for the precision this costs.  The centers are
rows of the training set, so a fit takes ``K_mm`` from rows of ``K_nm``,
and it returns its scores on the negatives, which the miner prunes by
without evaluating the kernel again.

Training (``IncrementalTrainer.add_sequence``) runs inside
:func:`one_blas_thread`, which holds the OpenBLAS thread pools of numpy
and scipy at one thread each: on few cores the two pools no longer
compete, and the model bytes no longer depend on ``OPENBLAS_NUM_THREADS``.
Each head's independent fits (anchor shapes, detection classes, mask
classes) are shared by the calling thread and one helper thread
(:func:`map_jobs`), so a training uses two cores with those same
one-thread pools.  Each fit draws from its own seed, so which thread runs
it does not change its bytes (Meanti et al., "Kernel methods through the
roof", NeurIPS 2020, also spread Nystrom fits over every core).
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .seeding import rng_for


class SolverError(RuntimeError):
    """Linear system could not be factorized even after regularization."""


# package, and the thread-count getter/setter its bundled OpenBLAS exports
_OPENBLAS = (("numpy", "scipy_openblas_{}_num_threads64_"),
             ("scipy", "scipy_openblas_{}_num_threads"))


def _openblas_pools() -> list:
    """``(get, set)`` thread-count functions of each OpenBLAS that an
    imported package of ``_OPENBLAS`` has loaded from its wheel's
    ``<package>.libs`` directory."""
    pools = []
    for package, symbol in _OPENBLAS:
        module = sys.modules.get(package)
        if module is None:
            continue
        libs = Path(module.__file__).parents[1] / f"{package}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                get = getattr(lib, symbol.format("get"))
                set_threads = getattr(lib, symbol.format("set"))
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            pools.append((get, set_threads))
    return pools


@contextmanager
def one_blas_thread():
    """Run the block with each OpenBLAS pool found at one thread.

    The previous counts come back on exit, also when the block raises.
    Where no pool is found, for example with a numpy built against a
    system BLAS, this does nothing.  Setting ``OPENBLAS_NUM_THREADS``
    would not do: OpenBLAS reads it only when the library loads.  The
    counts are per process, so two trainers must not train at once; the
    helper thread of :func:`map_jobs` runs inside its trainer's block and
    shares these one-thread pools.
    """
    pools = _openblas_pools()
    previous = [get() for get, _ in pools]
    for _, set_threads in pools:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(pools, previous):
            set_threads(count)


def map_jobs(job, items) -> list:
    """``[job(item) for item in items]``, run by the calling thread and at
    most one helper thread.

    Each thread takes the next item not yet taken, so a long job does not
    hold back the others; results come back in item order.  On a process
    allowed a single CPU the calling thread runs every job.  A failing
    job raises what the sequential loop would raise: the exception of
    the lowest-index failing job.  After a failure neither thread takes
    another item, and the helper is joined before this returns or raises.
    """
    items = list(items)
    results = [None] * len(items)
    errors = {}
    pending = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                index = None if errors else next(pending, None)
            if index is None:
                return
            try:
                results[index] = job(items[index])
            except BaseException as exc:  # re-raised below, lowest index
                with lock:
                    errors[index] = exc
                return

    helper = None
    if len(items) > 1 and _allowed_cpus() > 1:
        helper = threading.Thread(target=work, name="oseg-fit", daemon=True)
        helper.start()
    try:
        work()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _allowed_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def gaussian_kernel(x, centers, sigma: float) -> np.ndarray:
    """Gaussian kernel matrix ``exp(-|x - c|^2 / (2 sigma^2))``, shape (n, m).

    The squared distances are expanded as ``|x|^2 + |c|^2 - 2 x c^T``, with
    the cross term from one GEMM.  The expansion cancels, so the absolute
    error of a distance is a few ulps of ``|x|^2 + |c|^2`` and grows with
    the squared row norms; the error in ``K`` scales further with
    ``1 / sigma^2``.  For rows of unit norm it stays below 1e-14; for rows
    offset by 1e3 in 64 dimensions at ``sigma = 0.5`` it reaches about
    1.5e-7.  Distances are clamped at zero, so ``0 <= K <= 1`` holds
    exactly.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    k = x @ centers.T
    k *= -2.0
    k += np.einsum("ij,ij->i", x, x)[:, None]
    k += np.einsum("ij,ij->i", centers, centers)[None, :]
    np.maximum(k, 0.0, out=k)
    k /= -2.0 * sigma * sigma
    return np.exp(k, out=k)


# rows of K_mm added to the normal equations at a time
_KMM_ROWS = 64


@dataclass
class KernelClassifier:
    """Trained kernel machine: score is a weighted sum of center kernels."""

    centers: np.ndarray
    weights: np.ndarray
    sigma: float
    lam: float

    def __post_init__(self):
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")

    def decision_values(self, x) -> np.ndarray:
        """Raw margin scores for a batch of feature vectors, shape (n,)."""
        return gaussian_kernel(x, self.centers, self.sigma) @ self.weights


def train_kernel_classifier(
    positives,
    negatives,
    num_centers: int,
    sigma: float,
    lam: float,
    seed,
) -> tuple[KernelClassifier, np.ndarray]:
    """Fit a kernel ridge classifier with uniformly sampled Nystrom centers.

    Returns the classifier and its scores on ``negatives``, in their
    order.  They are rows of the fit's own ``K_nm``, and equal
    ``decision_values(negatives)`` exactly.

    Args:
        positives: (n_pos, f) features labeled +1.
        negatives: (n_neg, f) features labeled -1.
        num_centers: how many training points to keep as centers; must not
            exceed the total training-set size.
        sigma: Gaussian kernel width.
        lam: ridge regularization weight, >= 0 (the stability jitter keeps
            the unregularized system factorizable in the common case).
        seed: anything accepted by :func:`oseg.seeding.rng_for`; controls
            only the center subsample.

    Raises:
        SolverError: if the regularized system cannot be factorized.
    """
    pos = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    neg = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if pos.shape[0] and neg.shape[0] and pos.shape[1] != neg.shape[1]:
        raise ValueError("positive and negative feature widths differ")
    x = np.vstack([p for p in (pos, neg) if p.shape[0]])
    n = x.shape[0]
    if n == 0:
        raise ValueError("no training samples")
    if not np.isfinite(x).all():
        raise ValueError("training features must be finite")
    if not 1 <= num_centers <= n:
        raise ValueError(f"num_centers must be in [1, {n}], got {num_centers}")
    if lam < 0.0:
        raise ValueError("lam must be non-negative")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    y = np.concatenate(
        [np.ones(pos.shape[0]), -np.ones(neg.shape[0])]
    )
    rng = seed if isinstance(seed, np.random.Generator) else rng_for(seed)
    idx = rng.choice(n, size=num_centers, replace=False)
    centers = x[idx].copy()
    knm = gaussian_kernel(x, centers, sigma)
    # K^T K / n + lam K_mm, assembled in place; K_mm is rows of K_nm,
    # added a block of rows at a time so that no m x m temporary is made
    h = knm.T @ knm
    h /= n
    for start in range(0, num_centers, _KMM_ROWS):
        stop = start + _KMM_ROWS
        h[start:stop] += lam * knm[idx[start:stop]]
    # trace-scaled jitter keeps the Cholesky stable when centers nearly repeat
    h[np.diag_indices_from(h)] += 1e-10 * np.trace(h) / num_centers
    rhs = knm.T @ y / n
    try:
        w = cho_solve(cho_factor(h, lower=True), rhs)
    except LinAlgError as exc:
        raise SolverError(
            f"kernel system factorization failed: n={n} m={num_centers} "
            f"sigma={sigma} lam={lam} trace={np.trace(h):.3e}"
        ) from exc
    model = KernelClassifier(centers=centers, weights=w, sigma=sigma, lam=lam)
    return model, knm[pos.shape[0]:] @ w


@dataclass
class RlsRegressor:
    """Linear ridge regressor with an unregularized bias."""

    weights: np.ndarray
    bias: np.ndarray
    lam: float

    def predict(self, x) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.weights + self.bias


def train_rls(features, targets, lam: float) -> RlsRegressor:
    """Fit ridge regression ``min |XW + b - T|^2 + lam |W|^2``, ``lam > 0``.

    The bias is left out of the penalty, which is what makes a single
    sample reproduce its own target exactly.  The positive ``lam`` keeps
    the centered Gram matrix invertible, so one linear solve suffices.
    """
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    if x.shape[0] != t.shape[0]:
        raise ValueError("features and targets disagree on sample count")
    if x.shape[0] == 0:
        raise ValueError("no training samples")
    if not lam > 0.0:
        raise ValueError("lam must be positive")
    x_mean = x.mean(axis=0)
    t_mean = t.mean(axis=0)
    xc = x - x_mean
    tc = t - t_mean
    gram = xc.T @ xc
    gram[np.diag_indices_from(gram)] += lam
    w = np.linalg.solve(gram, xc.T @ tc)
    b = t_mean - x_mean @ w
    return RlsRegressor(weights=w, bias=b, lam=lam)
