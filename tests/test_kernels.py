"""Kernel classifier and ridge regressor tests.

The key oracle: with as many centers as training points, the Nystrom
classifier must agree with exact dense kernel ridge regression, whose
closed form is computed independently here.
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError
from scipy.spatial.distance import cdist

import oseg.kernels as kernels
from oseg.kernels import (
    KernelClassifier,
    SolverError,
    gaussian_kernel,
    map_jobs,
    train_kernel_classifier,
    train_rls,
)
from oseg.seeding import rng_for


def dense_krr_scores(x_train, y, sigma, lam, x_test):
    """Exact kernel ridge regression: alpha = (K + n*lam*I)^-1 y."""
    n = x_train.shape[0]
    k = gaussian_kernel(x_train, x_train, sigma)
    alpha = np.linalg.solve(k + n * lam * np.eye(n), y)
    return gaussian_kernel(x_test, x_train, sigma) @ alpha


class TestGaussianKernel:
    def test_values(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        k = gaussian_kernel(x, x, sigma=5.0)
        assert k[0, 0] == pytest.approx(1.0)
        assert k[0, 1] == pytest.approx(np.exp(-25.0 / 50.0))
        np.testing.assert_allclose(k, k.T)

    def test_range(self):
        rng = rng_for(202, "kernel")
        x = rng.normal(size=(30, 8))
        k = gaussian_kernel(x, x, sigma=2.0)
        assert np.all(k > 0.0) and np.all(k <= 1.0 + 1e-12)


def cdist_kernel(x, centers, sigma):
    """Reference kernel from direct pairwise differences."""
    return np.exp(-cdist(x, centers, "sqeuclidean") / (2.0 * sigma * sigma))


@st.composite
def kernel_inputs(draw):
    """Rows of norm about 1 (RPN rows have norms 0.6-1.6); some centers
    repeat rows of ``x``, so that some distances are exactly zero."""
    n = draw(st.integers(1, 200))
    m = draw(st.integers(1, 200))
    f = draw(st.integers(1, 64))
    shared = draw(st.integers(0, min(n, m)))
    # the GEMM error in K scales as 1 / sigma^2; the program uses 5.0
    sigma = draw(st.floats(0.5, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, f)) / np.sqrt(f)
    centers = np.vstack([x[:shared],
                         rng.normal(size=(m - shared, f)) / np.sqrt(f)])
    return x, centers, sigma


class TestGemmKernelOracle:
    @settings(deadline=None)
    @given(kernel_inputs())
    def test_unit_scale_rows_match_cdist(self, inputs):
        x, centers, sigma = inputs
        k = gaussian_kernel(x, centers, sigma)
        np.testing.assert_allclose(k, cdist_kernel(x, centers, sigma),
                                   rtol=0.0, atol=1e-12)

    @settings(deadline=None)
    @given(kernel_inputs())
    def test_offset_rows_stay_in_range(self, inputs):
        # |x|^2 near 1e6 f makes |x|^2 + |c|^2 - 2 x.c cancel badly
        x, centers, sigma = inputs
        x, centers = x + 1e3, centers + 1e3
        k = gaussian_kernel(x, centers, sigma)
        assert k.min() >= 0.0 and k.max() <= 1.0
        np.testing.assert_allclose(k, cdist_kernel(x, centers, sigma),
                                   rtol=0.0, atol=1e-6)


class TestNystromEquivalence:
    def test_full_rank_matches_dense_krr(self):
        rng = rng_for(202, "dense")
        n, f = 40, 6
        x = rng.normal(size=(n, f))
        labels = rng.integers(0, 2, n)
        pos = x[labels == 1]
        neg = x[labels == 0]
        sigma, lam = 2.0, 1e-3
        model, _ = train_kernel_classifier(pos, neg, num_centers=n,
                                           sigma=sigma, lam=lam, seed=7)
        x_test = rng.normal(size=(25, f))
        got = model.decision_values(x_test)
        # the oracle sees the same points in stacked order with +-1 labels
        x_train = np.vstack([pos, neg])
        y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
        want = dense_krr_scores(x_train, y, sigma, lam, x_test)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9)

    def test_subsampled_centers_approximate_dense(self):
        rng = rng_for(202, "subsample")
        x = rng.normal(size=(200, 5))
        y_sign = np.sign(x[:, 0] + 0.1)
        pos, neg = x[y_sign > 0], x[y_sign <= 0]
        x_test = rng.normal(size=(50, 5))
        x_train = np.vstack([pos, neg])
        y = np.concatenate([np.ones(len(pos)), -np.ones(len(neg))])
        want = dense_krr_scores(x_train, y, 2.0, 1e-4, x_test)
        model, _ = train_kernel_classifier(pos, neg, num_centers=170,
                                           sigma=2.0, lam=1e-4, seed=3)
        got = model.decision_values(x_test)
        # not exact, but the approximation should track the dense solution
        corr = np.corrcoef(got, want)[0, 1]
        assert corr > 0.99


class TestKernelClassifierBehavior:
    def test_separates_blobs(self):
        rng = rng_for(202, "blobs")
        pos = rng.normal(loc=+2.0, scale=0.3, size=(60, 4))
        neg = rng.normal(loc=-2.0, scale=0.3, size=(80, 4))
        model, _ = train_kernel_classifier(pos, neg, num_centers=50,
                                           sigma=3.0, lam=1e-5, seed=11)
        assert model.decision_values(np.full(4, 2.0)[None])[0] > 0.0
        assert model.decision_values(np.full(4, -2.0)[None])[0] < 0.0
        scores = model.decision_values(np.vstack([pos, neg]))
        assert np.all(scores[:60] > scores[60:].max())

    def test_deterministic_given_seed(self):
        rng = rng_for(202, "determinism")
        pos = rng.normal(size=(30, 4))
        neg = rng.normal(size=(40, 4))
        a, _ = train_kernel_classifier(pos, neg, 20, 1.5, 1e-4, seed=5)
        b, _ = train_kernel_classifier(pos, neg, 20, 1.5, 1e-4, seed=5)
        assert a.centers.tobytes() == b.centers.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()
        c, _ = train_kernel_classifier(pos, neg, 20, 1.5, 1e-4, seed=6)
        assert a.centers.tobytes() != c.centers.tobytes()

    def test_score_continuous_in_sigma(self):
        rng = rng_for(202, "sigma")
        pos = rng.normal(loc=1.0, size=(25, 3))
        neg = rng.normal(loc=-1.0, size=(25, 3))
        x = rng.normal(size=3)
        base, _ = train_kernel_classifier(pos, neg, 50, 2.0, 1e-4, seed=1)
        nudged, _ = train_kernel_classifier(pos, neg, 50, 2.0 + 1e-7, 1e-4,
                                            seed=1)
        base, nudged = (m.decision_values(x[None])[0] for m in (base, nudged))
        assert abs(base - nudged) < 1e-4

    def test_negative_scores_are_the_decision_values(self):
        rng = rng_for(202, "negative-scores")
        pos = rng.normal(loc=0.5, size=(67, 6)).astype(np.float32)
        neg = rng.normal(size=(301, 6)).astype(np.float32)
        model, scores = train_kernel_classifier(pos, neg, 131, 2.0, 1e-5,
                                                seed=3)
        assert scores.shape == (301,)
        assert scores.tobytes() == model.decision_values(neg).tobytes()

    def test_symmetric_pair_scores_zero_at_midpoint(self):
        pos = np.array([[1.0, 0.0]])
        neg = np.array([[-1.0, 0.0]])
        model, _ = train_kernel_classifier(pos, neg, 2, 1.0, 1e-4, seed=0)
        assert model.decision_values(np.zeros((1, 2)))[0] == pytest.approx(0.0, abs=1e-12)

    def test_repeated_positive_tiny_lambda_scores_one(self):
        x = np.array([0.5, -0.5, 1.0])
        pos = np.tile(x, (3, 1))
        neg = np.full((1, 3), 100.0)  # far enough to decouple
        model, _ = train_kernel_classifier(pos, neg, 4, 1.0, 1e-9, seed=0)
        assert model.decision_values(x[None])[0] == pytest.approx(1.0, abs=1e-3)

    def test_single_center_decay_and_permutation(self):
        center = np.zeros((1, 3))
        model = KernelClassifier(centers=center, weights=np.array([1.0]),
                                 sigma=2.0, lam=1e-4)
        assert model.decision_values(center)[0] == pytest.approx(1.0)
        radii = model.decision_values(np.array([[r, 0.0, 0.0] for r in (0.5, 1.0, 2.0)]))
        assert radii[0] > radii[1] > radii[2] > 0.0
        zero = KernelClassifier(centers=center, weights=np.array([0.0]),
                                sigma=2.0, lam=1e-4)
        assert zero.decision_values(np.ones(3)[None])[0] == 0.0

    def test_center_permutation_invariance(self):
        rng = rng_for(202, "perm")
        centers = rng.normal(size=(10, 4))
        weights = rng.normal(size=10)
        a = KernelClassifier(centers, weights, 1.5, 1e-4)
        order = rng.permutation(10)
        b = KernelClassifier(centers[order], weights[order], 1.5, 1e-4)
        x = rng.normal(size=4)
        assert a.decision_values(x[None])[0] == pytest.approx(
            b.decision_values(x[None])[0], rel=1e-12)

    def test_argument_validation(self):
        pos = np.ones((5, 3))
        neg = np.zeros((5, 3))
        with pytest.raises(ValueError):
            train_kernel_classifier(pos, neg, 11, 1.0, 1e-4, seed=0)
        with pytest.raises(ValueError):
            train_kernel_classifier(pos, neg, 0, 1.0, 1e-4, seed=0)
        with pytest.raises(ValueError):
            train_kernel_classifier(pos, neg, 5, -1.0, 1e-4, seed=0)
        with pytest.raises(ValueError):
            train_kernel_classifier(pos, neg, 5, 1.0, -1e-9, seed=0)
        with pytest.raises(ValueError):
            train_kernel_classifier(np.array([[np.inf, 0, 0]]), neg, 2, 1.0, 1e-4, seed=0)

    def test_solver_failure_raises_with_diagnostics(self, monkeypatch):
        def boom(*args, **kwargs):
            raise LinAlgError("factorization failed")

        monkeypatch.setattr(kernels, "cho_factor", boom)
        pos = np.ones((4, 2))
        neg = np.zeros((4, 2))
        with pytest.raises(SolverError, match="n=8 m=4"):
            train_kernel_classifier(pos, neg, 4, 1.0, 1e-4, seed=0)


def on_main_thread() -> bool:
    return threading.current_thread() is threading.main_thread()


class JobError(Exception):
    pass


class TestMapJobs:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def test_results_in_item_order_from_both_threads(self):
        main = []

        def job(item):
            main.append(on_main_thread())
            # hold each job long enough for the helper to take some
            threading.Event().wait(0.01)
            return item * item

        assert map_jobs(job, range(8)) == [i * i for i in range(8)]
        assert set(main) == {True, False}

    def test_one_cpu_runs_every_job_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        before = threading.active_count()
        main = []

        def job(item):
            main.append(on_main_thread())
            return -item

        assert map_jobs(job, range(5)) == [0, -1, -2, -3, -4]
        assert main == [True] * 5
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_failure_on_either_thread_propagates(self, failing):
        before = threading.active_count()
        failed = []

        def job(item):
            if on_main_thread() == (failing == "caller"):
                failed.append(item)
                raise JobError(item)
            threading.Event().wait(0.01)
            return item

        with pytest.raises(JobError) as raised:
            map_jobs(job, range(8))
        assert failed == [raised.value.args[0]]
        assert threading.active_count() == before

    def test_lowest_index_failure_wins_and_later_jobs_never_start(self):
        before = threading.active_count()
        started = []
        second_failed = threading.Event()

        def job(item):
            started.append(item)
            if item == 0:
                # job 1 runs on the other thread and fails first
                assert second_failed.wait(10.0)
            else:
                second_failed.set()
            raise JobError(item)

        with pytest.raises(JobError) as raised:
            map_jobs(job, range(4))
        assert raised.value.args == (0,)
        assert sorted(started) == [0, 1]
        assert threading.active_count() == before

    def test_no_job_starts_after_a_failure(self):
        started = []
        failed = threading.Event()

        def job(item):
            started.append(item)
            if item == 1:
                failed.set()
                raise JobError(item)
            if item == 0:
                # job 1 runs on the other thread and fails meanwhile
                assert failed.wait(10.0)
            return item

        with pytest.raises(JobError) as raised:
            map_jobs(job, range(6))
        assert raised.value.args == (1,)
        assert sorted(started) == [0, 1]


class TestRls:
    def test_single_sample_exact(self):
        x = np.array([[1.0, 2.0, 3.0]])
        t = np.array([[0.5, -0.25, 4.0, 1.0]])
        model = train_rls(x, t, lam=1e-3)
        np.testing.assert_allclose(model.predict(x[0]), t[0], atol=1e-12)

    def test_recovers_generating_map(self):
        rng = rng_for(202, "rls")
        w0 = rng.normal(size=(6, 4))
        b0 = rng.normal(size=4)
        x = rng.normal(size=(300, 6))
        t = x @ w0 + b0
        model = train_rls(x, t, lam=1e-8)
        np.testing.assert_allclose(model.weights, w0, atol=1e-5)
        np.testing.assert_allclose(model.bias, b0, atol=1e-5)

    def test_ridge_shrinks_weights(self):
        rng = rng_for(202, "shrink")
        x = rng.normal(size=(50, 5))
        t = rng.normal(size=(50, 2))
        small = train_rls(x, t, lam=1e-6)
        large = train_rls(x, t, lam=1e3)
        assert np.linalg.norm(large.weights) < np.linalg.norm(small.weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            train_rls(np.ones((3, 2)), np.ones((4, 2)), lam=1e-3)
        with pytest.raises(ValueError):
            train_rls(np.ones((3, 2)), np.ones((3, 2)), lam=-1.0)
        with pytest.raises(ValueError, match="positive"):
            train_rls(np.ones((3, 2)), np.ones((3, 2)), lam=0.0)
        with pytest.raises(ValueError):
            train_rls(np.ones((0, 2)), np.ones((0, 2)), lam=1.0)
