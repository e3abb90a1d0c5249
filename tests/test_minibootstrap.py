"""Hard-negative mining tests: pooling quotas, batching, the mining loop."""

import numpy as np
import pytest

from oseg import minibootstrap
from oseg.incremental import SampleReservoir, per_image_quota, subsample_rows
from oseg.minibootstrap import (
    BootstrapConfig,
    make_batches,
    mine_hard_negatives,
    run_minibootstrap,
)
from oseg.seeding import rng_for


def tagged_rows(image_index, count, width=4):
    """Rows whose first two columns identify the source image and row."""
    out = np.zeros((count, width))
    out[:, 0] = image_index
    out[:, 1] = np.arange(count)
    return out


class FakeRecord:
    def __init__(self, image_id, labeled):
        self.image_id = image_id
        self.labeled = labeled


def reservoir_pool(records, config, seed):
    """Stage 1 of a single sequence: a reservoir filled once."""
    reservoir = SampleReservoir(config=config, seed=seed)
    reservoir.update(
        records, lambda r: {k: (p, n, (), ()) for k, (p, n) in r.labeled.items()}
    )
    return reservoir


def negative_count(pool, key) -> int:
    return sum(a.shape[0] for a in pool.negative_lists(key))


def single_key_records(per_image, positives):
    """Records exposing one problem key 0 with shared positives."""
    records = []
    for i, neg in enumerate(per_image):
        pos = positives if i == 0 else np.empty((0, neg.shape[1] or 4))
        records.append(FakeRecord(i, {0: (pos, neg)}))
    return records


class TestQuota:
    def test_hand_values(self):
        assert per_image_quota(10, 2000, 11320) == 2    # ceil(20000/11320)
        assert per_image_quota(12, 2000, 20156) == 2    # ceil(24000/20156)
        assert per_image_quota(1, 10, 10) == 1
        assert per_image_quota(10, 2000, 541) == 37     # ceil(36.97...)
        assert per_image_quota(4, 3, 5) == 3            # ceil(2.4)
        with pytest.raises(ValueError):
            per_image_quota(2, 5, 0)


class TestSubsampleRows:
    def test_without_replacement(self):
        rows = tagged_rows(0, 50)
        out = subsample_rows(rows, 20, rng_for(1))
        assert out.shape == (20, 4)
        assert len(set(out[:, 1].tolist())) == 20

    def test_short_input_passthrough(self):
        rows = tagged_rows(0, 3)
        out = subsample_rows(rows, 10, rng_for(1))
        assert out is rows


class TestCollectPool:
    def config(self, num_batches, batch_size):
        return BootstrapConfig(num_batches=num_batches, batch_size=batch_size,
                               num_centers=10, sigma=1.0, lam=1e-5)

    def test_quota_respected_per_image(self):
        records = single_key_records(
            [tagged_rows(i, 30) for i in range(6)], tagged_rows(99, 5)
        )
        pool = reservoir_pool(records, self.config(4, 12), seed=1)
        # quota = ceil(48 / 6) = 8 per image
        assert len(pool.negative_lists(0)) == 6
        assert all(a.shape[0] <= 8 for a in pool.negative_lists(0))
        assert negative_count(pool, 0) == 48
        assert pool.positives[0].shape == (5, 4)

    def test_all_kept_when_under_quota(self):
        records = single_key_records([tagged_rows(0, 3)], tagged_rows(9, 2))
        pool = reservoir_pool(records, self.config(2, 10), seed=1)
        assert negative_count(pool, 0) == 3

    def test_exact_pool_count(self):
        # 10 images, quota 2, plenty available: exactly 20 pooled
        records = single_key_records(
            [tagged_rows(i, 9) for i in range(10)], tagged_rows(99, 1)
        )
        pool = reservoir_pool(records, self.config(2, 10), seed=2)
        assert negative_count(pool, 0) == 20

    def test_image_without_positives_still_contributes_negatives(self):
        records = single_key_records(
            [tagged_rows(0, 10), tagged_rows(1, 10)], tagged_rows(9, 3)
        )
        pool = reservoir_pool(records, self.config(2, 10), seed=3)
        contributed = {int(a[0, 0]) for a in pool.negative_lists(0) if a.shape[0]}
        assert contributed == {0, 1}

    def test_untrainable_key_reported(self):
        records = [FakeRecord(0, {0: (tagged_rows(9, 2), tagged_rows(0, 5)),
                                  1: (np.empty((0, 4)), tagged_rows(0, 5))})]
        pool = reservoir_pool(records, self.config(2, 10), seed=4)
        result = run_minibootstrap(pool, seed=4)
        assert result.failures == {1: "no positive samples"}
        assert set(result.classifiers) == {0}

    def test_deterministic_per_image_and_key(self):
        records = single_key_records(
            [tagged_rows(i, 25) for i in range(4)], tagged_rows(99, 2)
        )
        a = reservoir_pool(records, self.config(3, 8), seed=77)
        b = reservoir_pool(records, self.config(3, 8), seed=77)
        for x, y in zip(a.negative_lists(0), b.negative_lists(0)):
            np.testing.assert_array_equal(x, y)
        c = reservoir_pool(records, self.config(3, 8), seed=78)
        assert any(
            x.tobytes() != y.tobytes()
            for x, y in zip(a.negative_lists(0), c.negative_lists(0))
        )


class TestMakeBatches:
    def pool_of(self, per_image, num_batches, batch_size):
        records = single_key_records(per_image, tagged_rows(99, 2))
        cfg = BootstrapConfig(num_batches=num_batches, batch_size=batch_size,
                              num_centers=10, sigma=1.0, lam=1e-5)
        return reservoir_pool(records, cfg, seed=5), cfg

    def test_full_batches(self):
        pool, cfg = self.pool_of([tagged_rows(i, 10) for i in range(4)], 2, 10)
        batches = make_batches(pool.negative_lists(0), 0, cfg, seed=5)
        assert [b.shape[0] for b in batches] == [10, 10]
        rows = {(int(r[0]), int(r[1])) for b in batches for r in b}
        assert len(rows) == 20  # no duplicates across batches

    def test_partial_last_batch_warns(self):
        pool, cfg = self.pool_of([tagged_rows(0, 9), tagged_rows(1, 6)], 2, 10)
        with pytest.warns(UserWarning, match="short"):
            batches = make_batches(pool.negative_lists(0), 0, cfg, seed=5)
        assert [b.shape[0] for b in batches] == [10, 5]

    def test_zero_negatives_error(self):
        pool, cfg = self.pool_of([np.empty((0, 4))], 2, 10)
        with pytest.raises(ValueError, match="no negatives"):
            make_batches(pool.negative_lists(0), 0, cfg, seed=5)

    def test_deterministic(self):
        pool, cfg = self.pool_of([tagged_rows(i, 30) for i in range(3)], 3, 10)
        a = make_batches(pool.negative_lists(0), 0, cfg, seed=6)
        b = make_batches(pool.negative_lists(0), 0, cfg, seed=6)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def blob_setup(n_pos=40, n_images=8, per_image=60, easy_frac=0.8, seed=100):
    """Positives at +2, negatives mostly far (easy) with a hard band near 0."""
    rng = rng_for(seed, "blob")
    pos = rng.normal(loc=2.0, scale=0.25, size=(n_pos, 5))
    images = []
    for i in range(n_images):
        n_easy = int(per_image * easy_frac)
        easy = rng.normal(loc=-3.0, scale=0.3, size=(n_easy, 5))
        hard = rng.normal(loc=0.8, scale=0.3, size=(per_image - n_easy, 5))
        images.append(np.concatenate([easy, hard]))
    return pos, images


def blob_pool(pos, images, cfg, seed):
    records = single_key_records(images, pos)
    return reservoir_pool(records, cfg, seed=seed)


class TestMineHardNegatives:
    def config(self, **kw):
        base = dict(num_batches=4, batch_size=80, num_centers=200,
                    sigma=2.0, lam=1e-5)
        base.update(kw)
        return BootstrapConfig(**base)

    def test_stats_bookkeeping(self):
        pos, images = blob_setup()
        cfg = self.config()
        pool = blob_pool(pos, images, cfg, seed=1)
        batches = make_batches(pool.negative_lists(0), 0, cfg, seed=1)
        model, stats = mine_hard_negatives(pos, batches, cfg, seed=1)
        assert stats.num_positives == 40
        assert len(stats.iterations) == len(batches)
        prev_active = 0
        for it in stats.iterations:
            assert it.training_size == stats.num_positives + prev_active + it.hard_added
            assert it.active_negatives == prev_active + it.hard_added - it.easy_pruned
            assert it.centers_used <= min(200, it.training_size)
            assert it.train_seconds >= 0.0
            prev_active = it.active_negatives
        assert stats.iterations[0].hard_added == batches[0].shape[0]

    def test_final_model_separates_and_prunes(self):
        pos, images = blob_setup()
        cfg = self.config()
        pool = blob_pool(pos, images, cfg, seed=2)
        batches = make_batches(pool.negative_lists(0), 0, cfg, seed=2)
        model, stats = mine_hard_negatives(pos, batches, cfg, seed=2)
        assert (model.decision_values(pos) > 0).mean() > 0.95
        assert model.decision_values(np.full(5, -3.0)[None])[0] < 0
        # separable data: almost all easy negatives get pruned away
        total = sum(b.shape[0] for b in batches)
        assert stats.iterations[-1].active_negatives < 0.1 * total

    def test_identical_batches_add_only_margin_violators(self):
        # six hand-placed negatives: three easy at -3, three hard at +0.5
        rng = rng_for(42)
        pos = rng.normal(loc=2.0, scale=0.1, size=(10, 3))
        batch = np.vstack([
            np.full((3, 3), -3.0) + rng.normal(scale=0.05, size=(3, 3)),
            np.full((3, 3), 0.5) + rng.normal(scale=0.05, size=(3, 3)),
        ])
        cfg = self.config(num_batches=2, batch_size=6, num_centers=16)
        model, stats = mine_hard_negatives(pos, [batch, batch.copy()], cfg, seed=7)
        first = mine_hard_negatives(pos, [batch], cfg, seed=7)[0]
        scores = first.decision_values(batch)
        expected_hard = int((scores >= minibootstrap.HARD_THRESHOLD).sum())
        assert stats.iterations[1].hard_added == expected_hard
        assert 0 < expected_hard < 6

    def test_never_prune_never_reject(self, monkeypatch):
        monkeypatch.setattr(minibootstrap, "HARD_THRESHOLD", -np.inf)
        monkeypatch.setattr(minibootstrap, "EASY_THRESHOLD", -np.inf)
        pos, images = blob_setup(n_images=4, per_image=30)
        cfg = self.config(num_batches=3, batch_size=40)
        pool = blob_pool(pos, images, cfg, seed=3)
        batches = make_batches(pool.negative_lists(0), 0, cfg, seed=3)
        total = sum(b.shape[0] for b in batches)
        model, stats = mine_hard_negatives(pos, batches, cfg, seed=3)
        assert stats.iterations[-1].active_negatives == total
        assert sum(it.easy_pruned for it in stats.iterations) == 0
        assert stats.iterations[-1].training_size == 40 + total

    def test_reject_all_keeps_first_batch_only(self, monkeypatch):
        monkeypatch.setattr(minibootstrap, "HARD_THRESHOLD", np.inf)
        monkeypatch.setattr(minibootstrap, "EASY_THRESHOLD", -np.inf)
        pos, images = blob_setup(n_images=4, per_image=30)
        cfg = self.config(num_batches=3, batch_size=40)
        pool = blob_pool(pos, images, cfg, seed=4)
        batches = make_batches(pool.negative_lists(0), 0, cfg, seed=4)
        model, stats = mine_hard_negatives(pos, batches, cfg, seed=4)
        assert [it.hard_added for it in stats.iterations[1:]] == [0, 0]
        assert stats.iterations[-1].active_negatives == batches[0].shape[0]

    def test_deterministic(self):
        pos, images = blob_setup()
        cfg = self.config()
        pool = blob_pool(pos, images, cfg, seed=5)
        batches = make_batches(pool.negative_lists(0), 0, cfg, seed=5)
        a, _ = mine_hard_negatives(pos, batches, cfg, seed=5)
        b, _ = mine_hard_negatives(pos, batches, cfg, seed=5)
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.centers.tobytes() == b.centers.tobytes()

    def test_input_validation(self):
        cfg = self.config()
        with pytest.raises(ValueError, match="positive"):
            mine_hard_negatives(np.empty((0, 3)), [np.ones((2, 3))], cfg, 0)
        with pytest.raises(ValueError, match="batch"):
            mine_hard_negatives(np.ones((2, 3)), [], cfg, 0)


class TestRunMinibootstrap:
    def test_multi_key_with_failures(self):
        pos, images = blob_setup(n_images=4, per_image=40)
        cfg = BootstrapConfig(num_batches=2, batch_size=40, num_centers=100,
                              sigma=2.0, lam=1e-5)
        records = []
        for i, neg in enumerate(images):
            labeled = {
                "good": (pos if i == 0 else np.empty((0, 5)), neg),
                "no_pos": (np.empty((0, 5)), neg),
            }
            records.append(FakeRecord(i, labeled))
        pool = reservoir_pool(records, cfg, seed=6)
        result = run_minibootstrap(pool, seed=6)
        assert set(result.classifiers) == {"good"}
        assert result.failures == {"no_pos": "no positive samples"}
        assert set(result.stats) == {"good"}
        assert len(result.stats["good"].iterations) == 2

    def test_deterministic_across_runs(self):
        pos, images = blob_setup(n_images=4, per_image=40)
        cfg = BootstrapConfig(num_batches=2, batch_size=40, num_centers=100,
                              sigma=2.0, lam=1e-5)
        records = single_key_records(images, pos)
        pool = reservoir_pool(records, cfg, seed=8)
        a = run_minibootstrap(pool, seed=8)
        b = run_minibootstrap(pool, seed=8)
        assert a.classifiers[0].weights.tobytes() == b.classifiers[0].weights.tobytes()
