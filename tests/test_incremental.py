"""Reservoir tests: quota shrinking, pool equivalence, buffers, the chi-square check."""

import hashlib
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chisquare

from oseg import incremental
from oseg.incremental import (
    DetectionReservoir,
    RpnReservoir,
    SampleReservoir,
    UntrainableClassError,
    per_image_quota,
    sampling_equivalence_test,
    subsample_rows,
)
from oseg.detection import (detection_incremental_update,
                            train_detection_from_reservoir)
from oseg.minibootstrap import BootstrapConfig
from oseg.seeding import rng_for


def tagged_rows(image_index, count, width=4):
    out = np.zeros((count, width))
    out[:, 0] = image_index
    out[:, 1] = np.arange(count)
    return out


class FakeRecord:
    def __init__(self, image_id, labeled, proposal_features=None):
        self.image_id = image_id
        self.labeled = labeled
        self.proposal_features = proposal_features


def dict_labeler(record):
    return record.labeled


def one_shot_pool(records, labeler, config, seed) -> tuple[dict, dict]:
    """Reference stage 1: every image's negatives quota-sampled at once.

    Returns ``(positives, negatives)``: per key, the concatenated
    positives and one negative array per image.  Sampling is reseeded
    per (key, image) exactly as the reservoir does, so one update of an
    empty reservoir must reproduce this pool.
    """
    quota = per_image_quota(config.num_batches, config.batch_size, len(records))
    positives, negatives = {}, {}
    for record in records:
        for key, (pos, neg, _, _) in labeler(record).items():
            positives.setdefault(key, []).append(pos)
            sampled = subsample_rows(
                neg, quota, rng_for(seed, "stage1", key, record.image_id)
            )
            negatives.setdefault(key, []).append(sampled)
    positives = {k: np.concatenate(v) for k, v in positives.items()}
    return positives, negatives


def make_records(start, count, keys=(0,), negatives_per_image=30, positives_on=0):
    """Images with tagged negatives for every key; one image holds positives."""
    records = []
    for i in range(start, start + count):
        labeled = {}
        for key in keys:
            pos = tagged_rows(i, 2) + 1000 if i == positives_on else np.empty((0, 4))
            labeled[key] = (pos, tagged_rows(i, negatives_per_image), (), ())
        records.append(FakeRecord(i, labeled))
    return records


def small_config(num_batches=4, batch_size=100):
    return BootstrapConfig(
        num_batches=num_batches,
        batch_size=batch_size,
        num_centers=10,
        sigma=1.0,
        lam=1e-5,
    )


class TestReservoirQuota:
    def test_quota_shrinks_as_images_accumulate(self):
        res = SampleReservoir(config=small_config(4, 100), seed=0)
        res.update(make_records(0, 100), dict_labeler)
        assert per_image_quota(4, 100, len(res.image_ids)) == 4
        assert all(rows.shape[0] <= 4 for rows in res.negatives[0].values())
        res.update(make_records(100, 100), dict_labeler)
        assert per_image_quota(4, 100, len(res.image_ids)) == 2
        assert all(rows.shape[0] <= 2 for rows in res.negatives[0].values())

    def test_memory_bound_by_quota_times_images(self):
        res = SampleReservoir(config=small_config(4, 100), seed=0)
        for start in (0, 50, 100, 200):
            res.update(make_records(start, 50), dict_labeler)
            total = sum(rows.shape[0] for rows in res.negatives[0].values())
            quota = per_image_quota(4, 100, len(res.image_ids))
            assert total <= quota * len(res.image_ids)

    def test_downsample_keeps_subset_of_original_rows(self):
        res = SampleReservoir(config=small_config(4, 100), seed=7)
        res.update(make_records(0, 10), dict_labeler)
        before = {i: set(map(tuple, rows)) for i, rows in res.negatives[0].items()}
        res.update(make_records(10, 90), dict_labeler)
        for image_id, original in before.items():
            kept = set(map(tuple, res.negatives[0][image_id]))
            assert kept <= original
            assert len(kept) == len(res.negatives[0][image_id])  # no duplicates

    def test_positives_never_evicted(self):
        res = SampleReservoir(config=small_config(4, 100), seed=0)
        res.update(make_records(0, 50, positives_on=0), dict_labeler)
        first = res.positives[0].copy()
        res.update(make_records(50, 50, positives_on=60), dict_labeler)
        assert res.positives[0].shape[0] == first.shape[0] + 2
        np.testing.assert_array_equal(res.positives[0][: first.shape[0]], first)


class TestGenerators:
    def test_only_lists_that_shrink_build_a_generator(self, monkeypatch):
        built = []

        def counting(*components):
            built.append(components)
            return rng_for(*components)

        monkeypatch.setattr(incremental, "rng_for", counting)
        res = DetectionReservoir(config=small_config(4, 100), seed=0)

        def records(start, count):
            # 30 negatives and 30 buffer rows per image
            out = make_records(start, count)
            for record in out:
                record.proposal_features = tagged_rows(record.image_id, 30)
            return out

        res.update(records(0, 10), dict_labeler)  # quota 40
        res.update(records(10, 3), dict_labeler)  # quota 31
        assert built == []
        res.update(records(13, 7), dict_labeler)  # quota 20: every list shrinks
        assert len(built) == 2 * 20


class TestReservoirBookkeeping:
    def test_first_sequence_pool_matches_batch_collection(self):
        records = make_records(0, 25, keys=(0, 1), positives_on=3)
        config = small_config(4, 40)
        res = SampleReservoir(config=config, seed=11)
        res.update(records, dict_labeler)
        positives, negatives = one_shot_pool(records, dict_labeler, config, seed=11)
        assert all(len(res.negative_lists(key)) == len(records) for key in res.keys())
        assert set(res.keys()) == set(positives)
        for key in positives:
            np.testing.assert_array_equal(res.positives[key], positives[key])
            assert len(res.negative_lists(key)) == len(negatives[key])
            for mine, theirs in zip(res.negative_lists(key), negatives[key]):
                np.testing.assert_array_equal(mine, theirs)

    def test_new_key_gets_empty_lists_on_old_images(self):
        res = SampleReservoir(config=small_config(), seed=0)
        res.update(make_records(0, 5, keys=(0,)), dict_labeler)
        res.update(make_records(5, 5, keys=(0, 1), positives_on=5), dict_labeler)
        lists = res.negative_lists(1)
        assert len(lists) == 10
        for rows in lists[:5]:
            assert rows.shape[0] == 0
        assert any(rows.shape[0] for rows in lists[5:])

    def test_duplicate_image_id_rejected(self):
        res = SampleReservoir(config=small_config(), seed=0)
        res.update(make_records(0, 5), dict_labeler)
        with pytest.raises(ValueError, match="twice"):
            res.update(make_records(4, 3), dict_labeler)
        with pytest.raises(ValueError, match="twice"):
            res.update(make_records(20, 2) + make_records(20, 1), dict_labeler)

    def test_empty_sequence_rejected(self):
        res = SampleReservoir(config=small_config(), seed=0)
        with pytest.raises(ValueError, match="at least one record"):
            res.update([], dict_labeler)
        res = DetectionReservoir(config=small_config(), seed=0)
        with pytest.raises(ValueError, match="at least one record"):
            res.update([], dict_labeler)

    def test_feature_width_change_rejected(self):
        res = SampleReservoir(config=small_config(), seed=0)
        res.update(make_records(0, 3), dict_labeler)
        bad = [FakeRecord(9, {0: (np.empty((0, 6)), tagged_rows(9, 4, width=6), (), ())})]
        with pytest.raises(ValueError, match="width"):
            res.update(bad, dict_labeler)

    def test_regression_side_channel_accumulates(self):
        def labeler(record):
            i = record.image_id
            pos, neg, _, _ = record.labeled[0]
            if i % 2:
                return {0: (pos, neg, (), ())}
            return {0: (pos, neg, tagged_rows(i, 3), np.full((3, 4), float(i)))}

        res = SampleReservoir(config=small_config(), seed=0)
        res.update(make_records(0, 4), labeler)
        assert res.reg_features[0].shape == (6, 4)
        assert res.reg_targets[0].shape == (6, 4)
        assert set(res.reg_targets[0][:, 0]) == {0.0, 2.0}

    def test_same_seed_same_pool_bytes(self):
        def run():
            res = RpnReservoir(config=small_config(4, 20), seed=5)
            res.update(make_records(0, 30, positives_on=2), dict_labeler)
            res.update(make_records(30, 30), dict_labeler)
            return res

        a, b = run(), run()
        for key in a.keys():
            np.testing.assert_array_equal(a.positives[key], b.positives[key])
            for x, y in zip(a.negative_lists(key), b.negative_lists(key)):
                np.testing.assert_array_equal(x, y)


def width_records(start, count, width=8):
    """Images with 40 tagged negatives and 40 proposal rows each; the
    first image of the set holds one positive."""
    return [
        FakeRecord(i, {0: (tagged_rows(i, 1 if i == start else 0, width) + 500,
                           tagged_rows(i, 40, width), (), ())},
                   proposal_features=tagged_rows(i, 40, width) - 100)
        for i in range(start, start + count)
    ]


def reservoir_state(res) -> tuple:
    """Everything an update may change, with arrays as bytes."""
    return (
        list(res.image_ids), res.updates, res.feature_dim,
        {k: v.tobytes() for k, v in res.positives.items()},
        {k: [a.tobytes() for a in res.negative_lists(k)] for k in res.keys()},
        {k: a.tobytes() for k, a in getattr(res, "buffers", {}).items()},
    )


@pytest.mark.parametrize("cls", [SampleReservoir, DetectionReservoir])
def test_failed_update_leaves_reservoir_unchanged(cls):
    def filled():
        res = cls(config=small_config(4, 100), seed=0)
        res.update(width_records(0, 10), dict_labeler)
        return res

    res, clean = filled(), filled()
    assert sum(a.shape[0] for a in res.negative_lists(0)) == 400
    # the new quota of 4 rows per image would shrink the stored lists
    bad = width_records(10, 89) + width_records(99, 1, width=9)
    for _ in range(2):
        with pytest.raises(ValueError, match="feature width changed"):
            res.update(bad, dict_labeler)
        assert reservoir_state(res) == reservoir_state(clean)
    good = width_records(10, 90)
    res.update(good, dict_labeler)
    clean.update(good, dict_labeler)
    assert reservoir_state(res) == reservoir_state(clean)


class TestDetectionBuffers:
    def make_detection_records(self, start, count, with_class):
        """Every image has 20 candidate rows; labeled negatives only when
        the class is 'present' (mirrors the real labeler's empty report)."""
        records = []
        for i in range(start, start + count):
            present = with_class(i)
            pos = tagged_rows(i, 1) + 500 if present else np.empty((0, 4))
            neg = tagged_rows(i, 12) if present else np.empty((0, 4))
            records.append(
                FakeRecord(i, {0: (pos, neg, (), ())}, proposal_features=tagged_rows(i, 20) - 100)
            )
        return records

    def test_buffer_substitutes_when_class_absent(self):
        res = DetectionReservoir(config=small_config(4, 40), seed=0)
        records = self.make_detection_records(0, 10, with_class=lambda i: i < 5)
        res.update(records, dict_labeler)
        lists = res.negative_lists(0)
        for image_index in range(10):
            rows = lists[image_index]
            assert rows.shape[0] > 0
            if image_index < 5:
                assert (rows[:, 0] >= 0).all()      # stored negatives
            else:
                assert (rows[:, 0] < 0).all()       # buffer rows stand in

    def test_buffers_downsampled_on_later_updates(self):
        res = DetectionReservoir(config=small_config(4, 40), seed=0)
        res.update(
            self.make_detection_records(0, 10, with_class=lambda i: False),
            dict_labeler,
        )
        first = {i: set(map(tuple, rows)) for i, rows in res.buffers.items()}
        res.update(
            self.make_detection_records(10, 30, with_class=lambda i: False),
            dict_labeler,
        )
        quota = per_image_quota(4, 40, len(res.image_ids))
        for image_id, original in first.items():
            assert res.buffers[image_id].shape[0] <= quota
            assert set(map(tuple, res.buffers[image_id])) <= original

    def test_new_class_stores_only_the_images_that_bring_it(self):
        # 10 old images know class 0; of 10 new ones, 2 bring class 1
        res = DetectionReservoir(config=small_config(4, 40), seed=0)
        res.update(self.make_detection_records(0, 10, with_class=lambda i: True),
                   dict_labeler)
        later = self.make_detection_records(10, 10, with_class=lambda i: True)
        for record in later:
            present = record.image_id in (12, 17)
            pos = tagged_rows(record.image_id, 1) + 700 if present else np.empty((0, 4))
            neg = tagged_rows(record.image_id, 12) + 300 if present else np.empty((0, 4))
            record.labeled[1] = (pos, neg, (), ())
        res.update(later, dict_labeler)
        assert set(res.negatives[1]) == {12, 17}
        assert all(rows.shape[0] for per_image in res.negatives.values()
                   for rows in per_image.values())
        lists = res.negative_lists(1)
        for image_id, rows in zip(res.image_ids, lists, strict=True):
            if image_id in (12, 17):
                assert rows.shape[0] == 8 and (rows[:, 0] == image_id + 300).all()
            else:
                assert rows is res.buffers[image_id]
        # the bytes that explicit empty entries on the other 18 images
        # gave, with every row as the float32 the reservoir stores
        digest = hashlib.sha256()
        for rows in lists:
            digest.update(repr(rows.shape).encode() + rows.tobytes())
        assert digest.hexdigest() == (
            "fe916fa0fba473f725a7fa0cc04d9bf44a417ff0729d37972ca3002dbfe0c880")

    def test_fork_takes_updates_the_original_does_not(self):
        res = DetectionReservoir(config=small_config(4, 40), seed=0)
        records = self.make_detection_records(0, 5, with_class=lambda i: True)
        res.update(records, dict_labeler)
        positives, lists = res.positives[0], res.negative_lists(0)
        buffers = dict(res.buffers)
        fork = res.fork()
        later = self.make_detection_records(5, 30, with_class=lambda i: i % 2)
        fork.update(later, dict_labeler)
        assert (len(fork.image_ids), len(res.image_ids)) == (35, 5)
        assert res.image_ids == list(range(5))
        assert res.buffers.keys() == buffers.keys()
        for image_id, rows in buffers.items():
            assert res.buffers[image_id] is rows
        np.testing.assert_array_equal(res.positives[0], positives)
        for x, y in zip(res.negative_lists(0), lists, strict=True):
            np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("cls", [SampleReservoir, DetectionReservoir])
def test_feature_arrays_stay_float32(cls):
    """Rows arrive as float64 and are kept as float32 through two updates
    and a fork; the box-offset targets stay float64."""
    def records(start, count):
        out = []
        for i in range(start, start + count):
            pos = tagged_rows(i, 1) + 500 if i % 3 else np.empty((0, 4))
            neg = tagged_rows(i, 12) if i % 2 else ()
            out.append(FakeRecord(
                i, {0: (pos, neg, pos, np.ones((len(pos), 4)) if len(pos) else ()),
                    1: ((), (), (), ())},
                proposal_features=tagged_rows(i, 20) - 100))
        return out

    def feature_arrays(res):
        arrays = [*res.positives.values(), *res.reg_features.values(),
                  *getattr(res, "buffers", {}).values()]
        for key in res.keys():
            arrays += res.negative_lists(key)
        return arrays

    res = cls(config=small_config(4, 40), seed=0)
    res.update(records(0, 10), dict_labeler)
    res.update(records(10, 10), dict_labeler)
    fork = res.fork()
    fork.update(records(20, 10), dict_labeler)
    for reservoir in (res, fork):
        arrays = feature_arrays(reservoir)
        assert len(arrays) > 2 * len(reservoir.image_ids)
        assert all(a.dtype == np.float32 for a in arrays)
        assert all(a.dtype == np.float64 for a in reservoir.reg_targets.values())
        # key 1 never had a row: its positives are the zero-row placeholder
        assert reservoir.positives[1].shape == (0, 4)
        # a concatenated pool stays float32 too
        assert np.concatenate(reservoir.negative_lists(0)).dtype == np.float32


class TestEquivalence:
    def test_single_stage_uniform(self):
        result = sampling_equivalence_test(5, 3, trials=6000, seed=0)
        assert result.num_subsets == 10
        assert result.dof == 9
        assert result.passed
        assert result.p_value > 0.01

    def test_chained_uniform(self):
        result = sampling_equivalence_test(5, 2, chain=(4, 3), trials=4000, seed=1)
        assert result.num_subsets == 10
        assert result.passed

    def test_biased_sampler_detected(self):
        def biased(rows, k, rng):
            if rows.shape[0] <= k:
                return rows
            return rows[:k]  # always the head: grossly non-uniform

        result = sampling_equivalence_test(
            5, 3, chain=(4,), trials=6000, seed=2, sampler=biased
        )
        assert not result.passed
        assert result.p_value < 1e-6

    def test_statistic_and_p_value_are_scipy_chisquare(self):
        counts = [61, 44, 50, 57, 38, 50]
        draws = iter([subset for subset, count
                      in zip(combinations(range(4), 2), counts)
                      for _ in range(count)])

        def scripted(rows, k, rng):
            return np.array(next(draws))

        result = sampling_equivalence_test(4, 2, trials=sum(counts), seed=0,
                                           sampler=scripted)
        want = chisquare(counts)
        assert result.statistic == want.statistic
        assert result.p_value == want.pvalue

    def test_cli_and_pipeline_leave_scipy_stats_unimported(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", "import sys, oseg.cli, oseg.pipeline; "
             "print('scipy.stats' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="non-increasing"):
            sampling_equivalence_test(4, 3, chain=(2,), trials=100000)
        with pytest.raises(ValueError, match="too many"):
            sampling_equivalence_test(30, 15, trials=10**9)
        with pytest.raises(ValueError, match="at least"):
            sampling_equivalence_test(5, 3, trials=400)


class TestIncrementalGuards:
    def make_records(self, start, count, class_ids):
        from oseg.synthetic import SyntheticWorld

        world = SyntheticWorld(
            class_names=["a", "b", "c"],
            noise=0.0,
            seed=3,
            active_classes=class_ids,
            max_objects=1,
        )
        return list(world.generate(count, start_id=start)), world

    def test_starved_new_class_raises(self):
        records, _ = self.make_records(0, 3, [0])
        res = DetectionReservoir(config=small_config(2, 30), seed=0)
        detection_incremental_update(res, records, [0, 2])
        with pytest.raises(UntrainableClassError) as info:
            train_detection_from_reservoir(res, seed=0)
        assert info.value.keys == (2,)
