"""Acceptance gate: ten checks, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``.  Every check states its
tolerance and, where bounded, its wall-clock budget; the printed lines
bypass output capture so the verdicts are visible in a normal run.
``test_batch_count_cost_grows`` is no check: it counts the solver work
behind check 03's timings, so the trend it times has a deterministic
witness.
"""

import time
import warnings

import numpy as np
import pytest

from oseg import detection, pipeline, rpn
from oseg.evaluation import average_precision, evaluate
from oseg.incremental import sampling_equivalence_test
from oseg.kernels import gaussian_kernel, train_kernel_classifier
from oseg.minibootstrap import run_minibootstrap
from oseg.model_io import classifier_bytes
from oseg.pipeline import ProtocolConfig, WorldFeaturizer, stream_residual
from oseg.synthetic import SyntheticWorld

from test_evaluation import gt, pred, oracle_average_precision, \
    random_instance

SWEEP_CONFIG = ProtocolConfig(num_batches=5, batch_size=2000, seed=4)


def announce(capsys, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({detail})")
    assert ok, f"{name}: {detail}"


def quiet(fn, *args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return fn(*args, **kw)


def percent_maps(model, records, featurizer):
    preds = pipeline.infer_dataset(model, records, featurizer)
    report = evaluate(preds, records)
    return {(kind, thr): 100.0 * report.mean_ap(kind, thr)
            for kind in ("bbox", "segm") for thr in (0.5, 0.7)}


@pytest.fixture(scope="module")
def sweep_world():
    return SyntheticWorld(class_names=tuple(f"c{i}" for i in range(5)),
                          noise=0.15, seed=11)


@pytest.fixture(scope="module")
def sweep_train(sweep_world):
    return list(sweep_world.generate(300))


@pytest.fixture(scope="module")
def sweep_test(sweep_world):
    return list(sweep_world.generate(60, start_id=5000))


@pytest.fixture(scope="module")
def sweep_featurizer(sweep_world):
    return WorldFeaturizer(sweep_world)


def test_01_sampling_equivalence(capsys):
    t0 = time.perf_counter()
    result = sampling_equivalence_test(6, 2, chain=(4, 3), trials=150000,
                                       seed=0)

    def head(rows, k, rng):
        return rows[:k]

    control = sampling_equivalence_test(6, 2, chain=(4, 3), trials=150000,
                                        seed=0, sampler=head)
    elapsed = time.perf_counter() - t0
    ok = result.passed and not control.passed and elapsed < 10.0
    announce(capsys, 1, "sampling-equivalence", ok,
             f"p={result.p_value:.4f} > 0.01 over {result.num_subsets} "
             f"subsets, biased control p={control.p_value:.1e}, "
             f"{elapsed:.1f}s < 10s")


def test_02_solver_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n, dim, sigma, lam = 200, 8, 1.0, 1e-3
    points = rng.normal(size=(n, dim))
    labels = np.where(points @ rng.normal(size=dim) > 0.0, 1.0, -1.0)
    clf, _ = train_kernel_classifier(points[labels > 0], points[labels < 0],
                                     num_centers=n, sigma=sigma, lam=lam,
                                     seed=0)
    kernel = gaussian_kernel(points, points, sigma)
    dense = np.linalg.solve(kernel + n * lam * np.eye(n), labels)
    probes = rng.normal(size=(50, dim))
    reference = gaussian_kernel(probes, points, sigma) @ dense
    gap = float(np.linalg.norm(clf.decision_values(probes) - reference)
                / np.linalg.norm(reference))
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-6 and elapsed < 5.0
    announce(capsys, 2, "solver-equivalence", ok,
             f"all-centers vs dense relative gap {gap:.2e} <= 1e-06, "
             f"{elapsed:.1f}s < 5s")


def test_03_batch_count_tradeoff(capsys, sweep_world, sweep_train,
                                 sweep_test, sweep_featurizer):
    t0 = time.perf_counter()
    batch_counts = (2, 5, 10)
    seconds = {n: [] for n in batch_counts}
    models = {}
    # each batch count is timed as the fastest of 3 same-seed trainings,
    # whose models are identical: one training's host noise exceeds the
    # 5 -> 10-batch work step.  The 3 rounds visit every count in turn, so
    # that a slow stretch of the host falls on all counts alike.
    for _ in range(3):
        for n in batch_counts:
            result = quiet(pipeline.train_ours, sweep_world.header(),
                           sweep_train, SWEEP_CONFIG.replace(num_batches=n))
            seconds[n].append(result.ledger.post_acquisition_seconds())
            models[n] = result.model
    times = [min(seconds[n]) for n in batch_counts]
    scores = [percent_maps(models[n], sweep_test,
                           sweep_featurizer)[("segm", 0.5)]
              for n in batch_counts]
    elapsed = time.perf_counter() - t0
    non_decreasing = (scores[1] >= scores[0] - 2.0
                      and scores[2] >= scores[1] - 2.0)
    time_grows = times[0] < times[1] < times[2]
    ok = non_decreasing and time_grows and elapsed < 180.0
    announce(capsys, 3, "batch-count-tradeoff", ok,
             f"mAP50 segm {scores[0]:.1f} -> {scores[1]:.1f} -> "
             f"{scores[2]:.1f} (2-pt band), fastest of 3 trainings "
             f"{times[0]:.1f}s -> {times[1]:.1f}s -> {times[2]:.1f}s, "
             f"{elapsed:.0f}s < 180s")


def test_batch_count_cost_grows(monkeypatch, sweep_world, sweep_train):
    """Check 03's time trend without a clock: the solver work of every
    mining fit on both reservoirs, the ``K_nm^T K_nm`` product
    (n * m^2) and the Cholesky factor (m^3), grows with the batch count."""
    stats = []

    def recording(reservoir, seed):
        result = run_minibootstrap(reservoir, seed)
        stats.extend(result.stats.values())
        return result

    monkeypatch.setattr(rpn, "run_minibootstrap", recording)
    monkeypatch.setattr(detection, "run_minibootstrap", recording)
    products, factors = [], []
    for num_batches in (2, 5, 10):
        stats.clear()
        trainer = pipeline.IncrementalTrainer(
            sweep_world.header(), SWEEP_CONFIG.replace(num_batches=num_batches))
        quiet(trainer.add_sequence, sweep_train)
        fits = [it for s in stats for it in s.iterations]
        products.append(sum(it.training_size * it.centers_used ** 2
                            for it in fits))
        factors.append(sum(it.centers_used ** 3 for it in fits))
    assert products[0] < products[1] < products[2], products
    assert factors[0] < factors[1] < factors[2], factors


def test_04_incremental_matches_batch(capsys, sweep_world, sweep_train,
                                      sweep_test, sweep_featurizer):
    t0 = time.perf_counter()
    header = sweep_world.header()
    batch = quiet(pipeline.train_ours, header, sweep_train, SWEEP_CONFIG)
    thirds = [sweep_train[0:100], sweep_train[100:200], sweep_train[200:300]]
    trainer = pipeline.IncrementalTrainer(header, SWEEP_CONFIG)
    for records in thirds:
        inc = quiet(trainer.add_sequence, records)
    a = percent_maps(batch.model, sweep_test, sweep_featurizer)
    b = percent_maps(inc.model, sweep_test, sweep_featurizer)
    gap_bbox = abs(a[("bbox", 0.5)] - b[("bbox", 0.5)])
    gap_segm = abs(a[("segm", 0.5)] - b[("segm", 0.5)])
    elapsed = time.perf_counter() - t0
    ok = gap_bbox <= 2.0 and gap_segm <= 2.0 and elapsed < 240.0
    announce(capsys, 4, "incremental-matches-batch", ok,
             f"3-sequence vs single-shot mAP50 gaps: bbox "
             f"{gap_bbox:.2f} pts, segm {gap_segm:.2f} pts (limit 2), "
             f"{elapsed:.0f}s < 240s")


def test_05_old_class_stability(capsys):
    t0 = time.perf_counter()
    world = SyntheticWorld(class_names=tuple(f"c{i}" for i in range(6)),
                           noise=0.15, seed=13, active_classes=(0, 1, 2, 3, 4))
    old_train = list(world.generate(150))
    old_test = list(world.generate(50, start_id=9000))
    featurizer = WorldFeaturizer(world)
    trainer = pipeline.IncrementalTrainer(world.header(), SWEEP_CONFIG)
    before_model = quiet(trainer.add_sequence, old_train).model
    before = percent_maps(before_model, old_test, featurizer)
    seg_before = {n: classifier_bytes(c) for n, c
                  in before_model.segmentation.classifiers.items()}

    world.active_classes = (0, 1, 2, 3, 4, 5)
    new_train = list(world.generate(100, start_id=200))
    after_model = quiet(trainer.add_sequence, new_train).model
    after = percent_maps(after_model, old_test, featurizer)

    drop_bbox = before[("bbox", 0.5)] - after[("bbox", 0.5)]
    drop_segm = before[("segm", 0.5)] - after[("segm", 0.5)]
    seg_unchanged = all(
        classifier_bytes(after_model.segmentation.classifiers[n]) == payload
        for n, payload in seg_before.items())
    grew = after_model.detection.class_ids == (0, 1, 2, 3, 4, 5)
    elapsed = time.perf_counter() - t0
    ok = (drop_bbox < 3.0 and drop_segm < 3.0 and seg_unchanged and grew
          and elapsed < 120.0)
    announce(capsys, 5, "old-class-stability", ok,
             f"after 6th class: old-5 mAP50 drop bbox {drop_bbox:.2f} / "
             f"segm {drop_segm:.2f} pts (limit 3), old seg bytes "
             f"{'unchanged' if seg_unchanged else 'CHANGED'}, "
             f"{elapsed:.0f}s < 120s")


def test_06_protocol_tradeoff(capsys, sweep_world, sweep_train, sweep_test,
                              sweep_featurizer):
    t0 = time.perf_counter()
    header = sweep_world.header()
    ours = quiet(pipeline.train_ours, header, sweep_train, SWEEP_CONFIG)
    serial = quiet(pipeline.train_ours_serial, header, sweep_train,
                   SWEEP_CONFIG.replace(protocol="ours_serial"),
                   sweep_featurizer)
    time_ours = ours.ledger.post_acquisition_seconds()
    time_serial = serial.ledger.post_acquisition_seconds()
    segm_ours = percent_maps(ours.model, sweep_test,
                             sweep_featurizer)[("segm", 0.5)]
    segm_serial = percent_maps(serial.model, sweep_test,
                               sweep_featurizer)[("segm", 0.5)]
    passes = (ours.ledger.extraction_passes,
              serial.ledger.extraction_passes)
    elapsed = time.perf_counter() - t0
    ok = (time_ours < time_serial and segm_ours >= segm_serial - 3.0
          and passes == (1, 2) and elapsed < 180.0)
    announce(capsys, 6, "protocol-tradeoff", ok,
             f"post-acquisition {time_ours:.1f}s < {time_serial:.1f}s, "
             f"mAP50 segm {segm_ours:.1f} vs {segm_serial:.1f} "
             f"(-3 allowed), extraction passes {passes[0]} vs {passes[1]}, "
             f"{elapsed:.0f}s < 180s")


def test_07_stream_absorption(capsys):
    t0 = time.perf_counter()
    world = SyntheticWorld(class_names=("a", "b"), noise=0.0, seed=2)
    records = list(world.generate(90))
    gen_setup = time.perf_counter() - t0
    config = ProtocolConfig(num_batches=1, batch_size=100, rpn_centers=30,
                            detection_centers=30, segmentation_centers=20,
                            seed=1)
    t0 = time.perf_counter()
    absorbed = quiet(pipeline.simulate_stream, world.header(), records,
                     3.0, 14.7, config)
    backlog = quiet(pipeline.simulate_stream, world.header(), records,
                    3.0, 1.0, config)
    elapsed = time.perf_counter() - t0
    exact = (stream_residual(90, 3.0, 1.0) == 60.0
             and backlog.residual_seconds == 60.0)
    ok = (absorbed.residual_seconds == 0.0 and exact and elapsed < 1.0)
    announce(capsys, 7, "stream-absorption", ok,
             f"fast extraction residual {absorbed.residual_seconds} s, "
             f"90 frames at 3 FPS / 1 FPS extraction residual "
             f"{backlog.residual_seconds} s (want exactly 60), "
             f"{elapsed:.2f}s < 1s (+{gen_setup:.1f}s data setup)")


def test_08_end_to_end_learnability(capsys):
    t0 = time.perf_counter()
    world = SyntheticWorld(class_names=tuple(f"c{i}" for i in range(5)),
                           noise=0.0, seed=17)
    train = list(world.generate(200))
    test = list(world.generate(50, start_id=7000))
    result = quiet(pipeline.train_ours, world.header(), train, SWEEP_CONFIG)
    maps = percent_maps(result.model, test, WorldFeaturizer(world))
    elapsed = time.perf_counter() - t0
    ok = (maps[("bbox", 0.5)] >= 95.0 and maps[("segm", 0.5)] >= 90.0
          and maps[("segm", 0.7)] >= 80.0 and elapsed < 120.0)
    announce(capsys, 8, "end-to-end-learnability", ok,
             f"noise-free 5-class: mAP50 bbox {maps[('bbox', 0.5)]:.1f} "
             f">= 95, mAP50 segm {maps[('segm', 0.5)]:.1f} >= 90, mAP70 "
             f"segm {maps[('segm', 0.7)]:.1f} >= 80, {elapsed:.0f}s < 120s")


def test_09_evaluator_correctness(capsys):
    t0 = time.perf_counter()

    class Rec:
        def __init__(self, image_id, gts):
            self.image_id = image_id
            self.gt_objects = tuple(gts)

    # hand-traced: TP(1.0) FP(0.9) TP(0.8) over two gts in one image;
    # area under the interpolated curve is 0.5*1 + 0.5*(2/3), i.e. 5/6,
    # spelled in the float arithmetic the recall-step sum performs
    records = [Rec(0, [gt(0, (10, 10, 50, 50)), gt(0, (100, 100, 140, 140))])]
    preds = [pred(0, 0, 1.0, (10, 10, 50, 50)),
             pred(0, 0, 0.9, (200, 200, 240, 240)),
             pred(0, 0, 0.8, (100, 100, 140, 140))]
    traces = [(average_precision(preds, records, 0),
               0.5 * 1.0 + 0.5 * (2.0 / 3.0))]
    # duplicate detections of one gt: second is a FP but comes after recall 1
    records2 = [Rec(0, [gt(1, (10, 10, 50, 50))])]
    dup = [pred(0, 1, 0.9, (10, 10, 50, 50)),
           pred(0, 1, 0.8, (11, 11, 51, 51))]
    traces.append((average_precision(dup, records2, 1), 1.0))
    # equal scores break ties by image id: the image-0 FP ranks first,
    # so precision at full recall is 1/2 (a TP-first ordering would give 1)
    records3 = [Rec(0, []), Rec(1, [gt(0, (10, 10, 50, 50))])]
    tie = [pred(1, 0, 0.5, (10, 10, 50, 50)),
           pred(0, 0, 0.5, (200, 200, 240, 240))]
    traces.append((average_precision(tie, records3, 0), 0.5))
    # a class with no ground truth is reported as None
    traces.append((average_precision(preds, records, 7), None))
    hand_ok = all(got == want for got, want in traces)

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rand_records, rand_preds = random_instance(rng)
        assert len(rand_preds) <= 5
        for class_id in (0, 1):
            for thr in (0.5, 0.7):
                for kind in ("bbox", "segm"):
                    got = average_precision(rand_preds, rand_records,
                                            class_id, thr, kind=kind)
                    want = oracle_average_precision(
                        rand_preds, rand_records, class_id, thr, kind)
                    if got is None or want is None:
                        assert got is None and want is None
                        continue
                    worst = max(worst, abs(got - float(want)))
    elapsed = time.perf_counter() - t0
    ok = hand_ok and worst <= 1e-9 and elapsed < 5.0
    announce(capsys, 9, "evaluator-correctness", ok,
             f"hand-traced cases {'exact' if hand_ok else 'WRONG'}, "
             f"worst oracle gap {worst:.1e} <= 1e-09 over 20 random "
             f"instances, {elapsed:.1f}s < 5s")


def test_10_determinism(capsys, tmp_path):
    from oseg import cli

    def run(*argv):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert cli.main(list(argv)) == 0

    artifacts = {}
    for tag in ("a", "b"):
        root = tmp_path / tag
        root.mkdir()
        data = root / "data.oseg"
        test = root / "test.oseg"
        model = root / "model.oseg"
        inc = root / "inc.oseg"
        report = root / "report.csv"
        run("gen-synthetic", "--images", "10", "--classes", "2",
            "--seed", "3", "--out", str(data))
        run("gen-synthetic", "--images", "4", "--classes", "2",
            "--seed", "3", "--start-id", "900", "--out", str(test))
        run("train", "--dataset", str(data), "--out", str(model),
            "--num-batches", "2", "--batch-size", "300")
        run("train-incremental", "--datasets", str(data),
            "--sequences", "2", "--out", str(inc),
            "--num-batches", "2", "--batch-size", "300")
        run("eval", "--model", str(model), "--dataset", str(test),
            "--out", str(report))
        artifacts[tag] = {name: (root / name).read_bytes()
                          for name in ("data.oseg", "model.oseg",
                                       "model.oseg.manifest.json",
                                       "inc.oseg", "report.csv",
                                       "report.csv.manifest.json")}
    same = [name for name in artifacts["a"]
            if artifacts["a"][name] == artifacts["b"][name]]
    ok = len(same) == len(artifacts["a"])
    announce(capsys, 10, "determinism", ok,
             f"{len(same)}/{len(artifacts['a'])} artifacts byte-identical "
             f"across same-seed reruns (dataset, models, manifests, report)")
