"""The three benchmark workloads and the measurements they share.

Every workload produces a model (``train_s``), runs the full inference
path on held-out images of the same world (``infer_ms_p50``/``_p90``)
and scores it (the four mAP cells), so each one reports every end-to-end
metric.  What differs is where the time goes; see README.md.

The images and the training configuration are pinned by the world and
config seeds, so every run of a set trains the same model and must hash
the same.  ``--seed`` sets the order in which the held-out images are
inferred.  Drawing other images per seed would move per-image latency by
10-15% and mAP@0.7 by 5-13%, more than the bounds (see README.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import tempfile
import time
import warnings

from oseg import (evaluation, feature_store, model_io, pipeline,
                  synthetic)

NOISE = 1.0
PINNED = dict(num_batches=5, batch_size=2000)
STREAM_CONFIG = dict(num_batches=2, batch_size=500, rpn_centers=300,
                     detection_centers=300, segmentation_centers=200)
SETUP_REPEATS = 3
TRAIN_IMAGES = 300
SERIAL_IMAGES = 40
HELD_OUT = 100
HELD_OUT_START = 5000
STREAM_SEQUENCES = 6
STREAM_IMAGES = 100
STREAM_HELD_OUT_START = 90000
MAP_CELLS = (("bbox", 0.5), ("bbox", 0.7), ("segm", 0.5), ("segm", 0.7))


class WrongOutput(RuntimeError):
    """An output failed a correctness check."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def model_digest(model) -> str:
    return sha256(model_io.model_bytes(model))


class Run:
    """Timings, counts and hashes of one workload run.

    With a tracer, the workload's headline operation runs twice, traced
    and untraced, and the difference is the trace overhead; everything
    else runs once, traced.
    """

    def __init__(self, seed: int, world_seed: int, config_seed: int,
                 seconds: float, tracer=None):
        self.seed = seed
        self.world_seed = world_seed
        self.config_seed = config_seed
        self.seconds = seconds
        self.tracer = tracer
        self.setup_s = []
        self.train_s = []
        self.infer_ms = []
        self.ledger_gap_s = None
        self.traced_s = None
        self.untraced_s = None
        self.attempted = 0
        self.failed = 0
        self.maps = {}
        self.hashes = {}

    # -- helpers -----------------------------------------------------------

    def setup(self, build, repeats: int = SETUP_REPEATS):
        """Run ``build`` ``repeats`` times (once when tracing), timing each;
        returns the last result."""
        result = None
        for _ in range(1 if self.tracer else repeats):
            started = time.perf_counter()
            result = build()
            self.setup_s.append(time.perf_counter() - started)
        return result

    def headline(self, op):
        """Repeat ``op`` until ``seconds`` have been measured, at least once.

        ``op(keep)`` returns a result that must be identical on every
        repetition; ``keep`` says whether its timings are samples.  When
        tracing, the traced repetition runs first, as in untraced runs, and
        an untraced one follows as the overhead reference; the second run
        of a process is warmer, so the overhead errs high.
        """
        if self.tracer is not None:
            started = time.perf_counter()
            result = op(True)
            self.traced_s = time.perf_counter() - started
            self.tracer.remove()
            # the reference's warnings are not the traced run's to count
            with warnings.catch_warnings(record=True):
                warnings.simplefilter("always")
                started = time.perf_counter()
                reference = op(False)
                self.untraced_s = time.perf_counter() - started
            self.tracer.install()
            self.same(reference, result, "traced and untraced results")
            return result
        result = None
        started = time.perf_counter()
        while True:
            again = op(True)
            if result is not None:
                self.same(result, again, "repeated results")
            result = again
            if time.perf_counter() - started >= self.seconds:
                return result

    @staticmethod
    def same(a, b, what: str) -> None:
        if a != b:
            raise WrongOutput(f"{what} differ: {a!r} != {b!r}")

    def train_call(self, call, keep: bool = True):
        """Time one training call; returns its model and digest."""
        self.attempted += 1
        started = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - started
        self.check_model(result.model)
        if keep:
            self.train_s.append(elapsed)
        self.ledger_gap(elapsed - result.ledger.total_seconds())
        return result.model, model_digest(result.model)

    def ledger_gap(self, seconds: float) -> None:
        """Wall time of the first measured training pass that its ledgers
        missed."""
        if self.ledger_gap_s is None:
            self.ledger_gap_s = seconds

    def check_model(self, model) -> None:
        """Count per-key mining problems; a key in ``failures`` failed."""
        keys = (len(model.rpn.classifiers) + len(model.rpn.failures)
                + len(model.detection.classifiers))
        self.attempted += keys
        self.failed += len(model.rpn.failures)
        if model.rpn.failures:
            raise WrongOutput(f"anchor shapes failed: {model.rpn.failures}")

    def shuffled(self, records) -> list:
        """The records in the order ``--seed`` gives them."""
        records = list(records)
        random.Random(self.seed).shuffle(records)
        return records

    def infer_pass(self, model, records, featurizer, keep: bool = True):
        """``pipeline.infer`` on every record, each timed; returns the
        predictions."""
        predictions = []
        for rec in records:
            self.attempted += 1
            started = time.perf_counter()
            out = pipeline.infer(model, rec, featurizer)
            elapsed = time.perf_counter() - started
            if keep:
                self.infer_ms.append(1000.0 * elapsed)
            predictions.extend(out)
        return predictions

    def score(self, predictions, records) -> None:
        """mAP cells of the predictions; the report rows are hashed."""
        report = evaluation.evaluate(predictions, records)
        for kind, threshold in MAP_CELLS:
            value = 100.0 * report.mean_ap(kind, threshold)
            if not 0.0 < value <= 100.0:
                raise WrongOutput(f"{kind} mAP@{threshold} is {value}")
            self.maps[f"{kind}_map{int(round(threshold * 100))}"] = value
        rows = json.dumps(report.rows(), sort_keys=True).encode()
        self.hashes["eval_rows"] = sha256(rows)

    def evaluate_on(self, model, records, featurizer) -> None:
        """Infer and score the held-out records once."""
        self.score(self.infer_pass(model, records, featurizer), records)


# -- worlds ----------------------------------------------------------------

def w5(run: Run) -> synthetic.SyntheticWorld:
    return synthetic.SyntheticWorld(
        class_names=tuple(f"c{i}" for i in range(5)), noise=NOISE,
        seed=run.world_seed)


def config(run: Run, **kw) -> pipeline.ProtocolConfig:
    return pipeline.ProtocolConfig(seed=run.config_seed, **{**PINNED, **kw})


def _held_out(run: Run) -> list:
    # a fresh world each time: a world caches the layouts it has drawn
    return run.shuffled(w5(run).generate(HELD_OUT, start_id=HELD_OUT_START))


# -- workloads -------------------------------------------------------------

def serial(run: Run, scratch: str) -> None:
    """One ``train_ours_serial`` on 40 W5 records: the only workload that
    re-featurizes proposals in a second extraction pass."""
    def build():
        world = w5(run)
        return (world.header(), list(world.generate(SERIAL_IMAGES)),
                _held_out(run), pipeline.featurizer_for(world.header()))

    header, records, held_out, featurizer = run.setup(build)
    pinned = config(run, protocol="ours_serial")
    model = None

    def op(keep):
        nonlocal model
        model, digest = run.train_call(
            lambda: pipeline.train_ours_serial(header, records, pinned,
                                               featurizer), keep)
        return digest

    run.hashes["model"] = run.headline(op)
    run.evaluate_on(model, held_out, featurizer)


def _stream_world(run: Run, active) -> synthetic.SyntheticWorld:
    # the stream world is seeded 13 when W5 is seeded 11
    return synthetic.SyntheticWorld(
        class_names=tuple(f"c{i}" for i in range(6)), noise=NOISE,
        seed=run.world_seed + 2, active_classes=tuple(active))


def stream(run: Run, scratch: str) -> None:
    """Six sequences read back from files, each folded into one
    ``IncrementalTrainer``; sequences 0-4 each bring a new class."""
    paths = []
    for k in range(STREAM_SEQUENCES):
        # each sequence's set-up is one of the repeated set-ups
        def build(k=k):
            world = _stream_world(run, range(min(k + 1, 5) + 1))
            path = os.path.join(scratch, f"sequence-{k}.oseg")
            feature_store.write_dataset(
                path, world.header(),
                world.generate(STREAM_IMAGES, start_id=1000 * k))
            return path
        paths.append(run.setup(build, repeats=1))
    full = _stream_world(run, range(6))
    held_out = run.shuffled(full.generate(HELD_OUT,
                                          start_id=STREAM_HELD_OUT_START))
    featurizer = pipeline.WorldFeaturizer(full)
    stream_config = config(run, **STREAM_CONFIG)
    model = None

    def op(keep):
        nonlocal model
        trainer = None
        kept = {}
        digests = []
        gap = 0.0
        for path in paths:
            run.attempted += 1
            started = time.perf_counter()
            header, records = feature_store.read_dataset(path)
            if trainer is None:
                trainer = pipeline.IncrementalTrainer(header, stream_config)
            added = time.perf_counter()
            result = trainer.add_sequence(records)
            ended = time.perf_counter()
            gap += ended - added - result.ledger.total_seconds()
            run.check_model(result.model)
            if keep:
                run.train_s.append(ended - started)
            model = result.model
            digests.append(model_digest(model))
            for n, clf in model.segmentation.classifiers.items():
                if n not in kept:
                    kept[n] = model_io.classifier_bytes(clf)
        run.ledger_gap(gap)
        final = model.segmentation.classifiers
        if sorted(final) != list(range(6)):
            raise WrongOutput(f"final model segments {sorted(final)}")
        for n, clf in final.items():
            if model_io.classifier_bytes(clf) != kept[n]:
                raise WrongOutput(f"class {n} mask classifier changed")
        return tuple(digests)

    run.hashes["model"] = run.headline(op)[-1]
    run.evaluate_on(model, held_out, featurizer)


def infer(run: Run, scratch: str) -> None:
    """One ``train_ours`` on 300 in-memory W5 records, a save/load round
    trip, then ``pipeline.infer`` on 100 held-out images: the pinned
    workload, where fitting and then scoring dominate."""
    world = w5(run)
    started = time.perf_counter()
    records = list(world.generate(TRAIN_IMAGES))
    records_s = time.perf_counter() - started
    pinned = config(run)
    trained, digest = run.train_call(
        lambda: pipeline.train_ours(world.header(), records, pinned))
    path = os.path.join(scratch, "model.oseg")

    def build():
        model_io.save_pipeline(path, trained)
        return (_held_out(run), model_io.load_pipeline(path),
                pipeline.featurizer_for(world.header()))

    held_out, model, featurizer = run.setup(build)
    # the training records are generated once; their time is part of set-up
    run.setup_s = [records_s + s for s in run.setup_s]
    run.same(digest, model_digest(model), "saved and loaded models")
    run.hashes["model"] = digest
    predictions = None

    def op(keep):
        nonlocal predictions
        predictions = run.infer_pass(model, held_out, featurizer, keep)
        return [(p.image_id, p.class_id, p.score, p.box) for p in predictions]

    run.headline(op)
    run.score(predictions, held_out)


WORKLOADS = {"serial": serial, "stream": stream, "infer": infer}


def end_to_end(run: Run, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of an untraced run."""
    ms = run.infer_ms
    return {
        "setup_s": statistics.median(run.setup_s),
        "train_s": statistics.median(run.train_s),
        "infer_ms_p50": statistics.median(ms),
        "infer_ms_p90": statistics.quantiles(ms, n=10)[-1],
        "peak_rss_mb": peak_rss_mb,
        **run.maps,
    }


def scratch_dir(root: str):
    """A temporary directory inside the checkout, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root)
