"""Span tracing around the public calls into each ``oseg`` module.

Tracing patches module attributes while it is installed and restores them
when it is removed, so untraced runs execute the program with no wrapper
at all.  Where a module imported a function by name, the wrapper goes on
that importing module's reference, since that is the one the call uses.

Each span records its name, start, end and parent and stays in memory
until the run ends.  A layer's self time is its spans' durations minus
the durations of their direct child spans.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import numpy as np

# every span name; each yields ``<name>_s`` (inclusive seconds) and
# ``<name>_self_s`` (self seconds)
SPANS = (
    "kernels.eval", "kernels.fit", "kernels.solve",
    "minibootstrap.mine",
    "incremental.update",
    "feature_store.read", "feature_store.write",
    "geometry.label", "geometry.nms",
    "rpn.train", "rpn.propose",
    "detection.train", "detection.detect",
    "segmentation.train", "segmentation.predict",
    "synthetic.render", "synthetic.featurize",
    "pipeline.adapt",
    "model_io.load",
    "evaluation.evaluate",
)

# counters, each reported as-is; ratios are derived in ``layer_metrics``
COUNTS = (
    "kernels.eval_calls", "kernels.eval_gflop", "kernels.fit_calls",
    "kernels.solve_gflop",
    "minibootstrap.iterations", "minibootstrap.batch_rows",
    "minibootstrap.hard_added", "minibootstrap.pruned",
    "incremental.records",
    "feature_store.read_mb",
    "geometry.nms_calls", "geometry.nms_in", "geometry.nms_kept",
    "rpn.proposals", "detection.detections", "segmentation.masks",
    "synthetic.featurize_calls",
    "model_io.mb",
)


class Tracer:
    """Nested spans and counters of one traced run."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patches = []   # (owner, attribute, original)
        self._reservoirs = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn, count=None):
        """``fn`` timed as span ``name``; ``count(result, args)`` tallies."""
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                count(result, args)
            return result

        return traced

    def _patch(self, owner, attribute: str, name: str, count=None, wrap=None):
        original = getattr(owner, attribute)
        wrapper = (wrap or self.wrap)(name, original, count)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    # -- counters ----------------------------------------------------------

    def _count_eval(self, result, args):
        n, m = result.shape
        d = np.shape(args[1])[-1]
        self.counts["kernels.eval_calls"] += 1
        self.counts["kernels.eval_gflop"] += 3.0 * n * m * d / 1e9

    def _count_factor(self, result, args):
        m = args[0].shape[0]
        self.counts["kernels.solve_gflop"] += m ** 3 / 3.0 / 1e9

    def _count_mining(self, result, args):
        for stats in result.stats.values():
            for it in stats.iterations:
                self.counts["minibootstrap.iterations"] += 1
                self.counts["minibootstrap.batch_rows"] += it.batch_rows
                self.counts["minibootstrap.hard_added"] += it.hard_added
                self.counts["minibootstrap.pruned"] += it.easy_pruned

    def _count_update(self, result, args):
        reservoir = args[0]
        self._reservoirs[type(reservoir).__name__] = reservoir
        if type(reservoir).__name__ == "RpnReservoir":
            self.counts["incremental.records"] += len(list(args[1]))

    def _count_nms(self, result, args):
        self.counts["geometry.nms_calls"] += 1
        self.counts["geometry.nms_in"] += len(args[1])
        self.counts["geometry.nms_kept"] += len(result)

    def _counter(self, key):
        def count(result, args):
            self.counts[key] += len(result)
        return count

    def _count_one(self, key):
        def count(result, args):
            self.counts[key] += 1
        return count

    def _count_file(self, key):
        def count(result, args):
            self.counts[key] += os.path.getsize(args[0]) / 1e6
        return count

    def _wrap_reader(self, name, fn, count):
        """``read_dataset`` decodes lazily: time the call and every record."""
        def traced(path):
            header, records = self.wrap(name, fn, count)(path)

            def timed_records():
                iterator = iter(records)
                while True:
                    index = self._open(name)
                    try:
                        record = next(iterator, None)
                    finally:
                        self._close(index)
                    if record is None:
                        return
                    yield record

            return header, timed_records()

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every traced entry point; ``remove`` restores them."""
        from oseg import (detection, evaluation, feature_store, kernels,
                          minibootstrap, model_io, pipeline, rpn,
                          segmentation, synthetic)

        p = self._patch
        p(kernels, "gaussian_kernel", "kernels.eval", self._count_eval)
        p(kernels, "cho_factor", "kernels.solve", self._count_factor)
        p(kernels, "cho_solve", "kernels.solve")
        p(minibootstrap, "train_kernel_classifier", "kernels.fit",
          self._count_one("kernels.fit_calls"))
        p(segmentation, "train_kernel_classifier", "kernels.fit",
          self._count_one("kernels.fit_calls"))
        p(rpn, "run_minibootstrap", "minibootstrap.mine", self._count_mining)
        p(detection, "run_minibootstrap", "minibootstrap.mine",
          self._count_mining)
        p(pipeline, "rpn_incremental_update", "incremental.update",
          self._count_update)
        p(pipeline, "detection_incremental_update", "incremental.update",
          self._count_update)
        p(feature_store, "read_dataset", "feature_store.read",
          self._count_file("feature_store.read_mb"),
          wrap=self._wrap_reader)
        p(feature_store, "write_dataset", "feature_store.write")
        p(rpn, "label_anchors", "geometry.label")
        p(rpn, "nms", "geometry.nms", self._count_nms)
        p(detection, "nms", "geometry.nms", self._count_nms)
        p(pipeline, "train_rpn_from_reservoir", "rpn.train")
        p(pipeline, "propose", "rpn.propose", self._counter("rpn.proposals"))
        p(pipeline, "train_detection_from_reservoir", "detection.train")
        p(pipeline, "detect", "detection.detect",
          self._counter("detection.detections"))
        p(pipeline, "train_online_segmentation", "segmentation.train")
        p(pipeline, "extend_segmentation", "segmentation.train")
        p(pipeline, "predict_mask", "segmentation.predict",
          self._count_one("segmentation.masks"))
        p(synthetic.SyntheticWorld, "render_record", "synthetic.render")
        p(pipeline.WorldFeaturizer, "detection", "synthetic.featurize",
          self._count_one("synthetic.featurize_calls"))
        p(pipeline.WorldFeaturizer, "mask", "synthetic.featurize",
          self._count_one("synthetic.featurize_calls"))
        p(pipeline, "adapt_records", "pipeline.adapt")
        p(model_io, "load_pipeline", "model_io.load",
          self._count_file("model_io.mb"))
        p(evaluation, "evaluate", "evaluation.evaluate")

    def remove(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results -----------------------------------------------------------

    def _reservoir_rows(self) -> int:
        rows = 0
        for reservoir in self._reservoirs.values():
            for key in reservoir.keys():
                rows += reservoir.positives[key].shape[0]
                rows += sum(a.shape[0] for a in reservoir.negatives[key].values())
            rows += sum(a.shape[0] for a in reservoir.reg_features.values())
            rows += sum(a.shape[0]
                        for a in getattr(reservoir, "buffers", {}).values())
        return rows

    def layer_metrics(self) -> dict:
        """Per-layer totals: inclusive and self seconds plus counters."""
        if self._stack:
            raise RuntimeError("spans still open")
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[index]
        out = {}
        for name in SPANS:
            out[f"{name}_s"] = total[name]
            out[f"{name}_self_s"] = own[name]
        for key in COUNTS:
            out[key] = float(self.counts[key])
        rows = self.counts["minibootstrap.batch_rows"]
        out["minibootstrap.hard_ratio"] = (
            self.counts["minibootstrap.hard_added"] / rows if rows else 0.0)
        out["incremental.rows"] = float(self._reservoir_rows())
        out["trace.spans"] = float(len(self.spans))
        return out
