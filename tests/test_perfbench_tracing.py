"""The benchmark's tracer patches ``oseg`` names found by ``getattr``.

A refactor that drops or renames one of them breaks every traced
benchmark run; this test fails first.  It only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

from oseg import (detection, evaluation, feature_store, kernels,
                  minibootstrap, model_io, pipeline, rpn, segmentation,
                  synthetic)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = (detection, evaluation, feature_store, kernels, minibootstrap,
          model_io, pipeline, rpn, segmentation, synthetic,
          pipeline.WorldFeaturizer, synthetic.SyntheticWorld)
# the names the training core and ``infer`` must call through the pipeline
# module, so that the tracer's wrappers see those calls
PIPELINE_NAMES = {
    "rpn_incremental_update", "detection_incremental_update",
    "train_rpn_from_reservoir", "train_detection_from_reservoir",
    "train_online_segmentation", "extend_segmentation",
    "propose", "detect", "predict_mask", "adapt_records",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes() -> dict:
    return {(owner, name): value for owner in OWNERS
            for name, value in vars(owner).items()}


def test_install_then_remove_restores_every_patched_name():
    before = attributes()
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        during = attributes()
    finally:
        tracer.remove()
    patched = {key for key, value in during.items()
               if before.get(key) is not value}
    assert patched <= before.keys()
    assert PIPELINE_NAMES <= {name for owner, name in patched
                              if owner is pipeline}
    assert {(pipeline.WorldFeaturizer, "detection"),
            (pipeline.WorldFeaturizer, "mask")} <= patched
    assert (rpn, "label_anchors") in patched
    after = attributes()
    for key in patched:
        assert after[key] is before[key], key
    assert after.keys() == before.keys()
