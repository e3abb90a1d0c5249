"""Command-line front end.

Subcommands: ``gen-synthetic`` writes a feature dataset, ``train`` and
``train-incremental`` produce model files, ``eval`` scores a model
against a dataset into a CSV report, ``simulate-stream`` reports
stream-mode timing, and ``verify`` runs the built-in correctness checks.
Every artifact-producing run writes a ``<out>.manifest.json`` sidecar
recording seeds, versions and input hashes; nothing in an artifact
depends on the clock, so reruns with the same inputs are byte-identical
(the optional timing CSV is the one measured, non-reproducible output).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from oseg import binio, pipeline
from oseg.evaluation import evaluate
from oseg.feature_store import CONTRACT, dataset_sha256, load_dataset
from oseg.incremental import sampling_equivalence_test
from oseg.kernels import gaussian_kernel, train_kernel_classifier
from oseg.model_io import load_pipeline, save_pipeline
from oseg.pipeline import ProtocolConfig
from oseg.synthetic import SyntheticWorld, generate_dataset


def _write_json(path, tree) -> None:
    with open(path, "wb") as fh:
        fh.write(binio.canonical_json(tree))
        fh.write(b"\n")


def _write_manifest(out_path, tree) -> None:
    _write_json(str(out_path) + ".manifest.json", tree)


def _write_timing(path, ledger) -> None:
    lines = ["phase,seconds,overlappable"]
    lines += [f"{p.name},{p.seconds:.6f},{int(p.overlappable)}"
              for p in ledger.phases]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_config(args) -> ProtocolConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            config = ProtocolConfig.from_json(json.load(fh))
    else:
        config = ProtocolConfig()
    overrides = {}
    if getattr(args, "protocol", None):
        overrides["protocol"] = args.protocol.replace("-", "_")
    for name in ("seed", "num_batches", "batch_size"):
        if getattr(args, name, None) is not None:
            overrides[name] = getattr(args, name)
    return config.replace(**overrides) if overrides else config


def cmd_gen_synthetic(args) -> int:
    if args.classes < 1:
        raise ValueError("need at least one class")
    world = SyntheticWorld(
        class_names=tuple(f"class{i}" for i in range(args.classes)),
        noise=args.noise, seed=args.seed, mask_grid=args.mask_grid,
        min_objects=args.min_objects, max_objects=args.max_objects)
    count = generate_dataset(args.out, world, args.images, args.start_id)
    digest = dataset_sha256(args.out)
    _write_manifest(args.out, {
        "command": "gen-synthetic",
        "images": count, "classes": args.classes, "noise": args.noise,
        "seed": args.seed, "start_id": args.start_id,
        "mask_grid": args.mask_grid,
        "dataset_sha256": digest, "versions": pipeline.versions_block(),
    })
    print(f"wrote {count} records to {args.out} (sha256 {digest[:12]})")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    header, records = load_dataset(args.dataset)
    digest = dataset_sha256(args.dataset)
    result = pipeline.train(header, records, config, dataset_hash=digest)
    save_pipeline(args.out, result.model)
    _write_manifest(args.out, result.model.manifest)
    if args.timing:
        _write_timing(args.timing, result.ledger)
    ledger = result.ledger
    print(f"protocol {config.protocol}: {len(records)} images, "
          f"classes {result.model.detection.class_ids}")
    print(f"extraction passes: {ledger.extraction_passes}; "
          f"post-acquisition time {ledger.post_acquisition_seconds():.2f} s")
    print(f"model written to {args.out}")
    return 0


def _compatible_headers(a, b) -> bool:
    return all(getattr(a, k) == getattr(b, k) for k in CONTRACT)


def cmd_train_incremental(args) -> int:
    config = _load_config(args)
    if args.sequences < 1:
        raise ValueError(f"--sequences {args.sequences}: need at least one")
    if args.sequences > 1 and len(args.datasets) > 1:
        raise ValueError(f"--sequences {args.sequences} splits a single "
                         f"dataset; got {len(args.datasets)} datasets")
    sequences = []
    header = None
    hashes = []
    for path in args.datasets:
        seq_header, records = load_dataset(path)
        if header is None:
            header = seq_header
        elif not _compatible_headers(header, seq_header):
            raise ValueError(f"{path}: dataset header incompatible with "
                             f"{args.datasets[0]}")
        sequences.append(records)
        hashes.append(dataset_sha256(path))
    if args.sequences > 1:
        records = sequences[0]
        if args.sequences > len(records):
            raise ValueError(f"--sequences {args.sequences} exceeds the "
                             f"{len(records)} records of {args.datasets[0]}")
        bounds = [i * len(records) // args.sequences
                  for i in range(args.sequences + 1)]
        sequences = [records[a:b] for a, b in zip(bounds, bounds[1:])]
    trainer = pipeline.IncrementalTrainer(header, config,
                                          dataset_hash=hashes)
    result = None
    for i, records in enumerate(sequences):
        result = trainer.add_sequence(records)
        print(f"sequence {i}: {len(records)} images, classes now "
              f"{result.model.detection.class_ids}")
    save_pipeline(args.out, result.model)
    _write_manifest(args.out, result.model.manifest)
    print(f"model written to {args.out}")
    return 0


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}"


def cmd_eval(args) -> int:
    model = load_pipeline(args.model)
    header, records = load_dataset(args.dataset)
    kinds = ("bbox",) if args.bbox_only else ("bbox", "segm")
    featurizer = None
    if not (args.bbox_only and args.stored_proposals):
        featurizer = pipeline.featurizer_for(header)
    predictions = pipeline.infer_dataset(
        model, records, featurizer,
        use_stored_proposals=args.stored_proposals,
        with_masks=not args.bbox_only)
    report = evaluate(predictions, records, kinds=kinds)

    columns = [(k, t) for k in report.kinds for t in report.thresholds]
    lines = ["class," + ",".join(f"ap{int(100 * t)}_{k}_pct"
                                 for k, t in columns)]
    for n in report.class_ids:
        name = (model.class_names[n] if n < len(model.class_names)
                else str(n))
        lines.append(name + "," + ",".join(
            _percent(report.ap(k, t, n)) for k, t in columns))
    lines.append("mean," + ",".join(
        _percent(report.mean_ap(k, t)) for k, t in columns))
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_manifest(args.out, {
        "command": "eval",
        "model_sha256": dataset_sha256(args.model),
        "dataset_sha256": dataset_sha256(args.dataset),
        "stored_proposals": bool(args.stored_proposals),
        "bbox_only": bool(args.bbox_only),
        "versions": pipeline.versions_block(),
    })
    summary = "  ".join(f"mAP{int(100 * t)} {k} {_percent(report.mean_ap(k, t))}%"
                        for k, t in columns)
    print(summary)
    print(f"report written to {args.out}")
    return 0


def cmd_simulate_stream(args) -> int:
    config = _load_config(args)
    header, records = load_dataset(args.dataset)
    result = pipeline.simulate_stream(header, records, args.stream_fps,
                                      args.extraction_fps, config,
                                      dataset_hash=dataset_sha256(args.dataset))
    print(f"{result.num_frames} frames at {args.stream_fps} FPS: "
          f"stream {result.stream_seconds:.2f} s, "
          f"extraction {result.extraction_seconds:.2f} s")
    print(f"residual extraction after last frame: "
          f"{result.residual_seconds:.2f} s")
    print(f"reported training time: {result.training_seconds:.2f} s "
          f"({result.ledger.extraction_passes} extraction passes)")
    if args.out:
        _write_timing(args.out, result.ledger)
        _write_manifest(args.out, {
            "command": "simulate-stream",
            "stream_fps": args.stream_fps,
            "extraction_fps": args.extraction_fps,
            "protocol": config.protocol,
            "num_frames": result.num_frames,
            "residual_seconds": result.residual_seconds,
            "dataset_sha256": dataset_sha256(args.dataset),
            "versions": pipeline.versions_block(),
        })
    return 0


def _check_sampling(trials: int, seed: int) -> bool:
    result = sampling_equivalence_test(6, 2, chain=(4, 3), trials=trials,
                                       seed=seed)

    def head(rows, k, rng):
        return rows[:k]

    control = sampling_equivalence_test(6, 2, chain=(4, 3), trials=trials,
                                        seed=seed, sampler=head)
    ok = result.passed and not control.passed
    print(f"{'PASS' if ok else 'FAIL'} sampling equivalence: "
          f"p={result.p_value:.4f} over {result.num_subsets} subsets; "
          f"biased control p={control.p_value:.2e}")
    return ok


def _check_solver(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    # moderate kernel width keeps cond(K) ~ 50, so the normal-equations
    # path and the plain dense solve agree to solver precision
    n, dim, sigma, lam = 200, 8, 1.0, 1e-3
    points = rng.normal(size=(n, dim))
    labels = np.where(points @ rng.normal(size=dim) > 0.0, 1.0, -1.0)
    clf = train_kernel_classifier(points[labels > 0], points[labels < 0],
                                  num_centers=n, sigma=sigma, lam=lam,
                                  seed=seed)
    probes = rng.normal(size=(50, dim))
    kernel = gaussian_kernel(points, points, sigma)
    dense = np.linalg.solve(kernel + n * lam * np.eye(n), labels)
    reference = gaussian_kernel(probes, points, sigma) @ dense
    predicted = clf.decision_values(probes)
    gap = float(np.linalg.norm(predicted - reference)
                / np.linalg.norm(reference))
    ok = gap <= 1e-6
    print(f"{'PASS' if ok else 'FAIL'} solver equivalence: "
          f"relative gap {gap:.2e} (limit 1e-06)")
    return ok


def cmd_verify(args) -> int:
    ok = _check_sampling(args.trials, args.seed)
    ok = _check_solver(args.seed) and ok
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oseg",
        description="On-line instance segmentation on pre-extracted "
                    "convolutional features.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic",
                       help="write a synthetic feature dataset")
    p.add_argument("--images", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-id", type=int, default=0,
                   help="first image id; lets several files share one "
                        "world without overlapping images")
    p.add_argument("--mask-grid", type=int, default=14)
    p.add_argument("--min-objects", type=int, default=1)
    p.add_argument("--max-objects", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--protocol", choices=("ours", "ours-serial"))
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--seed", type=int)
    p.add_argument("--num-batches", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--timing", help="write per-phase timing CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-incremental",
                       help="train over dataset sequences, adding classes "
                            "as they appear")
    p.add_argument("--datasets", nargs="+", required=True)
    p.add_argument("--sequences", type=int, default=1,
                   help="split a single dataset into this many contiguous "
                        "sequences whose sizes differ by at most one")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--num-batches", type=int)
    p.add_argument("--batch-size", type=int)
    p.set_defaults(func=cmd_train_incremental)

    p = sub.add_parser("eval", help="score a model against a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stored-proposals", action="store_true",
                   help="detect on the dataset's stored proposals instead "
                        "of the proposal module's output")
    p.add_argument("--bbox-only", action="store_true",
                   help="skip masks; scores boxes only")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate-stream",
                       help="train while modeling the acquisition stream")
    p.add_argument("--dataset", required=True)
    p.add_argument("--stream-fps", type=float, required=True)
    p.add_argument("--extraction-fps", type=float, required=True)
    p.add_argument("--protocol", choices=("ours", "ours-serial"))
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--num-batches", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--out", help="write per-phase timing CSV here")
    p.set_defaults(func=cmd_simulate_stream)

    p = sub.add_parser("verify", help="run built-in correctness checks")
    p.add_argument("--trials", type=int, default=150000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, binio.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
