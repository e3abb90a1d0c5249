"""Run one workload of the oseg benchmark and print its metrics.

    python3 perfbench/run.py --workload infer --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout; it imports ``oseg`` from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The line before it records the environment, the output hashes and the
counts behind the result.  Every run of one source tree, whatever its
``--seed``, must produce the same hashes; the hashes of earlier runs are
kept in ``.perfbench-state/`` and a disagreement fails the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import traceback
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "oseg")
STATE = os.path.join(ROOT, ".perfbench-state", "hashes.json")
SHORT_POOL = "negative pool for"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serial", "stream", "infer"))
    parser.add_argument("--seed", type=int, default=0,
                        help="order in which held-out images are inferred")
    parser.add_argument("--world-seed", type=int, default=11,
                        help="seed of the W5 world; the stream world gets "
                             "this plus 2 (default: the pinned 11)")
    parser.add_argument("--config-seed", type=int, default=4,
                        help="ProtocolConfig seed (default: the pinned 4)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure the headline operation at least "
                             "this long, repeating it as needed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_files():
    for base in (SOURCE, os.path.dirname(os.path.abspath(__file__))):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                yield os.path.join(base, name)


def source_digest() -> str:
    """Hash of the program and benchmark sources; keys the hash record."""
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = 0
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            with open(os.path.join(SOURCE, name), "rb") as fh:
                lines += fh.read().count(b"\n")
    return {
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "oseg_lines": lines,
    }


def check_hashes(key: str, hashes: dict) -> list:
    """Record this run's hashes; returns the ones an earlier run with the
    same key recorded differently."""
    try:
        with open(STATE) as fh:
            state = json.load(fh)
    except FileNotFoundError:
        state = {}
    earlier = state.setdefault(key, {})
    clashes = [name for name, value in hashes.items()
               if earlier.get(name, value) != value]
    earlier.update(hashes)
    os.makedirs(os.path.dirname(STATE), exist_ok=True)
    tmp = f"{STATE}.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
    os.replace(tmp, STATE)
    return clashes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"perfbench: no oseg sources at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.dirname(SOURCE))
    # SIGTERM unwinds like an exception, so the scratch files are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    run = workloads.Run(args.seed, args.world_seed, args.config_seed,
                        args.seconds, tracer)
    problem = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with workloads.scratch_dir(ROOT) as scratch:
            if tracer is not None:
                tracer.install()
            try:
                workloads.WORKLOADS[args.workload](run, scratch)
            except Exception:  # any failed operation fails the run
                problem = traceback.format_exc()
                run.attempted += 1
                run.failed += 1
            finally:
                if tracer is not None:
                    tracer.remove()
    short_pools = sum(SHORT_POOL in str(w.message) for w in caught)
    other = [str(w.message) for w in caught if SHORT_POOL not in str(w.message)]

    clashes = []
    if problem is None:
        # the seed only orders the held-out images, so every run of a set
        # must reproduce the same model and report
        key = ":".join((source_digest(), args.workload, str(args.world_seed),
                        str(args.config_seed)))
        clashes = check_hashes(key, run.hashes)
        if clashes:
            problem = f"hashes differ from an earlier run: {clashes}"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed,
        "world_seed": args.world_seed, "config_seed": args.config_seed,
        "trace": args.trace,
        "environment": environment(), "hashes": run.hashes,
        "samples": {"setup": len(run.setup_s), "train": len(run.train_s),
                    "infer": len(run.infer_ms)},
        "short_pool_warnings": short_pools, "other_warnings": other,
        "problem": problem,
    }}, sort_keys=True))
    metrics = {}
    if problem is not None:
        print(problem, file=sys.stderr)
    elif tracer is None:
        metrics = workloads.end_to_end(run, peak_rss_mb)
    else:
        metrics = tracer.layer_metrics()
        metrics["minibootstrap.short_pools"] = float(short_pools)
        metrics["pipeline.ledger_gap_s"] = run.ledger_gap_s
        metrics["trace.traced_s"] = run.traced_s
        metrics["trace.untraced_s"] = run.untraced_s
        metrics["trace.overhead_s"] = run.traced_s - run.untraced_s
    if metrics:
        metrics = with_units(metrics, "per_layer" if args.trace else "end_to_end")
    print(json.dumps({"correct": problem is None, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if problem is None else 1


def with_units(values: dict, section: str) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics BENCHMARK.json
    lists in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


if __name__ == "__main__":
    sys.exit(main())
