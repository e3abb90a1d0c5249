"""Hard-negative batch count vs accuracy vs training time.

The minibootstrap visits the negative pool in n_B batches, refitting on
the accumulated hard negatives after each one.  More batches mean more
negatives inspected and more refits: training slows down while the
classifier sees a broader sample of the background.  This sweep trains
the full pipeline at several batch counts on one synthetic dataset and
writes the trade-off table to stdout and to a CSV.
"""

import argparse
import warnings

from oseg import pipeline
from oseg.evaluation import evaluate
from oseg.pipeline import ProtocolConfig, WorldFeaturizer
from oseg.synthetic import SyntheticWorld


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--images", type=int, default=150)
    ap.add_argument("--noise", type=float, default=0.15)
    ap.add_argument("--out", default="minibootstrap_sweep.csv")
    args = ap.parse_args()

    world = SyntheticWorld(class_names=("mug", "bowl", "drill"),
                           noise=args.noise, seed=11)
    train = list(world.generate(args.images))
    test = list(world.generate(40, start_id=10_000))
    featurizer = WorldFeaturizer(world)

    rows = [("num_batches", "map50_segm_pct", "post_acquisition_seconds")]
    print(f"{args.images} images, noise {args.noise}")
    print(f"{'n_B':>4} {'mAP50 segm':>11} {'train time':>11}")
    for num_batches in (1, 2, 5, 10):
        config = ProtocolConfig(num_batches=num_batches, batch_size=2000,
                                seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            result = pipeline.train_ours(world.header(), train, config)
        preds = pipeline.infer_dataset(result.model, test, featurizer)
        map50 = 100.0 * evaluate(preds, test).mean_ap("segm", 0.5)
        seconds = result.ledger.post_acquisition_seconds()
        rows.append((num_batches, f"{map50:.2f}", f"{seconds:.2f}"))
        print(f"{num_batches:>4} {map50:>10.2f}% {seconds:>10.2f}s")

    with open(args.out, "w") as fh:
        fh.write("\n".join(",".join(str(v) for v in row)
                           for row in rows) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
