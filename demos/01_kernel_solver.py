"""Nyström kernel classifiers: accuracy vs center count.

A Gaussian-kernel ridge classifier trained on all n points solves the
exact dense system; subsampling M < n centers trades accuracy for a
much smaller factorization.  This script trains on a 2-D two-moons-like
problem and shows how test accuracy and the gap to the dense solution
move as M shrinks.
"""

import numpy as np

from oseg.kernels import gaussian_kernel, train_kernel_classifier


def two_arcs(rng, n):
    angles = rng.uniform(0.0, np.pi, size=n)
    upper = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    lower = np.stack([1.0 - np.cos(angles), -np.sin(angles) + 0.35], axis=1)
    points = np.concatenate([upper, lower]) + rng.normal(scale=0.12,
                                                         size=(2 * n, 2))
    labels = np.concatenate([np.ones(n), -np.ones(n)])
    return points, labels


def main():
    rng = np.random.default_rng(0)
    points, labels = two_arcs(rng, 400)
    probes, probe_labels = two_arcs(rng, 200)
    sigma, lam = 0.4, 1e-4
    n = len(points)

    # dense reference: (K + n lam I) alpha = y
    kernel = gaussian_kernel(points, points, sigma)
    alpha = np.linalg.solve(kernel + n * lam * np.eye(n), labels)
    reference = gaussian_kernel(probes, points, sigma) @ alpha

    print(f"{n} training points, sigma={sigma}, lam={lam}")
    print(f"{'centers':>8} {'accuracy':>9} {'vs dense':>10}")
    for centers in (n, 400, 100, 25):
        clf, _ = train_kernel_classifier(points[labels > 0],
                                         points[labels < 0],
                                         num_centers=centers, sigma=sigma,
                                         lam=lam, seed=1)
        scores = clf.decision_values(probes)
        accuracy = float(np.mean(np.sign(scores) == probe_labels))
        gap = float(np.linalg.norm(scores - reference)
                    / np.linalg.norm(reference))
        tag = " (= n, matches dense)" if centers == n else ""
        print(f"{centers:>8} {accuracy:>9.3f} {gap:>10.2e}{tag}")


if __name__ == "__main__":
    main()
