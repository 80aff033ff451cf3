"""Private data mining via coarsening: k-means on a PrivTree release.

The paper's Section 1 lists private data mining as a motivating use of
hierarchical decompositions: coarsen the data once under ε-DP, then mine
the released synopsis as often as you like (postprocessing is free).  This
example clusters a three-blob dataset two ways:

* PrivTree coarsening + weighted Lloyd (one ε-DP release, mining is free);
* DPLloyd (every Lloyd iteration pays from the budget).

Run:  python examples/private_kmeans.py
"""

import numpy as np

from repro.applications import dplloyd_kmeans, kmeans_cost, privtree_kmeans
from repro.domains import Box
from repro.spatial import SpatialDataset


def main() -> None:
    gen = np.random.default_rng(1)
    true_centers = [(0.2, 0.2), (0.8, 0.3), (0.5, 0.8)]
    blobs = [
        gen.normal(loc=c, scale=0.03, size=(3_000, 2)) for c in true_centers
    ]
    data = SpatialDataset(
        np.clip(np.vstack(blobs), 0.0, 0.999999), Box.unit(2), name="blobs"
    )
    print(f"dataset: {data.n} points in 3 blobs at {true_centers}")

    print(f"\n{'epsilon':>8s} {'PrivTree+Lloyd':>15s} {'DPLloyd':>10s}   (mean squared distance; lower is better)")
    for eps in (0.1, 0.4, 1.6):
        pt_cost = np.median(
            [
                kmeans_cost(data, privtree_kmeans(data, k=3, epsilon=eps, rng=s))
                for s in range(5)
            ]
        )
        dl_cost = np.median(
            [
                kmeans_cost(data, dplloyd_kmeans(data, k=3, epsilon=eps, rng=s))
                for s in range(5)
            ]
        )
        print(f"{eps:8.2f} {pt_cost:15.5f} {dl_cost:10.5f}")

    centers = privtree_kmeans(data, k=3, epsilon=1.0, rng=0)
    print("\nrecovered centers at eps=1.0:")
    for c in sorted(map(tuple, np.round(centers, 3).tolist())):
        print(f"  {c}")
    print(f"(true centers: {sorted(true_centers)})")


if __name__ == "__main__":
    main()
