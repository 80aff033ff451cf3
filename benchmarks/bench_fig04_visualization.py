"""Figure 4 — visualization of the spatial datasets.

ASCII density rasters of the four synthetic substitutes (pickup projection
for the 4-d taxi analogues), the terminal equivalent of the paper's scatter
plots.  The recorded content: road/NYC look filamentary/spiky, Gowalla and
Beijing blotchier — the skew ordering the evaluation narrative relies on.
"""

from repro.datasets import SPATIAL_DATASETS
from repro.spatial import render_density

from conftest import RESULTS_DIR, dataset_n


def _render_all() -> str:
    blocks = []
    for name, spec in SPATIAL_DATASETS.items():
        data = spec.make(dataset_n(name), rng=0)
        blocks.append(
            f"Figure 4 — {name} ({data.n:,} points, first two axes)\n"
            + render_density(data, width=72, height=20)
        )
    return "\n\n".join(blocks)


def bench_fig04_visualization(benchmark):
    text = benchmark.pedantic(_render_all, rounds=1, iterations=1)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fig04_visualization.txt").write_text(text + "\n")


def _render_decomposition() -> str:
    """Figure 1's content: the decomposition grows deep where data is dense."""
    from repro.spatial import render_leaf_depth
    from repro.spatial.quadtree import _privtree_histogram

    spec = SPATIAL_DATASETS["gowalla"]
    data = spec.make(dataset_n("gowalla"), rng=0)
    synopsis = _privtree_histogram(data, epsilon=1.0, rng=0)
    depth_map = render_leaf_depth(synopsis, width=72, height=20)
    return (
        "Figure 1 — PrivTree leaf depth over gowalla (digit = tree depth; "
        "deeper where denser)\n" + depth_map
    )


def bench_fig01_decomposition(benchmark):
    text = benchmark.pedantic(_render_decomposition, rounds=1, iterations=1)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fig01_decomposition.txt").write_text(text + "\n")
