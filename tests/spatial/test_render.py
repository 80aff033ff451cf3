"""Tests for ASCII rendering of datasets and decompositions."""

import numpy as np
import pytest

from repro.domains import Box
from repro.spatial import SpatialDataset, render_density, render_leaf_depth
from repro.spatial.quadtree import _privtree_histogram


class TestRenderDensity:
    def test_shape(self, uniform_2d):
        text = render_density(uniform_2d, width=30, height=10)
        lines = text.split("\n")
        assert len(lines) == 10
        assert all(len(line) == 30 for line in lines)

    def test_dense_region_darker(self, clustered_2d):
        # The cluster sits at (0.25, 0.25): lower-left of the raster.
        text = render_density(clustered_2d, width=40, height=20)
        lines = text.split("\n")
        lower_left = lines[-5][8:12]  # around x~0.25, y~0.25
        upper_right = lines[2][32:36]
        ramp = " .:-=+*#%@"
        assert max(ramp.index(c) for c in lower_left) > max(
            ramp.index(c) for c in upper_right
        )

    def test_empty_dataset_blank(self):
        data = SpatialDataset(np.zeros((0, 2)), Box.unit(2))
        text = render_density(data, width=10, height=4)
        assert set(text) <= {" ", "\n"}

    def test_4d_projects_first_two_axes(self):
        pts = np.random.default_rng(0).uniform(0, 1, size=(500, 4)) * 0.999
        data = SpatialDataset(pts, Box.unit(4))
        text = render_density(data, width=20, height=8)
        assert len(text.split("\n")) == 8

    def test_invalid_raster(self, uniform_2d):
        with pytest.raises(ValueError):
            render_density(uniform_2d, width=0)


class TestRenderLeafDepth:
    def test_deeper_in_dense_region(self, clustered_2d):
        syn = _privtree_histogram(clustered_2d, epsilon=1.0, rng=0)
        text = render_leaf_depth(syn, width=32, height=16)
        lines = text.split("\n")

        def depth(char: str) -> int:
            return 10 if char == "+" else int(char)

        cluster_depths = [depth(c) for line in lines[-6:] for c in line[:10]]
        corner_depths = [depth(c) for line in lines[:4] for c in line[-8:]]
        assert max(cluster_depths) > max(corner_depths)

    def test_rejects_non_2d(self):
        pts = np.random.default_rng(0).uniform(0, 1, size=(200, 4)) * 0.999
        data = SpatialDataset(pts, Box.unit(4))
        syn = _privtree_histogram(data, epsilon=1.0, rng=0)
        with pytest.raises(ValueError):
            render_leaf_depth(syn)
