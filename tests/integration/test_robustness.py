"""Failure-injection and degenerate-input tests across the whole pipeline.

A release library must behave sensibly on empty data, single points, and
adversarial parameter corners — none of these should crash or hang.
"""

import numpy as np
import pytest

from repro.baselines import ngram_model
from repro.baselines.ag import _ag_histogram
from repro.baselines.dawa import _dawa_histogram
from repro.baselines.hierarchy import _hierarchy_histogram
from repro.baselines.kdtree import _kdtree_flat
from repro.baselines.privelet import _privelet_histogram
from repro.baselines.ug import _ug_histogram
from repro.domains import Box
from repro.sequence import Alphabet, SequenceDataset, private_pst
from repro.spatial import SpatialDataset
from repro.spatial.quadtree import _privtree_histogram


@pytest.fixture
def empty_2d() -> SpatialDataset:
    return SpatialDataset(np.zeros((0, 2)), Box.unit(2), name="empty")


@pytest.fixture
def single_point() -> SpatialDataset:
    return SpatialDataset(np.array([[0.5, 0.5]]), Box.unit(2), name="one")


class TestEmptySpatialData:
    def test_privtree(self, empty_2d):
        syn = _privtree_histogram(empty_2d, epsilon=1.0, rng=0)
        assert syn.size >= 1
        assert isinstance(syn.range_count(Box.unit(2)), float)

    def test_ug(self, empty_2d):
        grid = _ug_histogram(empty_2d, epsilon=1.0, rng=0)
        assert grid.n_cells == 1  # the granularity formula floors at 1

    def test_ag(self, empty_2d):
        ag = _ag_histogram(empty_2d, epsilon=1.0, rng=0)
        assert isinstance(ag.range_count(Box.unit(2)), float)

    def test_hierarchy(self, empty_2d):
        hist = _hierarchy_histogram(empty_2d, epsilon=1.0, rng=0)
        assert abs(hist.leaf_grid.counts.sum()) < 5_000  # pure noise

    def test_dawa(self, empty_2d):
        hist = _dawa_histogram(empty_2d, epsilon=1.0, rng=0)
        assert hist.n_buckets >= 1

    def test_privelet(self, empty_2d):
        hist = _privelet_histogram(empty_2d, epsilon=1.0, rng=0)
        assert np.isfinite(hist.grid.counts).all()

    def test_kdtree(self, empty_2d):
        tree = _kdtree_flat(empty_2d, epsilon=1.0, height=3, rng=0)
        assert tree.height <= 2


class TestSinglePoint:
    def test_privtree_single_point(self, single_point):
        syn = _privtree_histogram(single_point, epsilon=1.0, rng=0)
        assert syn.total_count == pytest.approx(1.0, abs=20.0)

    def test_all_grids_single_point(self, single_point):
        grids = (_ug_histogram, _ag_histogram, _dawa_histogram, _privelet_histogram)
        for build in grids:
            synopsis = build(single_point, 1.0, rng=0)
            assert np.isfinite(synopsis.range_count(Box.unit(2)))


class TestDegenerateSequences:
    def test_private_pst_on_empty_dataset(self):
        data = SequenceDataset(alphabet=Alphabet.of_size(3), sequences=())
        pst = private_pst(data, epsilon=1.0, l_top=5, rng=0)
        assert pst.size >= 1
        assert pst.string_frequency((0,)) >= 0.0

    def test_private_pst_on_empty_sequences(self):
        data = SequenceDataset(
            alphabet=Alphabet.of_size(2),
            sequences=(np.array([], dtype=np.int64),) * 5,
        )
        pst = private_pst(data, epsilon=1.0, l_top=5, rng=0)
        # Only the end markers exist; sampling must terminate.
        seq = pst.sample_sequence(rng=1, max_length=10)
        assert len(seq) <= 10

    def test_ngram_on_empty_dataset(self):
        data = SequenceDataset(alphabet=Alphabet.of_size(3), sequences=())
        model = ngram_model(data, epsilon=1.0, l_top=5, rng=0)
        assert model.string_frequency((0,)) >= 0.0
        assert len(model.sample_sequence(rng=1)) <= 5

    def test_pst_sampling_always_terminates(self):
        # A model whose histograms never emit & must still stop at the cap.
        data = SequenceDataset.from_symbols(
            Alphabet(("A",)), [["A"] * 30 for _ in range(50)]
        )
        pst = private_pst(data, epsilon=5.0, l_top=10, rng=0)
        seq = pst.sample_sequence(rng=2, max_length=25)
        assert len(seq) <= 25


class TestAdversarialQueries:
    def test_query_outside_domain(self, single_point):
        syn = _privtree_histogram(single_point, epsilon=1.0, rng=0)
        outside = Box((5.0, 5.0), (6.0, 6.0))
        assert syn.range_count(outside) == 0.0

    def test_sliver_query(self, uniform_2d):
        syn = _privtree_histogram(uniform_2d, epsilon=1.0, rng=0)
        sliver = Box((0.5, 0.0), (0.5 + 1e-12, 1.0))
        assert np.isfinite(syn.range_count(sliver))

    def test_negative_noisy_counts_still_answer(self, empty_2d):
        # Empty data + noise yields negative leaf counts; traversal must
        # propagate them (the release is unbiased, not clamped).
        syn = _privtree_histogram(empty_2d, epsilon=0.05, rng=3)
        assert np.isfinite(syn.range_count(Box((0.1, 0.1), (0.4, 0.4))))
