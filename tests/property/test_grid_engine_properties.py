"""Property tests of the grid synopses' one range-count engine.

``UniformGrid.range_count_arrays`` and ``AdaptiveGrid.range_count_arrays``
are held to the frozen per-box answers in ``tests/baselines/grid_reference``
to float round-off, and each answer must be the same bits however it is
asked: alone, in a shuffled batch, in batches cut into chunks of any size,
or over counts laid out in Fortran order or as a strided slice.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ag as ag_module
from repro.baselines import grid as grid_module
from repro.baselines.ag import AdaptiveGrid
from repro.baselines.grid import UniformGrid
from repro.domains import Box

from ..baselines.grid_reference import (
    reference_ag_range_count,
    reference_grid_range_count,
)

#: Relative tolerance against the frozen reference; the absolute floor is
#: this much of the sum of the counts' magnitudes, the scale of the prefix
#: sums' round-off (it decides for answers small against that sum).
RTOL = 1e-12
FLOOR = 1e-13


@st.composite
def domains(draw, ndim):
    low = [draw(st.floats(-10.0, 10.0)) for _ in range(ndim)]
    extent = [draw(st.floats(0.5, 10.0)) for _ in range(ndim)]
    return Box(tuple(low), tuple(lo + e for lo, e in zip(low, extent)))


def noisy_counts(seed, shape):
    """Laplace-noised counts: fractional, and negative in places."""
    return np.random.default_rng(seed).laplace(3.0, 10.0, size=shape)


seeds = st.integers(0, 2**32 - 1)


@st.composite
def grids(draw, ndim=None, max_cells=12):
    """1-D to 4-D grids of 1-12 cells per axis (or ``ndim``-D ones)."""
    if ndim is None:
        ndim = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, max_cells)) for _ in range(ndim))
    return UniformGrid(draw(domains(ndim)), noisy_counts(draw(seeds), shape))


@st.composite
def adaptive_grids(draw):
    """A 2-D level-1 grid with any set of its cells refined."""
    level1 = draw(grids(ndim=2, max_cells=6))
    cells = st.tuples(*(st.integers(0, m - 1) for m in level1.shape))
    subgrids = {}
    for index in sorted(draw(st.sets(cells))):
        m2 = draw(st.integers(1, 5))
        counts = noisy_counts(draw(seeds), (m2, m2))
        subgrids[index] = UniformGrid(level1.cell_box(index), counts)
    return AdaptiveGrid(level1=level1, subgrids=subgrids)


@st.composite
def intervals(draw, edges):
    """One query side along an axis: inside the domain, across its bounds,
    outside it, or on cell edges."""
    low, high = float(edges[0]), float(edges[-1])
    span = high - low
    kind = draw(st.sampled_from(["inside", "across", "outside", "aligned"]))
    if kind == "aligned":
        i = draw(st.integers(0, len(edges) - 2))
        j = draw(st.integers(i + 1, len(edges) - 1))
        return float(edges[i]), float(edges[j])
    width = span * draw(st.floats(0.01, 1.5))
    if kind == "outside":
        gap = span * draw(st.floats(0.0, 1.0))
        if draw(st.booleans()):
            return high + gap, high + gap + width
        return low - gap - width, low - gap
    if kind == "inside":
        start = low + span * draw(st.floats(0.0, 0.99))
        return start, start + min(width, high - start)
    start = low + span * draw(st.floats(-0.5, 0.99))
    return start, max(start + width, high + span * draw(st.floats(0.0, 0.5)))


@st.composite
def batches(draw, grid):
    """1-12 queries with per-axis sides drawn by :func:`intervals`."""
    n = draw(st.integers(1, 12))
    lows = np.empty((n, grid.ndim))
    highs = np.empty((n, grid.ndim))
    for k in range(grid.ndim):
        edges = grid.edges(k)
        for q in range(n):
            lows[q, k], highs[q, k] = draw(intervals(edges))
    return lows, highs


def outside(lows, highs, domain):
    """Rows whose box misses the domain on some axis."""
    below = highs <= np.array(domain.low)
    return (below | (lows >= np.array(domain.high))).any(axis=1)


def reweighed(grid, layout):
    """``grid`` with its counts copied in Fortran order or as a strided view."""
    if layout == "fortran":
        counts = np.asfortranarray(grid.counts)
    else:
        wide = np.zeros(tuple(2 * s for s in grid.shape))
        view = tuple(slice(None, None, 2) for _ in grid.shape)
        wide[view] = grid.counts
        counts = wide[view]
    return UniformGrid(domain=grid.domain, counts=counts)


def assert_same_bits(got, expected):
    """``got`` holds exactly ``expected``'s float64 bits, signed zeros too."""
    assert got.dtype == expected.dtype == np.float64
    assert got.tobytes() == expected.tobytes()


def assert_batch_independent(synopsis, lows, highs, answers, data):
    """Each answer asked alone, and in a shuffled batch, is the same bits."""
    alone = [
        synopsis.range_count_arrays(lows[i : i + 1], highs[i : i + 1])[0]
        for i in range(len(lows))
    ]
    assert_same_bits(np.array(alone), answers)
    order = np.array(data.draw(st.permutations(range(len(lows)))), dtype=np.intp)
    shuffled = synopsis.range_count_arrays(lows[order], highs[order])
    assert_same_bits(shuffled, answers[order])


def magnitude(*grids):
    """The sum of the counts' magnitudes, the scale of the round-off."""
    return sum(float(np.abs(g.counts).sum()) for g in grids)


class TestUniformGridEngine:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_frozen_per_box_answer(self, data):
        grid = data.draw(grids())
        lows, highs = data.draw(batches(grid))
        answers = grid.range_count_arrays(lows, highs)
        boxes = [Box.from_arrays(lo, hi) for lo, hi in zip(lows, highs)]
        reference = np.array([reference_grid_range_count(grid, box) for box in boxes])
        np.testing.assert_allclose(
            answers, reference, rtol=RTOL, atol=FLOOR * magnitude(grid)
        )
        assert_same_bits(grid.range_count_many(boxes), answers)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_answers_do_not_depend_on_the_batch_or_layout(self, data):
        grid = data.draw(grids())
        lows, highs = data.draw(batches(grid))
        answers = grid.range_count_arrays(lows, highs)
        assert_batch_independent(grid, lows, highs, answers, data)
        for layout in ("fortran", "sliced"):
            relaid = reweighed(grid, layout)
            assert_same_bits(relaid.range_count_arrays(lows, highs), answers)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_box_outside_the_domain_answers_zero(self, data):
        grid = data.draw(grids())
        lows, highs = data.draw(batches(grid))
        missed = outside(lows, highs, grid.domain)
        answers = grid.range_count_arrays(lows, highs)
        assert answers[missed].tobytes() == np.zeros(missed.sum()).tobytes()


    def test_a_box_on_the_far_side_of_a_domain_end_answers_zero(self):
        """A box that starts exactly at the domain's high end is empty, also
        where ``extent * (1 / extent)`` rounds below 1."""
        extent = 1.7844836840543035
        assert extent * (1 / extent) < 1.0
        grid = UniformGrid(Box((0.0, 0.0), (1.0, extent)), np.full((3, 1), 7.0))
        lows = np.array([[0.0, extent], [0.0, -1.0]])
        highs = np.array([[1.0, 2 * extent], [1.0, 0.0]])
        assert grid.range_count_arrays(lows, highs).tobytes() == np.zeros(2).tobytes()

    def test_nan_and_huge_bounds_answer_without_a_warning(self):
        """A NaN bound answers 0, as in the tree's engine; bounds far past
        the domain clip to it before any arithmetic could overflow."""
        grid = UniformGrid(Box.unit(2), np.full((3, 4), 2.0))
        lows = np.array([[np.nan, 0.0], [0.0, 0.0], [-1e308, -1e308]])
        highs = np.array([[1.0, 1.0], [1.0, np.nan], [1e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            answers = grid.range_count_arrays(lows, highs)
        assert answers.tobytes() == np.array([0.0, 0.0, 24.0]).tobytes()

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_an_inverted_box_answers_zero(self, data):
        """A box whose low side passes its high side on some axis is empty."""
        grid = data.draw(grids())
        lows, highs = data.draw(batches(grid))
        k = data.draw(st.integers(0, grid.ndim - 1))
        lows[:, k], highs[:, k] = highs[:, k].copy(), lows[:, k].copy()
        answers = grid.range_count_arrays(lows, highs)
        assert answers.tobytes() == np.zeros(len(lows)).tobytes()


class TestAdaptiveGridEngine:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_frozen_per_box_answer(self, data):
        ag = data.draw(adaptive_grids())
        lows, highs = data.draw(batches(ag.level1))
        answers = ag.range_count_arrays(lows, highs)
        boxes = [Box.from_arrays(lo, hi) for lo, hi in zip(lows, highs)]
        reference = np.array([reference_ag_range_count(ag, box) for box in boxes])
        scale = magnitude(ag.level1, *ag.subgrids.values())
        np.testing.assert_allclose(answers, reference, rtol=RTOL, atol=FLOOR * scale)
        assert_same_bits(ag.range_count_many(boxes), answers)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_answers_do_not_depend_on_the_batch_or_layout(self, data):
        ag = data.draw(adaptive_grids())
        lows, highs = data.draw(batches(ag.level1))
        answers = ag.range_count_arrays(lows, highs)
        assert_batch_independent(ag, lows, highs, answers, data)
        for layout in ("fortran", "sliced"):
            relaid = AdaptiveGrid(
                level1=reweighed(ag.level1, layout),
                subgrids={i: reweighed(g, layout) for i, g in ag.subgrids.items()},
            )
            assert_same_bits(relaid.range_count_arrays(lows, highs), answers)
        missed = outside(lows, highs, ag.level1.domain)
        assert answers[missed].tobytes() == np.zeros(missed.sum()).tobytes()


class TestChunks:
    """Both engines cut a batch into chunks of whole queries; the cut must
    not show in any answer's bits."""

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_grid_answers_do_not_depend_on_the_chunk_size(self, data):
        grid = data.draw(grids())
        lows, highs = data.draw(batches(grid))
        answers = grid.range_count_arrays(lows, highs)
        entries = data.draw(st.integers(1, 3 * 4**grid.ndim))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grid_module, "_ENTRIES_PER_CHUNK", entries)
            assert_same_bits(grid.range_count_arrays(lows, highs), answers)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_ag_answers_do_not_depend_on_the_chunk_size(self, data):
        ag = data.draw(adaptive_grids())
        lows, highs = data.draw(batches(ag.level1))
        answers = ag.range_count_arrays(lows, highs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ag_module, "_QUERIES_PER_CHUNK", data.draw(st.integers(1, 3)))
            patch.setattr(grid_module, "_ENTRIES_PER_CHUNK", data.draw(st.integers(1, 40)))
            assert_same_bits(ag.range_count_arrays(lows, highs), answers)

    def test_a_batch_of_several_default_chunks(self):
        """2,100 4-D queries fill three default chunks of 1,024."""
        rng = np.random.default_rng(11)
        grid = UniformGrid(Box.unit(4), noisy_counts(3, (5, 4, 6, 3)))
        lows = rng.uniform(-0.2, 0.9, size=(2100, 4))
        highs = lows + rng.uniform(0.01, 0.8, size=(2100, 4))
        answers = grid.range_count_arrays(lows, highs)
        assert answers.shape == (2100,)
        alone = [grid.range_count_arrays(lows[i : i + 1], highs[i : i + 1])[0] for i in range(2100)]
        assert_same_bits(np.array(alone), answers)
        boxes = [Box.from_arrays(lo, hi) for lo, hi in zip(lows, highs)]
        reference = np.array([reference_grid_range_count(grid, box) for box in boxes])
        np.testing.assert_allclose(answers, reference, rtol=RTOL, atol=FLOOR * magnitude(grid))
