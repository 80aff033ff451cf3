"""Unified workload metrics: the §6.1 smoothed relative error, mean + max."""

from __future__ import annotations

import numpy as np
import pytest

from repro.queries import (
    RangeCount,
    Workload,
    WorkloadScore,
    relative_errors,
    score_workload,
    workload_error,
)


class TestRelativeErrors:
    def test_matches_formula(self):
        errors = relative_errors(
            np.array([110.0, 1.0]), np.array([100.0, 0.0]), smoothing=5.0
        )
        np.testing.assert_allclose(errors, [10.0 / 100.0, 1.0 / 5.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="smoothing"):
            relative_errors(np.ones(2), np.ones(2), smoothing=0.0)
        with pytest.raises(ValueError, match="shape"):
            relative_errors(np.ones(2), np.ones(3), smoothing=1.0)
        with pytest.raises(ValueError, match="at least one"):
            relative_errors(np.empty(0), np.empty(0), smoothing=1.0)


class TestScoreWorkload:
    def test_release_scored_through_answer(self, uniform_2d):
        from repro.api import from_spec

        release = from_spec("privtree", epsilon=1.0).fit(uniform_2d, rng=0)
        boxes = [
            RangeCount(low=(0.1, 0.1), high=(0.5, 0.5)).box,
            RangeCount(low=(0.2, 0.0), high=(0.9, 0.8)).box,
        ]
        workload = Workload.ranges(boxes)
        exacts = np.array([float(uniform_2d.count_in(b)) for b in boxes])
        smoothing = 0.001 * uniform_2d.n
        score = score_workload(release, workload, exacts, smoothing)
        assert isinstance(score, WorkloadScore)
        estimates = release.answer(workload)
        expected = np.abs(estimates - exacts) / np.maximum(exacts, smoothing)
        assert score.mean_error == pytest.approx(float(expected.mean()))
        assert score.max_error == pytest.approx(float(expected.max()))
        assert score.n_answers == 2
        assert workload_error(release, workload, exacts, smoothing) == score.mean_error
        assert float(score) == score.mean_error

    def test_bare_synopsis_falls_back_to_range_count_many(self, uniform_2d):
        """Ablation builders may return raw trees; scoring still works."""
        from repro.spatial.quadtree import _privtree_histogram

        tree = _privtree_histogram(uniform_2d, epsilon=1.0, rng=0)
        boxes = [RangeCount(low=(0.1, 0.1), high=(0.5, 0.5)).box]
        workload = Workload.ranges(boxes)
        exacts = np.array([float(uniform_2d.count_in(b)) for b in boxes])
        err = workload_error(tree, workload, exacts, smoothing=5.0)
        direct = abs(tree.range_count(boxes[0]) - exacts[0]) / max(exacts[0], 5.0)
        assert err == pytest.approx(direct)
