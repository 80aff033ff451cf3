"""Tests for PrivTree parameter calibration."""

import math

import numpy as np
import pytest

from repro.core import PrivTreeParams
from repro.core.params import check_theta


class TestCalibrate:
    def test_quadtree_defaults(self):
        p = PrivTreeParams.calibrate(epsilon=1.0, fanout=4)
        assert p.lam == pytest.approx(7.0 / 3.0)
        assert p.delta == pytest.approx(p.lam * math.log(4))
        assert p.theta == 0.0
        assert p.fanout == 4

    def test_sensitivity_scales_lambda_and_delta(self):
        base = PrivTreeParams.calibrate(1.0, 4)
        scaled = PrivTreeParams.calibrate(1.0, 4, sensitivity=20.0)
        assert scaled.lam == pytest.approx(20.0 * base.lam)
        assert scaled.delta == pytest.approx(20.0 * base.delta)

    def test_gamma_property(self):
        p = PrivTreeParams.calibrate(0.8, 16)
        assert p.gamma == pytest.approx(math.log(16))

    def test_floor(self):
        p = PrivTreeParams.calibrate(1.0, 4, theta=5.0)
        assert p.floor() == pytest.approx(5.0 - p.delta)

    def test_split_probability_at_floor(self):
        p = PrivTreeParams.calibrate(1.0, 4)
        assert p.split_probability_at_floor() == pytest.approx(1.0 / 8.0)

    def test_epsilon_smaller_means_more_noise(self):
        lo = PrivTreeParams.calibrate(0.05, 4)
        hi = PrivTreeParams.calibrate(1.6, 4)
        assert lo.lam > hi.lam

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivTreeParams(lam=0.0, delta=1.0)
        with pytest.raises(ValueError):
            PrivTreeParams(lam=1.0, delta=0.0)
        with pytest.raises(ValueError):
            PrivTreeParams(lam=1.0, delta=1.0, fanout=1)
        with pytest.raises(ValueError):
            PrivTreeParams.calibrate(1.0, 4, sensitivity=0.0)


#: Split thresholds that are not finite real numbers.
BAD_THETAS = [float("nan"), float("inf"), -float("inf"), "abc", True, None]


class TestTheta:
    @pytest.mark.parametrize("theta", BAD_THETAS, ids=repr)
    def test_non_finite_theta_refused(self, theta):
        with pytest.raises(ValueError, match="theta must be a finite number"):
            check_theta(theta)
        with pytest.raises(ValueError, match="theta"):
            PrivTreeParams.calibrate(1.0, 4, theta=theta)

    @pytest.mark.parametrize("theta", [0, -3, 2.5, np.float64(-1e300), np.int64(7)], ids=repr)
    def test_finite_theta_accepted(self, theta):
        check_theta(theta)
        assert PrivTreeParams.calibrate(1.0, 4, theta=theta).theta == theta
