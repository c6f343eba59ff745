"""Accumulated-phase kernel: values, limits, bounds, additivity."""

import math

import numpy as np
import pytest

from iqfi_lab.signal_core import (
    SignalParams,
    TimeInterval,
    _theta_raw,
    _theta_taylor,
    theta,
    theta_vector,
)


def sig(omega, phi=0.0, B=1.0, zeta=1.0):
    return SignalParams(B=B, omega=omega, phi=phi, zeta=zeta)


def test_full_period_is_zero():
    assert theta(TimeInterval(0.0, 1.0), sig(2.0 * math.pi)) == pytest.approx(0.0, abs=1e-15)


def test_dc_limit_is_duration_times_cos_phi():
    assert theta(TimeInterval(0.0, 2.0), sig(0.0)) == 2.0
    assert theta(TimeInterval(0.0, 2.0), sig(0.0, phi=math.pi / 3.0)) == pytest.approx(
        2.0 * math.cos(math.pi / 3.0), rel=1e-15)


def test_quarter_period_value():
    # (sin(pi/2) - sin 0)/(pi/2) = 2/pi
    assert theta(TimeInterval(0.0, 1.0), sig(math.pi / 2.0)) == pytest.approx(
        2.0 / math.pi, rel=1e-14)


def test_vector_integer_periods():
    np.testing.assert_allclose(
        theta_vector([0.0, 1.0, 2.0], sig(2.0 * math.pi)), [0.0, 0.0], atol=1e-15)


def test_vector_dc():
    np.testing.assert_allclose(theta_vector([0.0, 1.0], sig(0.0)), [1.0])


def test_vector_half_periods():
    # segments [0, 0.5], [0.5, 1] at omega = pi: sin(pi/2) = 1, sin(pi) = 0
    np.testing.assert_allclose(
        theta_vector([0.0, 0.5, 1.0], sig(math.pi)),
        [1.0 / math.pi, -1.0 / math.pi], rtol=1e-14)


def test_vector_zero_length_segments():
    out = theta_vector([0.0, 1.0, 1.0, 2.0], sig(1.3, phi=0.4))
    assert out[1] == 0.0
    assert out.shape == (3,)


def test_vector_rejects_decreasing_times():
    with pytest.raises(ValueError):
        theta_vector([0.0, 2.0, 1.0], sig(1.0))


def test_magnitude_bound():
    rng = np.random.default_rng(3)
    for _ in range(300):
        t0 = float(rng.uniform(0.0, 10.0))
        t1 = t0 + float(rng.uniform(0.0, 10.0))
        om = float(rng.uniform(0.0, 20.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        th = theta(TimeInterval(t0, t1), sig(om, phi=phi))
        cap = t1 - t0 if om == 0.0 else min(t1 - t0, 2.0 / om)
        assert abs(th) <= cap + 1e-12


def test_additivity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        t0, t1, t2 = np.sort(rng.uniform(0.0, 8.0, size=3))
        om = float(rng.uniform(0.0, 15.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        s = sig(om, phi=phi)
        whole = theta(TimeInterval(t0, t2), s)
        parts = theta(TimeInterval(t0, t1), s) + theta(TimeInterval(t1, t2), s)
        assert whole == pytest.approx(parts, abs=5e-15)


def test_series_matches_product_form_at_small_omega():
    # the product form needs no branch, but the 3-term series must agree
    # with it to 1e-12 relative at and below omega*t = 1e-4, the scale a
    # branched implementation would switch at
    rng = np.random.default_rng(5)
    for _ in range(100):
        t1 = float(rng.uniform(0.5, 10.0))
        t0 = float(rng.uniform(0.0, t1))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        for om in (1e-6 / t1, 1e-5 / t1, 1e-4 / t1):
            a = _theta_raw(t0, t1, om, phi)
            b = _theta_taylor(t0, t1, om, phi)
            # abs floor scaled by duration: near phi = pi/2 the kernel
            # itself cancels and a pure relative test is meaningless
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12 * (t1 - t0))


def test_signal_params_validation():
    with pytest.raises(ValueError):
        SignalParams(B=1.0, omega=-1.0)
    with pytest.raises(ValueError):
        SignalParams(B=1.0, omega=1.0, zeta=0.0)
    with pytest.raises(ValueError):
        SignalParams(B=1.0, omega=1.0, phi=7.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            SignalParams(B=bad, omega=1.0)
        with pytest.raises(ValueError, match="finite"):
            SignalParams(B=1.0, omega=bad)
        with pytest.raises(ValueError, match="finite"):
            SignalParams(B=1.0, omega=1.0, zeta=bad)


def test_interval_validation():
    with pytest.raises(ValueError):
        TimeInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        TimeInterval(-0.5, 1.0)
