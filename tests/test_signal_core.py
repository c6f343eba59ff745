"""Accumulated-phase kernel: values, limits, bounds, additivity."""

import math

import numpy as np
import pytest

from iqfi_lab import evolution, signal_core
from iqfi_lab.protocol import TransverseDrive, make_trotterized_gx
from iqfi_lab.signal_core import SignalParams

from oracles import theta


def theta_segments(times, omega, phi=0.0):
    """Kernels of the consecutive segments between boundary times."""
    t = np.asarray(times, dtype=float)
    return theta(t[:-1], t[1:], omega, phi)


def test_full_period_is_zero():
    assert theta(0.0, 1.0, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)


def test_dc_limit_is_duration_times_cos_phi():
    assert theta(0.0, 2.0, 0.0) == 2.0
    assert theta(0.0, 2.0, 0.0, math.pi / 3.0) == pytest.approx(
        2.0 * math.cos(math.pi / 3.0), rel=1e-15)


def test_quarter_period_value():
    # (sin(pi/2) - sin 0)/(pi/2) = 2/pi
    assert theta(0.0, 1.0, math.pi / 2.0) == pytest.approx(
        2.0 / math.pi, rel=1e-14)


def test_vector_integer_periods():
    np.testing.assert_allclose(
        theta_segments([0.0, 1.0, 2.0], 2.0 * math.pi), [0.0, 0.0], atol=1e-15)


def test_vector_dc():
    np.testing.assert_allclose(theta_segments([0.0, 1.0], 0.0), [1.0])


def test_vector_half_periods():
    # segments [0, 0.5], [0.5, 1] at omega = pi: sin(pi/2) = 1, sin(pi) = 0
    np.testing.assert_allclose(
        theta_segments([0.0, 0.5, 1.0], math.pi),
        [1.0 / math.pi, -1.0 / math.pi], rtol=1e-14)


def test_vector_zero_length_segments():
    out = theta_segments([0.0, 1.0, 1.0, 2.0], 1.3, 0.4)
    assert out[1] == 0.0
    assert out.shape == (3,)


def test_magnitude_bound():
    rng = np.random.default_rng(3)
    for _ in range(300):
        t0 = float(rng.uniform(0.0, 10.0))
        t1 = t0 + float(rng.uniform(0.0, 10.0))
        om = float(rng.uniform(0.0, 20.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        th = theta(t0, t1, om, phi)
        cap = t1 - t0 if om == 0.0 else min(t1 - t0, 2.0 / om)
        assert abs(th) <= cap + 1e-12


def test_additivity():
    rng = np.random.default_rng(4)
    for _ in range(200):
        t0, t1, t2 = np.sort(rng.uniform(0.0, 8.0, size=3))
        om = float(rng.uniform(0.0, 15.0))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        whole = theta(t0, t2, om, phi)
        parts = theta(t0, t1, om, phi) + theta(t1, t2, om, phi)
        assert whole == pytest.approx(parts, abs=5e-15)


def _theta_taylor(t0, t1, omega, phi):
    """Three-term small-omega expansion of Theta: the reference series."""
    c, s = np.cos(phi), np.sin(phi)
    out = (t1 - t0) * c
    out = out - 0.5 * omega * (t1 * t1 - t0 * t0) * s
    out = out - (omega * omega / 6.0) * (t1 ** 3 - t0 ** 3) * c
    return out


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
            a = theta(t0, t1, om, phi)
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
    # each finite, their product not: the phase rate zeta*B must be
    with pytest.raises(ValueError, match="zeta\\*B must be finite"):
        SignalParams(B=1e200, omega=1.0, zeta=1e200)


def _recurrence(edges, omega, phi, widths=None):
    """Theta per segment from _segment_thetas, copied out of its reused
    buffer; a zero-width segment gives 0, as theta does."""
    return np.array([np.zeros_like(omega) if th is None else th.copy()
                     for th in signal_core._segment_thetas(edges, omega, phi,
                                                           widths)])


def _assert_matches_theta(edges, omega, phi, widths=None):
    """Segment by segment against theta on [t0, t0 + d].

    Both round the phase omega*t + phi, theta at each midpoint and the
    recurrence at its reseeds, so they agree to about eps times that
    phase; the recurrence adds at most 2*_RESEED_STRIDE rounded complex
    multiplications.  The bound is 1e-15*d times the sum of the two.
    """
    t0 = np.asarray(edges[:-1], dtype=float)
    d = np.diff(edges) if widths is None else np.asarray(widths, dtype=float)
    want = theta(t0[:, None], (t0 + d)[:, None], omega[None, :], phi)
    got = _recurrence(edges, omega, phi, widths)
    scale = (1.0 + omega[None, :] * (t0 + d)[:, None] + abs(phi)
             + 2 * signal_core._RESEED_STRIDE)
    err = np.abs(got - want)
    assert (err <= 1e-15 * d[:, None] * scale).all(), (
        (err / (d[:, None] * scale)).max())
    # at omega = 0 both are d*cos(phi), bit for bit (theta's d is
    # (t0 + d) - t0, which is d itself only for widths from the edges)
    if widths is None:
        zero = omega == 0.0
        np.testing.assert_array_equal(got[:, zero], want[:, zero])
    return got


OMEGAS = np.concatenate(([0.0], np.linspace(1e-3, 1e4, 1201),
                         np.random.default_rng(6).uniform(0.0, 1e4, 200)))


@pytest.mark.parametrize("phi", [0.0, 0.75 * math.pi])
def test_recurrence_matches_theta_on_equal_segments(phi):
    # 256 segments of exactly 1/64: chains sixteen times the reseed stride
    edges = np.arange(257) * (4.0 / 256)
    _assert_matches_theta(edges, OMEGAS, phi)


@pytest.mark.parametrize("phi", [0.0, 0.75 * math.pi])
def test_recurrence_matches_theta_on_the_trotter_grid(phi):
    # lengths k*T/m - (k-1)*T/m that differ by an ulp, and a last pulse at T
    seq = make_trotterized_gx(3.3, m=7, g=1.0)
    edges = seq.boundaries()
    assert len(set(np.diff(edges)[:-1])) > 1
    _assert_matches_theta(edges, OMEGAS, phi)


def test_recurrence_matches_theta_on_a_mixed_random_train():
    # pulses at 0 and T, repeated times (zero-length segments), and lengths
    # that occur once between runs of a recurring length longer than the
    # reseed stride
    rng = np.random.default_rng(8)
    pieces = [[0.0, 0.0]]
    t = 0.0
    for run in (3, 40, 1, 17):
        for _ in range(run):
            t += 0.125
            pieces.append([t])
        t += float(rng.uniform(0.01, 0.5))
        pieces.append([t, t])
    edges = np.concatenate(pieces)
    for phi in (0.0, 2.1):
        _assert_matches_theta(edges, OMEGAS, phi)


def test_recurrence_matches_theta_where_no_length_recurs():
    # every nonzero length occurs once: h and s are recomputed at every
    # segment, and the recurrence still agrees with theta
    rng = np.random.default_rng(10)
    edges = np.concatenate(([0.0, 0.0], np.sort(rng.uniform(0.0, 3.0, 12)),
                            [3.0, 3.0]))
    widths = np.diff(edges)
    assert len(set(widths[widths > 0.0])) == np.count_nonzero(widths)
    _assert_matches_theta(edges, OMEGAS, 0.7)


def test_held_length_is_recomputed_only_when_it_changes(monkeypatch):
    # the trotter grid (3.3, 64) has lengths that differ by an ulp: h and s
    # are recomputed at each change of length and at no other segment
    calls = []
    half_step = signal_core._half_step

    def counted(h, s, scratch, omega, d):
        calls.append(d)
        half_step(h, s, scratch, omega, d)

    monkeypatch.setattr(signal_core, "_half_step", counted)
    edges = make_trotterized_gx(3.3, m=64, g=1.0).boundaries()
    widths = np.diff(edges)
    widths = widths[widths > 0.0]
    changes = [d for k, d in enumerate(widths) if k == 0 or d != widths[k - 1]]
    assert 1 < len(changes) < len(widths)
    _assert_matches_theta(edges, OMEGAS, 0.3)
    assert calls == changes


def test_recurrence_with_nominal_widths():
    # a drive passes its nominal step width for steps whose ends are
    # start + k*dt; every step then shares one length
    start, dt, n = 0.3, 1.1 / 37, 37
    edges = np.append(start + np.arange(n) * dt, start + 1.1)
    _assert_matches_theta(edges, OMEGAS, 0.4, widths=[dt] * n)


@pytest.mark.parametrize("k0, k1", [(0, 37), (5, 6), (13, 50), (16, 48)])
def test_run_matches_stream(k0, k1):
    # a run of a drive's steps from _run_thetas is the recurrence of
    # _segment_thetas vectorized, reseeded from the run's first step: it
    # meets the same bound against theta
    start, dt, phi = 0.3, 1.1 / 37, 0.4
    t0 = start + np.arange(k0, k1) * dt
    want = theta(t0[:, None], (t0 + dt)[:, None], OMEGAS[None, :], phi)
    got = signal_core._run_thetas(start, dt, k0, k1, OMEGAS, phi)
    assert got.shape == want.shape
    scale = (1.0 + OMEGAS[None, :] * (t0 + dt)[:, None] + phi
             + 2 * signal_core._RESEED_STRIDE)
    err = np.abs(got - want)
    assert (err <= 1e-15 * dt * scale).all(), (err / (dt * scale)).max()
    stream = _recurrence(np.append(t0, t0[-1] + dt), OMEGAS, phi,
                         [dt] * (k1 - k0))
    np.testing.assert_array_equal(got[:, OMEGAS == 0.0],
                                  stream[:, OMEGAS == 0.0])


def test_uniform_train_evaluates_no_theta(monkeypatch):
    # 64 equal segments: one exact phase per reseed stride (so never more
    # than ceil(64/stride), and never fewer: a chain that is not reseeded
    # drifts).  The package has no closed-form Theta to call at all: it is
    # the tests' oracle
    assert not hasattr(signal_core, "theta")
    calls = {"phase": 0, "h": 0, "block": 0, "level": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(signal_core, "_unit_phase",
                        counted("phase", signal_core._unit_phase))
    seq = make_trotterized_gx(32.0, m=64, g=math.pi / 2.0)
    j = evolution.qfi_vs_omega(seq, SignalParams(B=1.0, omega=0.0),
                               omegas=np.linspace(0.0, 50.0, 101))
    assert np.isfinite(j).all()
    assert calls["phase"] == math.ceil(64 / signal_core._RESEED_STRIDE)
    # the drive's steps take the same recurrence, a block at a time: in a
    # 5-node batch each level is one block and its last step, each with
    # one h and s and one call for the exact phases at its reseeds
    monkeypatch.setattr(signal_core, "_half_step",
                        counted("h", signal_core._half_step))
    monkeypatch.setattr(evolution, "_run_thetas",
                        counted("block", signal_core._run_thetas))
    monkeypatch.setattr(evolution, "_propagate",
                        counted("level", evolution._propagate))
    calls["phase"] = 0
    evolution.qfi_vs_omega(TransverseDrive(g=1.0, total_time=0.5),
                           SignalParams(B=0.3, omega=0.0),
                           omegas=np.linspace(0.0, 20.0, 5))
    assert calls["h"] == calls["phase"] == calls["block"] == 2 * calls["level"]
    assert calls["level"] >= 3
