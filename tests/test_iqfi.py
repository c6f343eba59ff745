"""Frequency integration: adaptive quadrature, tail handling, averages."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import iqfi_lab.evolution
import iqfi_lab.iqfi
from iqfi_lab.bounds import pi_train_closed_form, ramsey_closed_form
from iqfi_lab.battery import BATTERY_CFG_KW, PAULI_STATES
from iqfi_lab.evolution import IntegrationError, _reduced
from iqfi_lab.iqfi import (
    ABS_TOL,
    QuadratureConfig,
    QuadratureNonConvergence,
    feature_scale,
    fit_loglog_slope,
    haar_average_iqfi,
    integrate_iqfi,
    integrate_qfi_band,
    sweep_iqfi_vs_T,
)
from iqfi_lab.iqfi import (
    _FORM_ROUNDING,
    _PAIR_CHUNK,
    _cos_tail,
    _integrate_adaptive,
    _jumps,
    _sici_tail,
    _tail,
)
from iqfi_lab.protocol import (
    GhzProtocol,
    PiecewiseGenerator,
    Pulse,
    PulseSequence,
    TransverseDrive,
    make_pi2_train,
    make_pi_train,
    make_ramsey,
    make_trotterized_gx,
    random_pulse_sequence,
)
from iqfi_lab.protocol import _haar_su2
from iqfi_lab.signal_core import SignalParams

FLAT = SignalParams(B=0.0, omega=0.0, phi=0.0, zeta=1.0)
GATE = QuadratureConfig(tail_start_factor=240.0, max_panels=40000)


def test_ramsey_integral_matches_closed_form():
    for T in (1.0, 4.0, 9.0):
        for phi in (0.0, 0.7, 2.5):
            sig = SignalParams(B=0.0, omega=0.0, phi=phi)
            spec = integrate_iqfi(make_ramsey(T), sig)
            assert spec.integral == pytest.approx(
                ramsey_closed_form(T, phi=phi), rel=1e-3)
            assert spec.error_estimate >= 0.0


def test_pi_train_integral_and_zeta_scaling():
    T = 4.0
    sig = SignalParams(B=0.0, omega=0.0, zeta=1.7)
    spec = integrate_iqfi(make_pi_train([1.0, 2.0, 3.0], T), sig)
    assert spec.integral == pytest.approx(2.0 * math.pi * 1.7 ** 2 * T,
                                          rel=4e-3)


def test_spectrum_fields_are_consistent():
    # a closed-form K has no nodes: a pi/2 train's axis leaves +-z, so a
    # field sends it through the quadrature
    spec = integrate_iqfi(make_pi2_train(0.5, 3.0),
                          SignalParams(B=0.3, omega=0.0))
    assert len(spec.omegas) == len(spec.values)
    assert np.all(np.diff(spec.omegas) > 0.0)
    assert spec.tail_start > spec.omegas[0]
    assert np.all(spec.values >= -ABS_TOL)


def test_sampled_spectrum_nonnegative_random_protocols():
    rng = np.random.default_rng(31)
    for _ in range(10):
        seq = random_pulse_sequence(rng, float(rng.uniform(1.0, 5.0)),
                                    max_pulses=8)
        sig = SignalParams(B=float(rng.uniform(-1.0, 1.0)),
                           omega=0.0, phi=float(rng.uniform(0.0, 6.2)))
        spec = integrate_iqfi(seq, sig)
        assert np.min(spec.values) >= -1e-12
        assert spec.integral >= 0.0


def test_ramsey_tail_coefficient():
    # J falls off as C / omega^2 with C -> 2 zeta^2 (the mid-point and
    # half-width phases coincide, so cos^2 sin^2 averages to 1/8); the tail
    # itself, as Ramsey's K is a closed form with coefficient K*Omega
    seq = make_ramsey(4.0)
    for zeta in (1.0, 1.5):
        sig = SignalParams(B=0.01, omega=0.0, zeta=zeta)
        omega_max = 40.0 * feature_scale(seq, sig)
        tail, _ = _tail(_jumps(seq), sig, omega_max)
        assert tail * omega_max == pytest.approx(2.0 * zeta ** 2, rel=0.05)


def test_error_decreases_with_tail_start():
    # at B = 0 the tail is exact, so the error that a later tail start
    # removes is the field's: trotter-gx at B = 1, against a tail that
    # starts 8 times further out
    seq = make_trotterized_gx(4.0, m=8, g=math.pi / 2.0)
    sig = SignalParams(B=1.0, omega=0.0)
    ref = integrate_iqfi(seq, sig, cfg=QuadratureConfig(
        tail_start_factor=1280.0, max_panels=40000)).integral
    errs = []
    for tf in (40.0, 80.0, 160.0):
        cfg = QuadratureConfig(tail_start_factor=tf, max_panels=40000)
        errs.append(abs(integrate_iqfi(seq, sig, cfg=cfg).integral - ref))
    assert errs[0] > errs[1] > errs[2]


def _zero_field_k(seq, zeta=1.0):
    """Filter-function closed form at B = 0, phi = 0:
    K = 2 pi zeta^2 sum_k len_k (1 - <Z_k>^2), Z_k = U_k^dag Z U_k the
    toggling-frame Z of segment k and <.> its initial-state mean, summed
    exactly."""
    psi, u, terms = seq.initial_vector(), np.eye(2), []
    z = np.diag([1.0, -1.0])
    for k, length in enumerate(np.diff(seq.boundaries())):
        if k:
            u = seq.pulses[k - 1].unitary @ u
        mean = np.vdot(psi, u.conj().T @ z @ u @ psi).real
        terms.append(length * (1.0 - mean ** 2))
    return 2.0 * math.pi * zeta ** 2 * math.fsum(terms)


def _close_pulse_train():
    """Two of its pulses sit 0.0018 apart: the tail starts at 240 x
    segments/T, about 1/gap, before the spectrum settles."""
    rng = np.random.default_rng(5)
    for _ in range(4):
        seq = random_pulse_sequence(rng, 3.0, max_pulses=6)
    return seq


def test_closed_forms_to_1e9_at_default_config():
    # the tail is exact for pulse trains at B = 0 and for GHZ registers at
    # any B, so K is as good as its body quadrature
    for phi in (0.0, 0.7, 2.5):
        k = integrate_iqfi(make_ramsey(4.0),
                           SignalParams(B=0.0, omega=0.0, phi=phi)).integral
        assert k == pytest.approx(ramsey_closed_form(4.0, phi), rel=1e-9)
    seq = _close_pulse_train()
    assert min(np.diff(seq.boundaries())) < 0.002
    assert integrate_iqfi(seq, FLAT).integral == pytest.approx(
        _zero_field_k(seq), rel=1e-9)
    ghz = GhzProtocol(n=3, times=(0.0, 0.7, 2.0), flips=(True,))
    for b in (0.0, 0.8, 3.0):
        k = integrate_iqfi(ghz, SignalParams(B=b, omega=0.0)).integral
        assert k == pytest.approx(2.0 * math.pi * 9.0 * 2.0, rel=1e-9)


@pytest.mark.parametrize("factor", [40.0, 240.0])
def test_error_estimate_bounds_zero_field_trains(factor):
    """|K - closed form| <= error_estimate over 64 seeded zero-field trains,
    at the default and the gate tail factor; K also meets the closed form
    to 1e-9."""
    rng = np.random.default_rng(1911)
    cfg = QuadratureConfig(tail_start_factor=factor, max_panels=40000)
    for _ in range(64):
        seq = random_pulse_sequence(rng, float(rng.uniform(1.0, 4.0)),
                                    max_pulses=8)
        spec = integrate_iqfi(seq, FLAT, cfg=cfg)
        exact = _zero_field_k(seq)
        assert abs(spec.integral - exact) <= spec.error_estimate
        assert spec.integral == pytest.approx(exact, rel=1e-9)


def _drive_k_zero_field(T, zeta=1.0):
    # at B = 0, phi = 0 the toggling-frame Z of g X stays orthogonal to the
    # initial |+>, so every instant contributes 2 pi zeta^2
    return 2.0 * math.pi * zeta ** 2 * T


@pytest.mark.parametrize("case", ["trotter_gx", "su2_train", "drive_T0.5",
                                  "drive_T2"])
def test_error_estimate_bounds_the_tail_model(case):
    """Where the tail is a model, not exact, the estimate still covers the
    error, and the error falls as the tail starts further out.

    The references: for trains at B = 1, K with the tail 8 times beyond
    the last factor (its error bound 64 times smaller); for the drive,
    whose far spectrum the splitting resolves only to its tolerance, the
    closed form at B = 0, where the (rate/Omega)^2 term is what is left.
    """
    if case == "trotter_gx":
        proto = make_trotterized_gx(4.0, m=8, g=math.pi / 2.0)
    elif case == "su2_train":
        proto = random_pulse_sequence(np.random.default_rng(8), 2.0,
                                      max_pulses=6)
    else:
        proto = TransverseDrive(g=math.pi / 2.0, total_time=float(case[7:]))
    if case.startswith("drive"):
        sig = FLAT
        ref = _drive_k_zero_field(proto.total_time)
    else:
        sig = SignalParams(B=1.0, omega=0.0, phi=0.4)
        ref = integrate_iqfi(proto, sig, cfg=QuadratureConfig(
            tail_start_factor=1920.0, max_panels=40000)).integral
    errs = []
    for factor in (10.0, 40.0, 240.0):
        spec = integrate_iqfi(proto, sig, cfg=QuadratureConfig(
            tail_start_factor=factor, max_panels=40000))
        errs.append(abs(spec.integral - ref))
        assert errs[-1] <= spec.error_estimate
    assert errs[0] > errs[1] > errs[2]


def test_sine_cosine_integrals_match_scipy():
    special = pytest.importorskip("scipy.special")
    x = np.concatenate([np.geomspace(1e-8, 1e5, 2001), [3.999999, 4.0]])
    si_c, ci = _sici_tail(x)
    si_ref, ci_ref = special.sici(x)
    assert np.max(np.abs(si_c - (0.5 * math.pi - si_ref))) < 4e-15
    assert np.max(np.abs(ci - ci_ref)) < 4e-15


def test_cosine_tail_edge_cases():
    om = 7.0
    # c = 0 is exactly cos(psi)/Omega, with no 0 * log 0
    assert _cos_tail(np.array([0.0]), 0.9, om)[0] == math.cos(0.9) / om
    # c < 0 is |c| with the phase negated, as cos is even
    c = np.array([-0.3, 0.3])
    neg, pos = _cos_tail(c, 0.9, om), _cos_tail(c, -0.9, om)
    assert neg[0] == pos[1] and np.isfinite(neg).all()
    # against Gauss-Legendre panels of cos(c w + psi)/w^2 on [Omega, 4000]
    # plus its far end in closed form
    x, wx = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(om, 4000.0, 2001)
    half = 0.5 * np.diff(edges)[:, None]
    w = half * x + (edges[:-1, None] + half)
    direct = float(np.sum(half * wx * np.cos(0.3 * w + 0.9) / w ** 2))
    far = _cos_tail(np.array([0.3]), 0.9, 4000.0)[0]
    assert direct + far == pytest.approx(neg[1], rel=1e-12)


def test_refining_rel_tol_never_degrades_accuracy():
    # a pi/2 train at B = 0.3 goes through the panels; against its panels
    # at rel_tol 1e-12 and the same tail, the error is the panels' own
    seq, sig = make_pi2_train(0.5, 4.0), SignalParams(B=0.3, omega=0.0)
    exact = integrate_iqfi(seq, sig, cfg=QuadratureConfig(
        rel_tol=1e-12, max_panels=40000)).integral
    prev = None
    for rel in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        spec = integrate_iqfi(seq, sig, cfg=QuadratureConfig(rel_tol=rel))
        assert spec.method == "quadrature"
        err = abs(spec.integral - exact)
        if prev is not None:
            assert err <= prev * (1.0 + 1e-12)
        prev = err


def test_band_integrals_are_additive():
    seq = make_ramsey(4.0)
    b1 = integrate_qfi_band(seq, FLAT, 0.0, 3.0).integral
    b2 = integrate_qfi_band(seq, FLAT, 3.0, 11.0).integral
    b3 = integrate_qfi_band(seq, FLAT, 0.0, 11.0).integral
    assert b1 + b2 == pytest.approx(b3, rel=1e-10)
    assert b3 < integrate_iqfi(seq, FLAT).integral


def _cross_spectral_panels(t1, t0):
    """The panel engine at the default config on the raw kernel
    sin(omega t1) sin(omega t0)/omega^2, with its exact tail (cosine tails
    at t1 -+ t0), so Omega need not wait for the kernel to settle."""
    cfg = QuadratureConfig()
    omega_max = cfg.tail_start_factor / min(t1, t0)
    g = _cos_tail(np.array([t1 - t0, t1 + t0]), 0.0, omega_max)
    return _integrate_adaptive(
        lambda om: t1 * t0 * np.sinc(om * t1 / math.pi)
        * np.sinc(om * t0 / math.pi),
        0.0, omega_max, 2.0 * math.pi / max(t1, t0), cfg,
        lambda: (0.5 * float(g[0] - g[1]), 0.0)).integral


def test_cross_spectral_closed_form_and_numeric():
    # the integral is (pi/2) min(t1, t0)
    rng = np.random.default_rng(32)
    for _ in range(8):
        t1 = float(rng.uniform(0.2, 6.0))
        t0 = float(rng.uniform(0.2, 6.0))
        num = _cross_spectral_panels(t1, t0)
        assert num == pytest.approx(0.5 * math.pi * min(t1, t0), rel=1e-4)
    # equal durations: the overlap saturates at (pi/2) t
    assert _cross_spectral_panels(4.0, 4.0) == pytest.approx(
        2.0 * math.pi, rel=1e-5)


def test_nonconvergence_raises():
    # a pi/2 train in a field: the closed form needs B = 0 or an axis on +-z
    sig = SignalParams(B=0.3, omega=0.0)
    with pytest.raises(QuadratureNonConvergence):
        integrate_iqfi(make_pi2_train(0.5, 4.0), sig,
                       cfg=QuadratureConfig(max_panels=10))
    # a budget above the base panel count but below convergence raises
    # while halving, with its message and no estimate
    with pytest.raises(QuadratureNonConvergence,
                       match=r"^halving \d+ panels would pass max_panels=60;") \
            as exc:
        integrate_iqfi(make_pi2_train(0.25, 4.0), sig,
                       cfg=QuadratureConfig(rel_tol=1e-13, max_panels=60))
    assert exc.value.args == (str(exc.value),)
    assert not hasattr(exc.value, "partial")


def test_haar_closed_form_path():
    seq = make_pi_train([1.0, 2.0, 3.0], 4.0)
    res = haar_average_iqfi(seq, FLAT)
    assert res.method == "closed_form"
    assert res.stderr == 0.0
    assert res.value == pytest.approx(4.0 * math.pi * 4.0 / 3.0, rel=1e-14)


def _six_state_mean(seq, sig, cfg=None):
    """Mean of K over the six Pauli eigenstates: the exact Haar average,
    as J has degree 2 in psi0 and psi0*."""
    return math.fsum(
        integrate_iqfi(PulseSequence(seq.pulses, seq.total_time, state),
                       sig, cfg=cfg).integral
        for state in PAULI_STATES) / len(PAULI_STATES)


def test_haar_monte_carlo_vs_trace_formula():
    # independent oracle: a seeded Haar Monte Carlo of K, each state
    # through integrate_iqfi; a pi/2 train, whose axis leaves +-z
    seq = make_pi2_train(1.0, 4.0)
    sig = SignalParams(B=0.3, omega=0.0, phi=0.5)
    res = haar_average_iqfi(seq, sig)
    assert (res.method, res.stderr, res.samples) == ("trace_formula", 0.0, 0)
    assert haar_average_iqfi(seq, sig, samples=8) == res  # samples is ignored
    rng = np.random.default_rng(1905)
    n = 512
    states = zip(np.arccos(rng.uniform(-1.0, 1.0, n)),
                 rng.uniform(0.0, 2.0 * math.pi, n))
    ks = np.array([integrate_iqfi(PulseSequence(seq.pulses, 4.0, st),
                                  sig).integral for st in states])
    stderr = np.std(ks, ddof=1) / math.sqrt(n)
    assert abs(res.value - np.mean(ks)) <= 4.0 * stderr


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_haar_exact_vs_six_states(seed):
    rng = np.random.default_rng(seed)
    seq = random_pulse_sequence(rng, float(rng.uniform(1.0, 4.0)),
                                max_pulses=5)
    B, phi = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.2, 6.0))
    # at B = 0 the average is a closed form at any phase
    for b, p in ((B, phi), (B, 0.0), (0.0, phi)):
        sig = SignalParams(B=b, omega=0.0, phi=p)
        res = haar_average_iqfi(seq, sig)
        assert res.method == ("closed_form" if b == 0.0 else "trace_formula")
        assert res.value == pytest.approx(_six_state_mean(seq, sig),
                                          rel=1e-9)


def test_haar_of_an_on_axis_train_in_a_field():
    # a pi-xy train's axis stays on +-z, so at B = 0.5 its average is the
    # closed form with the averaged covariance, taken before any pilot
    seq = random_pulse_sequence(np.random.default_rng(1919), 3.0,
                                max_pulses=10, kind="pi_xy")
    for phi in (0.0, 0.9):
        sig = SignalParams(B=0.5, omega=0.0, phi=phi)
        res = haar_average_iqfi(seq, sig)
        assert res.method == "closed_form"
        assert res.value == pytest.approx(_six_state_mean(seq, sig),
                                          rel=1e-9)


@pytest.mark.parametrize("kind", ["pi2", "su2"])
def test_haar_closed_form_for_any_train(kind):
    # at B = 0, phi = 0 the average is (2/3) 2 pi zeta^2 T for every pulse
    # sequence, not only for Z-flipping ones
    if kind == "pi2":
        seq = make_pi2_train(0.5, 2.0)
    else:
        seq = random_pulse_sequence(np.random.default_rng(7), 2.5,
                                    max_pulses=4)
    sig = SignalParams(B=0.0, omega=0.0, zeta=1.3)
    res = haar_average_iqfi(seq, sig)
    assert res.method == "closed_form"
    assert res.value == pytest.approx(
        (2.0 / 3.0) * 2.0 * math.pi * 1.3 ** 2 * seq.total_time, rel=1e-14)
    six = _six_state_mean(seq, sig, QuadratureConfig(**BATTERY_CFG_KW))
    assert res.value == pytest.approx(six, rel=1e-3)


def test_haar_is_k_with_no_initial_state():
    # the average is integrate_iqfi of the sequence with initial_state
    # None, on the panels and in closed form alike
    seq = random_pulse_sequence(np.random.default_rng(1931), 3.0,
                                max_pulses=4)
    xy = random_pulse_sequence(np.random.default_rng(1919), 3.0,
                               max_pulses=10, kind="pi_xy")
    for train, sig, method in (
            (seq, SignalParams(B=0.4, omega=0.0, phi=0.3), "trace_formula"),
            (seq, SignalParams(B=0.0, omega=0.0, phi=0.7), "closed_form"),
            (xy, SignalParams(B=0.5, omega=0.0, phi=0.9), "closed_form")):
        res = haar_average_iqfi(train, sig, GATE)
        assert res.method == method
        assert res.value == integrate_iqfi(
            replace(train, initial_state=None), sig, GATE).integral


@pytest.mark.parametrize("B, phi", [(0.4, 0.0), (1.1, 0.6)])
def test_haar_within_its_error_of_the_six_states(B, phi):
    seq = random_pulse_sequence(np.random.default_rng(1933), 2.5,
                                max_pulses=5)
    sig = SignalParams(B=B, omega=0.0, phi=phi)
    avg = integrate_iqfi(replace(seq, initial_state=None), sig, GATE)
    six = [integrate_iqfi(PulseSequence(seq.pulses, seq.total_time, st),
                          sig, GATE) for st in PAULI_STATES]
    mean = math.fsum(s.integral for s in six) / 6.0
    err = math.fsum(s.error_estimate for s in six) / 6.0
    assert avg.method == "quadrature"
    assert abs(avg.integral - mean) <= avg.error_estimate + err


def test_haar_propagates_once(monkeypatch):
    # no pilot integration of the sequence's own J: one pass of one
    # column, from |0> (psi0 None), per evaluation of the average
    calls = []
    propagate = iqfi_lab.evolution.discrete_propagators

    def counted(*args, **kwargs):
        psi, dpsi = propagate(*args, **kwargs)
        calls.append((kwargs.get("psi0"), psi.shape[1:], dpsi.shape[1:]))
        return psi, dpsi

    monkeypatch.setattr(iqfi_lab.evolution, "discrete_propagators", counted)
    seq = random_pulse_sequence(np.random.default_rng(1931), 3.0,
                                max_pulses=4)
    res = haar_average_iqfi(seq, SignalParams(B=0.4, omega=0.0, phi=0.3),
                            GATE)
    assert res.method == "trace_formula"
    assert calls == [(None, (2,), (2,))]


def test_haar_rejects_non_pulse_protocols():
    # the closed form is a single-qubit pulse-sequence result; a GHZ
    # register at B = 0 must not silently receive it
    for proto in (GhzProtocol(n=3, times=(0.0, 2.0)),
                  TransverseDrive(g=1.0, total_time=2.0)):
        with pytest.raises(ValueError, match="PulseSequence"):
            haar_average_iqfi(proto, FLAT)


def test_sweep_linear_scaling_and_failures():
    # pi/2 trains: at B = 0.3 their axis leaves +-z and K needs panels
    family = lambda T: make_pi2_train(T / 2.0, T)
    Ts = [2.0, 4.0, 8.0, 16.0]
    points = sweep_iqfi_vs_T(family, Ts, FLAT)
    assert [p.T for p in points] == Ts
    slope = fit_loglog_slope([p.T for p in points], [p.K for p in points])
    assert slope == pytest.approx(1.0, abs=1e-3)

    # every point runs out of panels: the sweep raises the first one's
    # error in the order given, named by its T
    with pytest.raises(QuadratureNonConvergence,
                       match=r"^T = 2: \[0, .*\] needs .* panels"):
        sweep_iqfi_vs_T(family, Ts, SignalParams(B=0.3, omega=0.0),
                        cfg=QuadratureConfig(max_panels=5))


def test_sweep_points_equal_serial_integrals_in_order():
    # at B = 3 and this budget the T = 1 and 2 trains converge (10 base
    # panels, all halved; 20, 18 of them halved and 2 of those halves
    # again), T = 4 runs out of panels while refining (2 final and 37
    # halved into 74 would make 76) and T = 8 before its first panels
    # (77); the Ts are out of order, so that the pool's order shows
    family = lambda T: make_pi2_train(T / 2.0, T)
    sig = SignalParams(B=3.0, omega=0.0)
    cfg = QuadratureConfig(max_panels=60, rel_tol=1e-12)
    points = sweep_iqfi_vs_T(family, [2.0, 1.0], sig, cfg=cfg)
    assert [p.T for p in points] == [2.0, 1.0]
    for p in points:
        spec = integrate_iqfi(family(p.T), sig, cfg)
        assert (p.K, p.K_err) == (spec.integral, spec.error_estimate)
    # out of order, the points still fit the train's near-linear K(T)
    assert fit_loglog_slope([2.0, 1.0], [p.K for p in points]) == \
        pytest.approx(1.0, abs=0.05)
    # a failed point fails the sweep with the error of the serial
    # integral, named by its T; of two, the first in the order given
    for T, Ts, message in (
            (4.0, [4.0, 1.0, 8.0, 2.0], "halving 37 panels would pass "
             "max_panels=60; raise max_panels or rel_tol"),
            (8.0, [1.0, 8.0, 2.0, 4.0], "[0, 120] needs 76.4 panels of "
             "width 1.57, above max_panels=60")):
        with pytest.raises(QuadratureNonConvergence) as serial:
            integrate_iqfi(family(T), sig, cfg)
        assert str(serial.value) == message
        with pytest.raises(QuadratureNonConvergence) as exc:
            sweep_iqfi_vs_T(family, Ts, sig, cfg=cfg)
        assert str(exc.value) == f"T = {T:g}: {message}"


def test_fit_loglog_slope_exact_power_law():
    Ts = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    Ks = 7.0 * Ts ** 3
    assert fit_loglog_slope(Ts, Ks) == pytest.approx(3.0, abs=1e-12)
    # window restricts the fit to an inner subset
    Ks_bent = Ks.copy()
    Ks_bent[0] = 1e6
    assert fit_loglog_slope(Ts, Ks_bent, window=(2.0, 16.0)) == pytest.approx(
        3.0, abs=1e-12)
    # fewer than two points in the window fit no line
    assert math.isnan(fit_loglog_slope(Ts, Ks, window=(3.0, 7.0)))


def test_a_window_of_one_duration_fits_no_slope():
    # one distinct T fitted a line: numpy's invalid-value warning in
    # polyfit, and a sweep's slope 1.8257 with a RankWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(fit_loglog_slope([1.0, 1.0], [1.0, 2.0]))
        sweep_iqfi_vs_T(make_ramsey, [2.0, 2.0], FLAT)


def test_a_sweep_returns_its_zero_points_and_the_fit_names_them():
    # Ramsey from |0> at B = 0 senses nothing: K = 0 exactly.  The sweep
    # returns both points, and the fit refuses them, naming the first,
    # where a silent NaN slope hid them
    family = lambda T: make_ramsey(T, initial_state=(0.0, 0.0))
    points = sweep_iqfi_vs_T(family, [1.0, 2.0], FLAT)
    assert [(p.T, p.K) for p in points] == [(1.0, 0.0), (2.0, 0.0)]
    with pytest.raises(ValueError, match=r"got K = 0\.0 at T = 1\.0$"):
        fit_loglog_slope([p.T for p in points], [p.K for p in points])


@pytest.mark.parametrize("Ts, Ks, point", [
    ([1.0, 2.0], [1.0, 0.0], "K = 0.0 at T = 2.0"),
    ([1.0, 2.0], [1.0, -1.0], "K = -1.0 at T = 2.0"),
    ([0.0, 2.0], [1.0, 2.0], "K = 1.0 at T = 0.0"),
    ([1.0, math.inf], [1.0, 2.0], "K = 2.0 at T = inf"),
    ([1.0, 2.0], [1.0, math.nan], "K = nan at T = 2.0")])
def test_fit_loglog_slope_rejects_a_point_that_is_not_positive(Ts, Ks, point):
    # the first three hit numpy's divide-by-zero or invalid-value warning
    # in log, the infinite T its invalid-value warning in polyfit, and the
    # NaN K gave a NaN slope
    with pytest.raises(ValueError, match=f"^a log-log slope needs finite "
                                         f"T > 0 and K > 0, got {point}$"):
        fit_loglog_slope(Ts, Ks)
    # a point outside the window stays unchecked
    assert fit_loglog_slope(Ts + [4.0, 8.0], Ks + [64.0, 512.0],
                            window=(4.0, 8.0)) == pytest.approx(3.0)


def test_equator_average_of_train():
    # fixed equatorial launch: K = 2 pi zeta^2 T independent of placement
    T = 4.0
    val = pi_train_closed_form(0.0, T, alpha=0.5 * math.pi)
    assert val == pytest.approx(2.0 * math.pi * T, rel=1e-14)
    spec = integrate_iqfi(make_pi_train([0.7, 1.1, 3.2], T), FLAT)
    assert spec.integral == pytest.approx(val, rel=4e-3)


def _check_engine_contract(spec):
    om, v, w = spec.omegas, spec.values, spec.weights
    assert om.shape == v.shape == w.shape
    assert np.all(np.diff(om) > 0.0)
    assembled = v @ w + spec.tail_coefficient / spec.tail_start
    assert assembled == pytest.approx(spec.integral, rel=1e-12)


@pytest.mark.parametrize("case", ["pulse_train", "ghz", "drive", "drive_band"])
def test_engine_contract(case):
    """Spectra carry weights that, with their tail, rebuild the integral."""
    sig = SignalParams(B=0.3, omega=0.0, phi=0.4)
    if case == "pulse_train":
        spec = integrate_iqfi(make_pi2_train(0.5, 3.0), sig)
    elif case == "ghz":
        spec = integrate_iqfi(GhzProtocol(n=3, times=(0.0, 1.0, 2.5)), sig)
    elif case == "drive":
        spec = integrate_iqfi(TransverseDrive(g=1.0, total_time=0.5),
                              SignalParams(B=0.05, omega=0.0),
                              cfg=QuadratureConfig(tail_start_factor=10.0))
    else:
        spec = integrate_qfi_band(TransverseDrive(g=1.0, total_time=2.0),
                                  SignalParams(B=1.0, omega=0.0), 1.0, 3.0)
        assert math.isinf(spec.tail_start) and spec.tail_coefficient == 0.0
    if case != "drive_band":
        assert spec.tail_coefficient > 0.0
    _check_engine_contract(spec)


def _su2_train():
    """A seeded 14-pulse SU(2) train of duration 4."""
    return random_pulse_sequence(np.random.default_rng(0), 4.0,
                                 max_pulses=16, kind="su2")


def _record_rounds(monkeypatch):
    """The (a, b, value, error) arrays of each batched _panels call."""
    rounds = []
    panels = iqfi_lab.iqfi._panels

    def recorded(f, a, b):
        out = panels(f, a, b)
        rounds.append((a, b, out[3], out[4]))
        return out

    monkeypatch.setattr(iqfi_lab.iqfi, "_panels", recorded)
    return rounds


def test_budget_exhausted_while_halving_raises_after_three_rounds(
        monkeypatch):
    # at rel_tol = 1e-10, 47 of the 48 base panels miss their share, 19 of
    # their 94 halves miss theirs, and 8 of those 38 quarters: 106 final
    # and 16 halves would pass the budget, so the third round raises
    rounds = _record_rounds(monkeypatch)
    sig = SignalParams(B=2.3, omega=0.0)
    cfg = QuadratureConfig(rel_tol=1e-10, max_panels=120)
    with pytest.raises(QuadratureNonConvergence) as exc:
        integrate_iqfi(_su2_train(), sig, cfg=cfg)
    assert [r[0].size for r in rounds] == [48, 94, 38]
    assert exc.value.args == ("halving 8 panels would pass max_panels=120; "
                              "raise max_panels or rel_tol",)


def test_a_base_panel_count_past_the_budget_raises_before_any_work(
        monkeypatch):
    # 4e300 base panels: raised with a short count before the tail or any
    # panel is formed (the count once printed with 300 digits)
    def no_work(*args, **kwargs):
        raise AssertionError("formed a panel or the tail")

    monkeypatch.setattr(iqfi_lab.iqfi, "_panels", no_work)
    monkeypatch.setattr(iqfi_lab.iqfi, "_tail", no_work)
    sig = SignalParams(B=0.3, omega=0.0)
    with pytest.raises(QuadratureNonConvergence) as exc:
        integrate_qfi_band(_su2_train(), sig, 0.0, 1e300)
    assert len(str(exc.value)) < 200
    assert isinstance(exc.value, IntegrationError)
    with pytest.raises(QuadratureNonConvergence):
        integrate_iqfi(make_pi_train([1.0, 2.0, 3.0], 4.0),
                       SignalParams(B=1e306, omega=0.0))


def test_a_tail_start_beyond_the_floats_is_bad_input():
    # Omega = 40 * 1e307: before the closed form (ramsey) and the tail
    for protocol in (make_ramsey(4.0), make_pi_train([1.0, 2.0], 4.0),
                     TransverseDrive(g=1.0, total_time=4.0)):
        with pytest.raises(ValueError, match="tail start"):
            integrate_iqfi(protocol, SignalParams(B=1e307, omega=0.0))


def test_k_and_its_error_are_finite_or_raise():
    # k_max = 4 pi zeta^2 N T overflows where K = 2 pi zeta^2 T does not:
    # the field deviation is 0 at B = 0, not 0 * inf = NaN
    sig = SignalParams(B=0.0, omega=0.0)
    spec = integrate_iqfi(GhzProtocol(n=2, times=(0.0, 4e306)), sig)
    assert spec.method == "closed_form"
    assert spec.integral == pytest.approx(2.0 * math.pi * 4.0 * 4e306,
                                          rel=1e-12)
    assert math.isfinite(spec.error_estimate)
    assert spec.error_estimate <= 1e-12 * spec.integral
    # K itself beyond the floats
    with pytest.raises(ValueError, match="beyond the floats"):
        integrate_iqfi(GhzProtocol(n=3, times=(0.0, 1e307)), sig)


def _bisected(case):
    """(protocol, signal) of a K whose panels are halved at the default
    config: the SU(2) train at B = 2.3, or at B = 2.5 and phi = 0.3, or
    the 64 pulses of trotter-gx at T = 32 and B = 1."""
    if case == "trotter_gx":
        return (make_trotterized_gx(32.0, m=64, g=math.pi / 2.0),
                SignalParams(B=1.0, omega=0.0))
    if case == "su2_phase":
        return _su2_train(), SignalParams(B=2.5, omega=0.0, phi=0.3)
    return _su2_train(), SignalParams(B=2.3, omega=0.0)


def test_only_the_panels_that_miss_their_share_are_halved(monkeypatch):
    # panels of width 4 pi/T; the first round's K sets the budget, and a
    # panel's share of it is budget * width/Omega.  Each round that
    # misses the budget halves just the panels that miss their share
    cfg = QuadratureConfig()
    recorded = _record_rounds(monkeypatch)
    for case, sizes in (("su2_train", [48, 26, 14]),
                        ("trotter_gx", [204, 42, 10])):
        proto, sig = _bisected(case)
        recorded.clear()
        spec = integrate_iqfi(proto, sig, cfg=cfg)
        rounds = list(recorded)
        omega = spec.tail_start
        assert [r[0].size for r in rounds] == sizes
        assert sizes[0] == math.ceil(
            omega / (iqfi_lab.iqfi._PANEL_WIDTH / proto.total_time))
        budget = max(ABS_TOL, cfg.rel_tol * abs(math.fsum(rounds[0][2])))
        final = []  # errors of the final panels
        for (a, b, _, err), nxt in zip(rounds, rounds[1:]):
            assert math.fsum(np.concatenate(final + [err])) > budget
            miss = err > budget * (b - a) / omega
            final.append(err[~miss])
            mid = 0.5 * (a[miss] + b[miss])
            assert nxt[0].size == 2 * np.count_nonzero(miss)
            np.testing.assert_array_equal(
                np.sort(nxt[0]), np.sort(np.concatenate([a[miss], mid])))
            np.testing.assert_array_equal(
                np.sort(nxt[1]), np.sort(np.concatenate([mid, b[miss]])))
        final.append(rounds[-1][3])
        assert math.fsum(np.concatenate(final)) <= budget
        assert spec.omegas.size == 33 * sum(e.size for e in final)
        _check_engine_contract(spec)
        ref = integrate_iqfi(proto, sig, cfg=replace(cfg, rel_tol=1e-12))
        assert abs(spec.integral - ref.integral) <= spec.error_estimate


@pytest.mark.parametrize("case", ["trotter_gx", "su2_phase"])
def test_error_estimate_covers_the_bisected_panels(monkeypatch, case):
    """Where panels are halved, the panels' part of the estimate, less the
    tail bound and the 1e-14 |K| rounding term, covers K's distance from
    panels at rel_tol 1e-12 under the same Omega and tail."""
    proto, sig = _bisected(case)
    rounds = _record_rounds(monkeypatch)
    spec = integrate_iqfi(proto, sig)
    assert len(rounds) > 1
    ref = integrate_iqfi(proto, sig, cfg=QuadratureConfig(rel_tol=1e-12))
    assert ref.tail_start == spec.tail_start
    _, bound = _tail(_jumps(proto), sig, spec.tail_start)
    panels = spec.error_estimate - bound - 1e-14 * abs(spec.integral)
    assert abs(spec.integral - ref.integral) <= panels


def _wide_start(case):
    """A protocol whose K the 4 pi/T start integrates: a seeded SU(2)
    train, trotter-gx at T = 16 or the drive at T = 4."""
    if case == "su2_train":
        return random_pulse_sequence(np.random.default_rng(3), 4.0,
                                     max_pulses=16, kind="su2")
    if case == "trotter_gx":
        return make_trotterized_gx(16.0, m=32, g=math.pi / 2.0)
    return TransverseDrive(g=math.pi / 2.0, total_time=4.0)


@pytest.mark.parametrize("case, B, phi", [
    ("su2_train", 1.0, 0.0), ("su2_train", 1.0, 0.7),
    ("trotter_gx", 1.0, 0.0), ("trotter_gx", 0.01, 0.0),
    ("drive", 1.0, 0.0)])
def test_error_estimate_covers_the_wide_base_panels(monkeypatch, case, B,
                                                    phi):
    """Base panels of width 4 pi/T at the default config: the panels' part
    of the estimate covers K's distance from panels of width pi/T at
    rel_tol 1e-12 under the same Omega and tail."""
    proto, sig = _wide_start(case), SignalParams(B=B, omega=0.0, phi=phi)
    spec = integrate_iqfi(proto, sig)
    assert spec.method == "quadrature"
    monkeypatch.setattr(iqfi_lab.iqfi, "_PANEL_WIDTH", math.pi)
    ref = integrate_iqfi(proto, sig, cfg=QuadratureConfig(rel_tol=1e-12))
    assert ref.tail_start == spec.tail_start
    assert ref.omegas.size >= 33 * math.ceil(
        spec.tail_start / (math.pi / proto.total_time))
    _, bound = _tail(_jumps(proto), sig, spec.tail_start)
    panels = spec.error_estimate - bound - 1e-14 * abs(spec.integral)
    assert abs(spec.integral - ref.integral) <= panels


@pytest.mark.xfail(strict=True, reason="ROADMAP item 16: at zeta B T = 15 "
                   "J varies faster than pi/T below a few zeta B, so the "
                   "first 4 pi/T panel is unresolved and |K33 - G16| "
                   "falls below its error")
def test_error_estimate_covers_a_strong_field():
    """An 11-pulse SU(2) train at B = 2.5, T = 6: K at rel_tol 1e-2 lies
    within K_err of K at rel_tol 1e-6, where the halving resolves the
    first panel (K 16.984977, K_err 0.0065)."""
    proto = random_pulse_sequence(np.random.default_rng(5), 6.0,
                                  max_pulses=16, kind="su2")
    sig = SignalParams(B=2.5, omega=0.0, phi=0.3)
    cfg = replace(GATE, rel_tol=1e-2)
    spec = integrate_iqfi(proto, sig, cfg=cfg)
    ref = integrate_iqfi(proto, sig, cfg=replace(cfg, rel_tol=1e-6))
    assert ref.integral == pytest.approx(16.984977, abs=1e-6)
    assert abs(spec.integral - ref.integral) <= spec.error_estimate


def test_a_nan_panel_error_is_beyond_the_floats(monkeypatch):
    # a NaN error ends the first round: no panel is halved for it, and K
    # is refused
    rounds = _record_rounds(monkeypatch)
    spectrum = iqfi_lab.iqfi.qfi_vs_omega

    def poisoned(protocol, signal, omegas, **kwargs):
        j = np.array(spectrum(protocol, signal, omegas=omegas, **kwargs))
        j[j.size // 2] = math.nan
        return j

    monkeypatch.setattr(iqfi_lab.iqfi, "qfi_vs_omega", poisoned)
    with pytest.raises(ValueError, match="beyond the floats"):
        integrate_iqfi(*_bisected("trotter_gx"))
    assert len(rounds) == 1


def test_gauss_kronrod_rule():
    # exact to degree 3n+1 = 49 with positive weights; the embedded Gauss
    # rule is leggauss(16) itself, with weight 0 at the 17 added nodes
    leg = np.polynomial.legendre
    nodes, (kronrod, gauss) = iqfi_lab.iqfi._NODES, iqfi_lab.iqfi._WEIGHTS.T
    assert nodes.size == kronrod.size == gauss.size == 33
    assert np.all(np.diff(nodes) > 0.0)
    moments = leg.legvander(nodes, 49).T @ kronrod
    assert np.abs(moments - 2.0 * np.eye(50)[0]).max() <= 1e-14
    assert (kronrod > 0.0).all()
    x, w = leg.leggauss(16)
    embedded = gauss != 0.0
    assert embedded.sum() == 16
    np.testing.assert_array_equal(nodes[embedded], x)
    np.testing.assert_array_equal(gauss[embedded], w)


def test_every_evaluated_frequency_is_kept(monkeypatch):
    # the panels' error comes from the same evaluations as their value
    evaluated = []
    spectrum = iqfi_lab.iqfi.qfi_vs_omega

    def recorded(protocol, signal, omegas, **kwargs):
        evaluated.append(np.array(omegas))
        return spectrum(protocol, signal, omegas=omegas, **kwargs)

    monkeypatch.setattr(iqfi_lab.iqfi, "qfi_vs_omega", recorded)
    rounds = _record_rounds(monkeypatch)
    spec = integrate_iqfi(*_bisected("su2_train"))
    assert spec.method == "quadrature"
    # a halved panel's nodes are the only ones not kept: 13 of the 48
    # base panels, into the 26 of the second round, and 7 of those, into
    # the 14 of the third
    halved = sum(r[0].size for r in rounds[1:]) // 2
    assert halved == 20
    assert sum(om.size for om in evaluated) == spec.omegas.size + 33 * halved
    assert np.isin(spec.omegas, np.concatenate(evaluated)).all()


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("protocol", [TransverseDrive(g=1.0, total_time=1.0),
                                      make_ramsey(1.0),
                                      GhzProtocol(n=2, times=(0.0, 1.0))])
def test_integrals_reject_bad_ode_tol(protocol, tol):
    # a GHZ register's K is a closed form, which still checks ode_tol
    sig = SignalParams(B=0.5, omega=0.0)
    with pytest.raises(ValueError, match="ode_tol"):
        integrate_iqfi(protocol, sig, ode_tol=tol)
    with pytest.raises(ValueError, match="ode_tol"):
        integrate_qfi_band(protocol, sig, 0.0, 1.0, ode_tol=tol)
    # checked before the panel budget, which a band this wide exceeds
    with pytest.raises(ValueError, match="ode_tol"):
        integrate_qfi_band(protocol, sig, 0.0, 1e9, ode_tol=tol)


# -- the zero-field closed form ----------------------------------------------


def _acceptance_02_trains():
    """The 50 seeded equatorial pi-xy trains of acceptance check 02."""
    rng = np.random.default_rng(1907)
    return [random_pulse_sequence(rng, 4.0, max_pulses=31, kind="pi_xy",
                                  equator=True) for _ in range(50)]


def _closed_form_cases(group):
    """(protocol, signal) pairs where K is a closed form."""
    if group == "acceptance_02":
        return [(seq, FLAT) for seq in _acceptance_02_trains()]
    if group == "trains":
        rng = np.random.default_rng(1914)
        seqs = [random_pulse_sequence(rng, float(rng.uniform(1.0, 4.0)),
                                      max_pulses=16, kind=kind)
                for kind in ("pi_xy", "su2") for _ in range(16)]
        return [(seq, SignalParams(B=0.0, omega=0.0, phi=phi))
                for seq in seqs for phi in (0.0, 0.7, 2.5)]
    return [(GhzProtocol(n=n, times=(0.0, 0.7, 1.6, 2.5), flips=(True, False)),
             SignalParams(B=b, omega=0.0, phi=0.4))
            for n in (2, 3) for b in (0.0, 0.8)]


def _check_against_the_quadrature(proto, sig):
    """The closed form against propagation and panels on [0, Omega] plus
    the boundary tail, which is exact here: within 1e-9 and within the sum
    of the two error estimates."""
    spec = integrate_iqfi(proto, sig, cfg=GATE)
    assert spec.method == "closed_form" and spec.omegas.size == 0
    band = integrate_qfi_band(proto, sig, 0.0, spec.tail_start, cfg=GATE)
    assert band.method == "quadrature"
    seq, reduced = _reduced(proto, sig)
    num = band.integral + _tail(_jumps(seq), reduced, spec.tail_start)[0]
    gap = abs(spec.integral - num)
    assert gap <= 1e-9 * abs(num)
    assert gap <= spec.error_estimate + band.error_estimate


@pytest.mark.parametrize("group", ["acceptance_02", "trains", "ghz"])
def test_closed_form_matches_the_quadrature(group):
    for proto, sig in _closed_form_cases(group):
        _check_against_the_quadrature(proto, sig)


@pytest.mark.parametrize("B", [0.3, 1.7])
def test_on_axis_closed_form_matches_the_quadrature(B):
    """Where every pulse maps Z to +-Z, J does not depend on B, and the
    closed form holds in a field: acceptance 02's pi trains, seeded pi-xy
    trains at two phases, and Ramsey."""
    rng = np.random.default_rng(1916)
    xy = [random_pulse_sequence(rng, float(rng.uniform(1.0, 4.0)),
                                max_pulses=16, kind="pi_xy")
          for _ in range(16)]
    cases = ([(seq, SignalParams(B=B, omega=0.0))
              for seq in _acceptance_02_trains()]
             + [(seq, SignalParams(B=B, omega=0.0, phi=phi))
                for seq in xy for phi in (0.0, 0.7)]
             + [(make_ramsey(2.5), SignalParams(B=B, omega=0.0, phi=0.7))])
    for proto, sig in cases:
        _check_against_the_quadrature(proto, sig)


def test_near_pi_trains_take_the_quadrature_or_cover_their_gap():
    """Pulses of angle pi + 1e-6 tip the axis off +-z by about 1e-6: at
    the gate tolerance that refuses the closed form, and at a loose one
    the closed form's estimate covers its distance from the quadrature."""
    rng = np.random.default_rng(1917)
    loose = QuadratureConfig(rel_tol=1e-3, tail_start_factor=240.0,
                             max_panels=40000)
    methods = set()
    for _ in range(6):
        xy = random_pulse_sequence(rng, float(rng.uniform(1.0, 4.0)),
                                   max_pulses=8, kind="pi_xy")
        seq = PulseSequence(tuple(Pulse(time=p.time, axis=p.axis,
                                        angle=math.pi + 1e-6)
                                  for p in xy.pulses),
                            xy.total_time, xy.initial_state)
        sig = SignalParams(B=float(rng.uniform(0.2, 2.0)), omega=0.0,
                           phi=float(rng.uniform(0.0, 6.2)))
        num = integrate_iqfi(seq, sig, cfg=GATE)
        assert num.method == "quadrature"
        spec = integrate_iqfi(seq, sig, cfg=loose)
        methods.add(spec.method)
        if spec.method == "closed_form":
            assert abs(spec.integral - num.integral) <= spec.error_estimate
    assert "closed_form" in methods


def test_closed_form_ramsey():
    for T in (0.3, 1.0, 4.0, 9.7):
        for phi in (0.0, 0.7, 2.5, 4.0):
            for zeta in (1.0, 1.7):
                sig = SignalParams(B=0.0, omega=0.0, phi=phi, zeta=zeta)
                want = 2.0 * zeta ** 2 * T * (
                    math.pi - math.log(4.0) * math.sin(2.0 * phi))
                k = integrate_iqfi(make_ramsey(T), sig).integral
                assert k == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("kind", ["su2", "small_angles"])
def test_closed_form_rounding_bound_on_a_long_train(kind):
    """Long trains: the O(N^2) form against the O(N) one.  1024 SU(2)
    pulses, and 512 pulses of 0.005 rad, whose jumps are so small that
    their rounding is not small relative to them."""
    rng = np.random.default_rng(1915)
    T = 4.0
    if kind == "su2":
        seq = PulseSequence(
            tuple(Pulse(time=float(t), matrix=_haar_su2(rng))
                  for t in np.sort(rng.uniform(0.0, T, 1024))),
            T, initial_state=(1.1, 0.3))
    else:
        seq = make_trotterized_gx(T, m=512, g=0.3, initial_state=(1.1, 0.3))
    spec = integrate_iqfi(seq, SignalParams(B=0.0, omega=0.0, zeta=1.3))
    assert spec.method == "closed_form"
    assert abs(spec.integral - _zero_field_k(seq, zeta=1.3)) \
        <= spec.error_estimate


def test_closed_form_memory_is_linear_at_phase_zero():
    # at phi = 0 the form needs no pulse pairs: 2048 pulses stay far below
    # the 34 MB of one 2049 x 2049 array
    seq = make_trotterized_gx(4.0, m=2048, g=0.3)
    tracemalloc.start()
    try:
        spec = integrate_iqfi(seq, FLAT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.method == "closed_form"
    assert peak < 10 * 2 ** 20


def _closed_form_from_full_arrays(seq, phi):
    """(K, K_err) of the zero-field closed form at zeta = 1 from the full
    pair arrays: K by one exact fsum of every term, K_err by the rounding
    bound of _zero_field_k, _FORM_ROUNDING times the O(N) part's magnitude
    plus _FORM_ROUNDING + _PAIR_CHUNK eps times the pairs'."""
    a, Q, r, n, _ = _jumps(seq)
    T = float(a[-1])
    length = math.pi * (np.diff(a) / T)
    total = (a[:, None] + a) / T
    log = -math.sin(2.0 * phi) * total * np.log(
        np.where(total > 0.0, total, 1.0))
    if n is None:
        same, cov = np.full(len(length), 2.0 / 3.0), (2.0 / 3.0) * Q @ Q.T
    else:
        qn = Q @ n
        same, cov = 1.0 - (r @ n) ** 2, Q @ Q.T - np.outer(qn, qn)
    q = np.linalg.norm(Q, axis=1) + 1.0
    k = 2.0 * T * math.fsum(np.concatenate([length * same,
                                            (cov * log).ravel()]))
    segments = (length * (np.linalg.norm(r, axis=1) + 1.0) ** 2).sum()
    pairs = (np.outer(q, q) * np.abs(log)).sum()
    err = 2.0 * T * (_FORM_ROUNDING * segments + (
        _FORM_ROUNDING + _PAIR_CHUNK * np.finfo(float).eps) * pairs)
    return k, err


def _check_closed_form_pairs(spec, seq, phi):
    assert spec.method == "closed_form"
    k, err = _closed_form_from_full_arrays(seq, phi)
    assert abs(spec.integral - k) <= spec.error_estimate
    assert spec.error_estimate == pytest.approx(err, rel=1e-12, abs=0.0)


def test_closed_form_pairs_are_summed_in_row_blocks():
    # at phi != 0 the pairs of 2048 pulses are formed a block of rows at a
    # time: the traced peak stays far below the 160 MB of the full arrays;
    # K lies within its K_err of one exact fsum of the full arrays' terms
    seq = make_trotterized_gx(4.0, m=2048, g=0.3, initial_state=(1.1, 0.3))
    tracemalloc.start()
    try:
        spec = integrate_iqfi(seq, SignalParams(B=0.0, omega=0.0, phi=0.7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    _check_closed_form_pairs(spec, seq, 0.7)
    # seeded SU(2) trains up to 300 pulses, with a definite initial state
    # and with none (the Haar average)
    rng = np.random.default_rng(1921)
    for count in (1, 7, 40, 300):
        times = np.sort(rng.uniform(0.0, 3.0, count))
        pulses = tuple(Pulse(time=float(t), matrix=_haar_su2(rng))
                       for t in times)
        phi = float(rng.uniform(0.1, 3.0))
        for state in ((float(rng.uniform(0.0, math.pi)),
                       float(rng.uniform(0.0, 6.2))), None):
            seq = PulseSequence(pulses, 3.0, initial_state=state)
            spec = integrate_iqfi(seq, SignalParams(B=0.0, omega=0.0, phi=phi))
            _check_closed_form_pairs(spec, seq, phi)


def test_tail_pairs_are_formed_in_row_blocks():
    # the tail of 512 pulses forms its pairs a block of rows at a time: the
    # traced peak stays far below the 83 MB of the two full 514 x 514
    # stacks, and the block sums agree with the full one
    seq = make_trotterized_gx(4.0, m=512, g=0.3)
    sig = SignalParams(B=0.5, omega=0.0, phi=0.7)
    jumps = _jumps(seq)
    tracemalloc.start()
    try:
        tail, _ = _tail(jumps, sig, 300.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    a, Q, _, n, _ = jumps
    g = _cos_tail(np.stack([a[:, None] - a, a[:, None] + a]),
                  np.array([0.0, 1.4])[:, None, None], 300.0)
    D = Q @ Q.T - np.outer(Q @ n, Q @ n)
    assert tail == pytest.approx(2.0 * np.sum(D * (g[0] - g[1])), rel=1e-12)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (math.nan, 1.0),
                                    (0.0, math.nan), (2.0, 1.0)])
def test_band_rejects_bad_edges(lo, hi):
    with pytest.raises(ValueError, match="0 <= lo < hi < inf"):
        integrate_qfi_band(make_ramsey(2.0), FLAT, lo, hi)


def test_results_give_the_tail_share_a_finite_value():
    """A closed form and a quadrature of each protocol kind (a drive's K
    is always a quadrature): tail_start is finite and positive, and
    tail_coefficient / tail_start / integral, which a reader forms, is
    finite, as JSON has no token for a NaN or an infinity."""
    sig = SignalParams(B=0.3, omega=0.0, phi=0.4)
    ghz = GhzProtocol(n=2, times=(0.0, 1.0, 2.5), flips=(True,))
    # below the rounding of the form, the register takes the panels
    exacting = QuadratureConfig(rel_tol=1e-15, max_panels=40000)
    results = [
        integrate_iqfi(make_pi_train([1.0, 2.0, 3.0], 4.0), sig),
        integrate_iqfi(make_pi2_train(0.5, 3.0), sig),
        integrate_iqfi(make_ramsey(2.0), FLAT),
        integrate_iqfi(ghz, sig),
        integrate_iqfi(ghz, sig, cfg=exacting),
        integrate_iqfi(TransverseDrive(g=1.0, total_time=0.5),
                       SignalParams(B=0.05, omega=0.0),
                       cfg=QuadratureConfig(tail_start_factor=10.0)),
    ]
    assert [r.method for r in results] == [
        "closed_form", "quadrature", "closed_form", "closed_form",
        "quadrature", "quadrature"]
    for spec in results:
        assert math.isfinite(spec.tail_start) and spec.tail_start > 0.0
        assert math.isfinite(spec.tail_coefficient)
        assert math.isfinite(spec.integral) and spec.integral != 0.0
        assert math.isfinite(
            spec.tail_coefficient / spec.tail_start / spec.integral)


def test_closed_form_spectrum_fields():
    spec = integrate_iqfi(make_pi_train([1.0, 2.0, 3.0], 4.0), FLAT)
    assert spec.method == "closed_form"
    assert spec.omegas.size == spec.values.size == spec.weights.size == 0
    # Omega is where the quadrature's tail would start: 40 x 4 segments / T
    assert spec.tail_start == 40.0
    assert spec.tail_coefficient == spec.integral * spec.tail_start
    _check_engine_contract(spec)


def test_closed_form_runs_no_propagation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("propagation on a closed-form path")

    # iqfi reaches the propagation only through qfi_vs_omega
    for module, name in ((iqfi_lab.evolution, "qfi_vs_omega"),
                         (iqfi_lab.evolution, "discrete_propagators"),
                         (iqfi_lab.iqfi, "qfi_vs_omega")):
        monkeypatch.setattr(module, name, refuse)
    seq = make_pi_train([1.0, 2.0, 3.0], 4.0)
    ghz = GhzProtocol(n=3, times=(0.0, 0.7, 2.0), flips=(True,))
    xy = random_pulse_sequence(np.random.default_rng(1918), 3.0,
                               max_pulses=12, kind="pi_xy")
    assert integrate_iqfi(seq, FLAT).method == "closed_form"
    assert integrate_iqfi(ghz, SignalParams(B=0.8, omega=0.0)).method \
        == "closed_form"
    assert integrate_iqfi(xy, SignalParams(B=1.7, omega=0.0)).method \
        == "closed_form"
    tilted = SignalParams(B=0.0, omega=0.0, phi=0.7)
    assert haar_average_iqfi(seq, tilted).method == "closed_form"
    assert haar_average_iqfi(xy, SignalParams(B=0.5, omega=0.0)).method \
        == "closed_form"
    # the guard is live: a field sends a pi/2 train through the propagation
    with pytest.raises(AssertionError, match="propagation"):
        integrate_iqfi(make_pi2_train(1.0, 4.0), SignalParams(B=0.3, omega=0.0))


@pytest.mark.parametrize("pulse", [dict(time=1.0, axis="x", angle=math.nan),
                                   dict(time=5.0, axis="x", angle=math.pi)])
def test_closed_form_rejects_what_the_quadrature_rejects(pulse):
    # the pulse or the sequence is refused where it is built, so neither
    # the closed forms (the Haar average's at B = 0 included) nor the
    # quadrature can be handed it
    with pytest.raises(ValueError, match="^(pulse angle must be finite, "
                                         "got nan|pulse 0: time 5.0 "
                                         "outside)"):
        PulseSequence((Pulse(**pulse),), 4.0)


def test_ulp_segment_does_not_raise_the_tail_start():
    # 3 * (0.9 / 3) is an ulp short of 0.9, so the train ends in a free
    # segment one ulp long; it must not count as a fourth segment
    sig = SignalParams(B=1.0, omega=0.0)
    seq = make_trotterized_gx(0.9, m=3, g=1.0)
    assert 0.9 - seq.pulses[-1].time < 1e-15
    spec = integrate_iqfi(seq, sig)
    assert spec.tail_start == pytest.approx(40.0 * 3.0 / 0.9, rel=1e-14)
    last = seq.pulses[-1]
    exact = PulseSequence(
        seq.pulses[:-1] + (Pulse(time=0.9, axis=last.axis, angle=last.angle),),
        0.9)
    assert spec.integral == pytest.approx(integrate_iqfi(exact, sig).integral,
                                          rel=1e-13)


@pytest.mark.parametrize("field, bad", [
    ("rel_tol", 0.0), ("rel_tol", -1.0), ("rel_tol", math.nan),
    ("rel_tol", math.inf), ("tail_start_factor", 0.0),
    ("tail_start_factor", math.nan), ("tail_start_factor", math.inf),
    ("max_panels", 0), ("max_panels", -3), ("max_panels", math.nan),
    ("max_panels", math.inf), ("max_panels", 2.5)])
def test_quadrature_config_rejects_bad_fields(field, bad):
    # an infinite panel budget would never stop the halving of the panels
    with pytest.raises(ValueError, match=f"^{field} must be"):
        QuadratureConfig(**{field: bad})


def test_quadrature_config_takes_whole_panel_budgets():
    assert QuadratureConfig(max_panels=1).max_panels == 1
    assert QuadratureConfig(max_panels=64.0).max_panels == 64.0


def test_empty_pieces_do_not_raise_the_feature_scale():
    # 2 pieces of T = 2 give 1/T per piece, 1.0; 20 empty pieces at t = 1
    # used to count too, 11.0, and made Omega and the panels 11 times more
    h = 0.25 * np.array([[0.0, 1.0], [1.0, 0.0]])
    sig = SignalParams(B=0.0, omega=0.0)
    two = PiecewiseGenerator(((0.0, 1.0, h), (1.0, 2.0, -h)), 2.0)
    padded = PiecewiseGenerator(((0.0, 1.0, h),) + ((1.0, 1.0, h),) * 20
                                + ((1.0, 2.0, -h),), 2.0)
    assert feature_scale(two, sig) == 1.0
    assert feature_scale(padded, sig) == 1.0
    assert feature_scale(TransverseDrive(g=0.1, total_time=2.0), sig) == 0.5
