"""State evolution, derivative propagation, and QFI evaluation.

The independent references here are qfi_fd_oracle (central finite
differences of the state over the field), an explicit per-node product of
2x2 segment and pulse matrices for the pulse kernel, a per-frequency scipy
DOP853 integration of the drive, and, for the entangled register, a dense
tensor-product evolution (tensor_ghz_qfi); the oracles are in
tests/oracles.py.
"""

import inspect
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from iqfi_lab.battery import PAULI_STATES
import iqfi_lab.evolution
from iqfi_lab.evolution import (
    ODE_TOL,
    IntegrationError,
    _continuous_batch,
    _jumps,
    _reduced,
    _states,
    _su2_exp,
    discrete_propagators,
    feature_scale,
    qfi_vs_omega,
)
from iqfi_lab.iqfi import integrate_iqfi, integrate_qfi_band
from iqfi_lab.protocol import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    GhzProtocol,
    PiecewiseGenerator,
    Pulse,
    PulseSequence,
    TransverseDrive,
    _haar_su2,
    make_pi_train,
    make_ramsey,
    make_trotterized_gx,
    random_pulse_sequence,
)
from iqfi_lab.signal_core import SignalParams

from oracles import (frame_r, pi_train_qfi, qfi_fd_oracle, tensor_ghz_qfi,
                     theta)
from test_golden import BYTES

PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


def _state(seq, sig):
    """(psi, dpsi) of a pulse sequence at the signal's own frequency."""
    psi, dpsi = discrete_propagators(seq, sig)
    return psi[0], dpsi[0]


def _check_normalized_path(psi, dpsi, tol=1e-10):
    """|psi| = 1 and Re<dpsi|psi> = 0, as on any normalized path."""
    assert abs(np.linalg.norm(psi) - 1.0) <= tol
    assert abs(np.vdot(dpsi, psi).real) <= tol


def test_ramsey_zero_field_leaves_plus():
    psi, dpsi = _state(make_ramsey(3.0), SignalParams(B=0.0, omega=1.7))
    np.testing.assert_allclose(psi, PLUS, atol=1e-15)
    _check_normalized_path(psi, dpsi)


def test_ramsey_dc_phase_and_qfi():
    T, B = 2.0, 0.7
    sig = SignalParams(B=B, omega=0.0)
    psi, _ = _state(make_ramsey(T), sig)
    expect = np.array([np.exp(-1j * B * T), np.exp(1j * B * T)]) / math.sqrt(2.0)
    np.testing.assert_allclose(psi, expect, atol=1e-14)
    assert qfi_vs_omega(make_ramsey(T), sig)[0] == pytest.approx(
        4.0 * T * T, rel=1e-13)


def test_echo_cancels_dc():
    seq = make_pi_train([2.0], 4.0)
    j = qfi_vs_omega(seq, SignalParams(B=0.5, omega=0.0))
    assert abs(j[0]) < 1e-24


def test_ramsey_qfi_is_kernel_squared():
    sig = SignalParams(B=0.3, omega=1.3, phi=0.9, zeta=1.4)
    T = 2.5
    j = qfi_vs_omega(make_ramsey(T), sig)[0]
    th = theta(0.0, T, sig.omega, sig.phi)
    assert j == pytest.approx(4.0 * sig.zeta ** 2 * th ** 2, rel=1e-13)


def test_state_invariants_random_protocols():
    rng = np.random.default_rng(21)
    for _ in range(50):
        seq = random_pulse_sequence(rng, float(rng.uniform(0.5, 6.0)),
                                    max_pulses=10)
        sig = SignalParams(B=float(rng.uniform(-2.0, 2.0)),
                           omega=float(rng.uniform(0.0, 10.0)),
                           phi=float(rng.uniform(0.0, 2.0 * math.pi)))
        psi, dpsi = _state(seq, sig)
        _check_normalized_path(psi, dpsi)
        # <dpsi|psi> purely imaginary, so J <= 4 <dpsi|dpsi>
        ov = np.vdot(dpsi, psi)
        assert abs(ov.real) < 1e-10
        j = qfi_vs_omega(seq, sig)[0]
        assert j >= 0.0
        assert j <= 4.0 * np.vdot(dpsi, dpsi).real + 1e-12


def test_pi_train_closed_form_spectrum():
    # signed-kernel reduction for alternating trains, arbitrary (alpha, beta)
    rng = np.random.default_rng(22)
    for _ in range(25):
        T = float(rng.uniform(1.0, 8.0))
        n = int(rng.integers(1, 9))
        times = np.sort(rng.uniform(0.0, T, size=n)).tolist()
        alpha = float(rng.uniform(0.0, math.pi))
        beta = float(rng.uniform(0.0, 2.0 * math.pi))
        seq = make_pi_train(times, T, initial_state=(alpha, beta))
        om = np.linspace(0.0, 12.0 / T, 40)
        sig = SignalParams(B=float(rng.uniform(-1.0, 1.0)), omega=0.0)
        got = qfi_vs_omega(seq, sig, omegas=om)
        want = pi_train_qfi(om, [0.0] + times + [T], alpha=alpha)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def _reference_propagators(seq, signal, B, om):
    """Explicit product of exp(-i zeta B Theta_k Z) and pulse matrices per
    node, with dP/dB by the product rule."""
    z = np.diag([1.0, -1.0]).astype(complex)
    edges = seq.boundaries()
    P = np.empty((om.size, 2, 2), dtype=complex)
    W = np.empty_like(P)
    for i, w in enumerate(om):
        sig = SignalParams(B=B, omega=float(w), phi=signal.phi,
                           zeta=signal.zeta)
        th = theta(edges[:-1], edges[1:], sig.omega, sig.phi)
        p = np.eye(2, dtype=complex)
        d = np.zeros((2, 2), dtype=complex)
        for k, th_k in enumerate(th):
            f = np.diag([np.exp(-1j * sig.zeta * B * th_k),
                         np.exp(1j * sig.zeta * B * th_k)])
            df = -1j * sig.zeta * th_k * (z @ f)
            p, d = f @ p, f @ d + df @ p
            if k < len(seq.pulses):
                u = seq.pulses[k].unitary
                p, d = u @ p, u @ d
        P[i], W[i] = p, d
    return P, W


def _edge_sequence(rng):
    """Pulses at t = 0 and t = T and two pulses at one time (a zero-length
    segment between them)."""
    times = (0.0, 0.7, 1.3, 1.3, 2.5)
    return PulseSequence(
        pulses=tuple(Pulse(time=t, matrix=_haar_su2(rng)) for t in times),
        total_time=2.5, initial_state=(1.1, 0.4))


@pytest.mark.parametrize("kind", ["su2", "pi_xy", "edges"])
@pytest.mark.parametrize("B", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("phi", [0.0, 0.75 * math.pi])
def test_kernel_matches_explicit_matrix_product(kind, B, phi):
    rng = np.random.default_rng([31, int(10 * B), int(phi > 0)])
    if kind == "edges":
        seq = _edge_sequence(rng)
    else:
        seq = random_pulse_sequence(rng, 3.0, max_pulses=8, kind=kind)
    sig = SignalParams(B=B, omega=0.0, phi=phi, zeta=1.3)
    om = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 40.0, size=8))))
    P_ref, W_ref = _reference_propagators(seq, sig, B, om)

    def close(got, want):
        err = np.abs(got - want).max()
        assert err <= 1e-13 * np.abs(want).max(), err

    # the columns from |0> and |1> are the whole propagator and its
    # derivative; the sequence's own state is propagated too
    psi0 = seq.initial_vector()
    for start, want, dwant in (
            ((0.0, 0.0), P_ref[:, :, 0], W_ref[:, :, 0]),
            ((math.pi, 0.0), P_ref[:, :, 1], W_ref[:, :, 1]),
            (seq.initial_state, P_ref @ psi0, W_ref @ psi0)):
        psi, dpsi = discrete_propagators(replace(seq, initial_state=start),
                                         sig, omegas=om)
        assert psi.shape == dpsi.shape == (om.size, 2)
        close(psi, want)
        close(dpsi, dwant)

    # J from the reference columns, and the single-frequency path
    psi_ref, dpsi_ref = P_ref @ psi0, W_ref @ psi0
    ov = np.einsum("ni,ni->n", dpsi_ref.conj(), psi_ref)
    j_ref = 4.0 * (np.einsum("ni,ni->n", dpsi_ref.conj(), dpsi_ref).real
                   + (ov * ov).real)
    j = qfi_vs_omega(seq, sig, omegas=om)
    np.testing.assert_allclose(j, j_ref, rtol=0.0, atol=1e-13 * j_ref.max())
    j_one = qfi_vs_omega(seq, SignalParams(B=B, omega=float(om[3]), phi=phi,
                                           zeta=1.3))[0]
    assert j_one == pytest.approx(j[3], rel=1e-13, abs=1e-13 * j_ref.max())


def test_fd_oracle_ramsey_analytic():
    sig = SignalParams(B=0.4, omega=2.2, phi=0.3)
    T = 3.0
    j = qfi_fd_oracle(make_ramsey(T), sig)
    th = theta(0.0, T, sig.omega, sig.phi)
    assert j == pytest.approx(4.0 * th * th, rel=1e-8)


def test_fd_oracle_matches_engine_discrete():
    rng = np.random.default_rng(23)
    for _ in range(20):
        T = float(rng.uniform(0.5, 6.0))
        seq = random_pulse_sequence(rng, T, max_pulses=16)
        sig = SignalParams(B=float(rng.uniform(-2.0, 2.0)),
                           omega=float(rng.uniform(0.0, 20.0 / T)),
                           phi=float(rng.uniform(0.0, 2.0 * math.pi)))
        assert qfi_vs_omega(seq, sig) == pytest.approx(
            qfi_fd_oracle(seq, sig), rel=1e-6, abs=1e-9)


def test_fd_oracle_of_a_haar_sequence():
    # with no initial state the oracle differences the propagator: it meets
    # the Haar-averaged J and the mean of its own six Pauli-state values
    rng = np.random.default_rng(29)
    for _ in range(6):
        T = float(rng.uniform(0.5, 5.0))
        seq = replace(random_pulse_sequence(rng, T, max_pulses=8, kind="su2"),
                      initial_state=None)
        sig = SignalParams(B=float(rng.uniform(-2.0, 2.0)),
                           omega=float(rng.uniform(0.0, 20.0 / T)),
                           phi=float(rng.uniform(0.0, 2.0 * math.pi)))
        ref = qfi_fd_oracle(seq, sig)
        assert qfi_vs_omega(seq, sig) == pytest.approx(ref, rel=1e-6,
                                                       abs=1e-9)
        six = np.mean([qfi_fd_oracle(replace(seq, initial_state=state), sig)
                       for state in PAULI_STATES], axis=0)
        assert ref == pytest.approx(six, rel=1e-6, abs=1e-9)


def test_fd_oracle_rejects_too_large_step():
    sig = SignalParams(B=0.0, omega=0.0)
    with pytest.raises(RuntimeError):
        qfi_fd_oracle(make_ramsey(4.0), sig, step=0.3)


def test_fd_oracle_checks_its_step_at_every_frequency():
    # Theta falls as 1/omega, so h = 0.3 is too large at omega = 0 alone
    sig, ramsey = SignalParams(B=0.0, omega=0.0), make_ramsey(4.0)
    with pytest.raises(RuntimeError, match="at omega = 0.0$"):
        qfi_fd_oracle(ramsey, sig, omegas=[50.0, 0.0, 60.0], step=0.3)
    j = qfi_fd_oracle(ramsey, sig, omegas=[50.0, 60.0], step=0.3)
    assert j.shape == (2,)
    assert j == pytest.approx(qfi_vs_omega(ramsey, sig, omegas=[50.0, 60.0]),
                              rel=1e-4)
    # without omegas, J at the signal's own omega, as from qfi_vs_omega
    assert qfi_fd_oracle(ramsey, sig).shape == (1,)


@pytest.mark.parametrize("step", [0.0, -1e-6, math.nan, math.inf])
def test_fd_oracle_rejects_a_step_not_positive_and_finite(step):
    # a zero step divided 0 by 0 and returned nan
    with pytest.raises(ValueError, match="step must be positive and finite"):
        qfi_fd_oracle(make_ramsey(4.0), SignalParams(B=0.5, omega=1.0),
                      step=step)


def test_fd_oracle_checks_what_qfi_vs_omega_checks():
    # omega*T beyond the floats returned nan from the oracle
    sig = SignalParams(B=1.0, omega=1e300)
    for fn in (qfi_vs_omega, qfi_fd_oracle):
        with pytest.raises(ValueError, match="omega\\*T must be finite"):
            fn(make_ramsey(1e10), sig)


def test_continuous_zero_field_is_x_rotation():
    # |+> is an X eigenstate: the drive contributes only the phase e^{-igT}.
    # The field derivative survives at B = 0; in the drive's rotating frame
    # it integrates to a single complex amplitude along |->, so
    # J = 4 |int_0^T zeta cos(w t + phi) exp(-2igt) dt|^2.
    g, T, om = 0.8, 2.0, 1.0
    drive, sig = TransverseDrive(g=g, total_time=T), SignalParams(B=0.0, omega=om)
    _, (psi, _) = _states(drive, sig, [om], 1e-12)
    np.testing.assert_allclose(psi[0], np.exp(-1j * g * T) * PLUS, atol=1e-9)

    def osc(freq):
        if abs(freq) < 1e-12:
            return complex(T)
        return (np.exp(1j * freq * T) - 1.0) / (1j * freq)

    amp = 0.5 * (osc(om - 2.0 * g) + osc(-om - 2.0 * g))
    assert qfi_vs_omega(drive, sig, ode_tol=1e-12)[0] == pytest.approx(
        4.0 * abs(amp) ** 2, rel=1e-7)


def _drive_zero_field_j(omegas, g, T, phi, zeta=1.0):
    """Closed-form B = 0 spectrum of g X from |+>:
    J = 4 zeta^2 |(e^{i phi} E(w + 2g) + e^{-i phi} E(2g - w)) / 2|^2 with
    E(k) = int_0^T e^{ikt} dt, E(0) = T."""
    def E(k):
        k_or_1 = np.where(k == 0.0, 1.0, k)
        return np.where(k == 0.0, T, (np.exp(1j * k * T) - 1.0) / (1j * k_or_1))

    om = np.asarray(omegas, dtype=float)
    amp = 0.5 * (np.exp(1j * phi) * E(om + 2.0 * g)
                 + np.exp(-1j * phi) * E(2.0 * g - om))
    return 4.0 * zeta ** 2 * np.abs(amp) ** 2


# T = 0.5 and g = pi/2 at ode_tol 1e-9: the splitting's first levels have
# m = 45, 90 and 180 steps, and a step of the finest spans one signal period
# at 2 pi (4m)/T = 2262; those levels alias every frequency above pi m/T =
# 283, so such frequencies take finer levels
_RESONANT_DRIVE = TransverseDrive(g=0.5 * math.pi, total_time=0.5)
_OFF_RESONANCE = np.concatenate([np.linspace(0.0, 2000.0, 401),
                                 np.linspace(2500.0, 3000.0, 101)])


@pytest.mark.parametrize("phi, omegas", [
    (0.0, _OFF_RESONANCE), (0.9, _OFF_RESONANCE),
    (0.0, [2150.0, 2200.0, 2300.0, 4400.0, 4600.0, 9000.0]),
    (0.9, [2262.0, 4524.0])],
    ids=["off-phi0", "off-phi0.9", "at-phi0", "at-phi0.9"])
def test_drive_zero_field_spectrum_across_step_resonance(phi, omegas):
    j = qfi_vs_omega(_RESONANT_DRIVE, SignalParams(B=0.0, omega=0.0, phi=phi),
                     omegas=omegas, ode_tol=1e-9)
    np.testing.assert_allclose(
        j, _drive_zero_field_j(omegas, 0.5 * math.pi, 0.5, phi),
        rtol=1e-6, atol=1e-12)


def test_drive_zero_field_spectrum_on_a_dense_grid():
    # frequencies up to 18 times the first levels' Nyquist limit of 220, on
    # a grid that passes through step resonances of every level
    drive = TransverseDrive(g=0.5 * math.pi, total_time=1.3)
    omegas = np.linspace(0.0, 4000.0, 1001)
    j = qfi_vs_omega(drive, SignalParams(B=0.0, omega=0.0, phi=0.9),
                     omegas=omegas, ode_tol=1e-9)
    np.testing.assert_allclose(
        j, _drive_zero_field_j(omegas, 0.5 * math.pi, 1.3, 0.9),
        rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("B, om", [(1.0, 2400.0), (0.3, 2000.0),
                                   (1.0, 2150.0), (1.0, 2262.0),
                                   (1.0, 4524.0), (0.3, 2262.0)])
def test_drive_spectrum_in_a_field_across_step_resonance(B, om):
    # J of _RESONANT_DRIVE meets the DOP853 reference of
    # test_continuous_matches_dop853, at step resonances as off them
    sig = SignalParams(B=B, omega=0.0)
    j = qfi_vs_omega(_RESONANT_DRIVE, sig, omegas=[om], ode_tol=1e-9)
    ref = _dop853_j([(0.0, 0.5, _RESONANT_DRIVE.g * SIGMA_X)], sig, [om])
    np.testing.assert_allclose(j, ref, rtol=1e-6, atol=1e-12)


def test_a_frequency_beyond_the_step_cap_fails_fast():
    # resolving omega = 1.1e5 at T = 8 would take more than 2^20 steps:
    # refused, by name, before any level runs
    start = time.perf_counter()
    with pytest.raises(IntegrationError,
                       match="omega = 110000 is out of reach"):
        qfi_vs_omega(TransverseDrive(g=0.5 * math.pi, total_time=8.0),
                     SignalParams(B=1.0, omega=0.0), omegas=[3.0, 1.1e5])
    assert time.perf_counter() - start < 1.0


def test_continuous_matches_fd_oracle():
    rng = np.random.default_rng(24)
    for _ in range(4):
        T = float(rng.uniform(1.0, 3.0))
        drive = TransverseDrive(g=float(rng.uniform(0.3, 2.0)), total_time=T)
        sig = SignalParams(B=float(rng.uniform(-1.0, 1.0)),
                           omega=float(rng.uniform(0.0, 5.0)),
                           phi=float(rng.uniform(0.0, 2.0 * math.pi)))
        assert qfi_vs_omega(drive, sig, ode_tol=1e-11) == pytest.approx(
            qfi_fd_oracle(drive, sig, ode_tol=1e-11), rel=1e-5, abs=1e-8)


def test_piecewise_matches_trotter_limit():
    # piecewise-constant X generator == the same drive, and the m = 1024
    # splitting lands within 1e-4 of both
    g, T = 1.1, 2.0
    h = g * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ctrl = PiecewiseGenerator(pieces=((0.0, T, h),), total_time=T)
    sig = SignalParams(B=0.8, omega=1.9)
    j_piece = float(qfi_vs_omega(ctrl, sig, ode_tol=1e-11)[0])
    j_drive = float(qfi_vs_omega(TransverseDrive(g=g, total_time=T), sig,
                                 ode_tol=1e-11)[0])
    assert j_piece == pytest.approx(j_drive, rel=1e-8, abs=1e-10)
    j_trott = float(qfi_vs_omega(make_trotterized_gx(T, m=1024, g=g), sig)[0])
    assert j_trott == pytest.approx(j_drive, rel=1e-4, abs=1e-6)


def _dop853_state(pieces, sig, om):
    """(psi, dpsi/dB) at T from |+> under H = zeta B cos(omega t + phi) Z + H_k
    on piece k, by scipy's DOP853 restarted at each piece."""
    from scipy.integrate import solve_ivp

    y = np.concatenate([PLUS, [0.0, 0.0]]).astype(complex)
    for start, end, h in pieces:
        def rhs(t, y, h=np.asarray(h)):
            dh = sig.zeta * math.cos(om * t + sig.phi) * SIGMA_Z
            H = h + sig.B * dh
            return np.concatenate([-1j * (H @ y[:2]),
                                   -1j * (H @ y[2:] + dh @ y[:2])])

        y = solve_ivp(rhs, (start, end), y, method="DOP853", rtol=1e-12,
                      atol=1e-14).y[:, -1]
    return y[:2], y[2:]


def _dop853_j(pieces, sig, omegas):
    out = []
    for om in omegas:
        psi, dpsi = _dop853_state(pieces, sig, float(om))
        ov = np.vdot(psi, dpsi)
        out.append(4.0 * (np.vdot(dpsi, dpsi).real - abs(ov) ** 2))
    return np.array(out)


def _two_pieces(c0, c1):
    """A two-piece control, its generators shifted by c0*I and c1*I."""
    return PiecewiseGenerator(pieces=(
        (0.0, 1.2, 0.9 * SIGMA_X + 0.4 * SIGMA_Y + 0.3 * SIGMA_Z
         + c0 * np.eye(2)),
        (1.2, 3.0, -0.5 * SIGMA_X + 1.1 * SIGMA_Y - 0.7 * SIGMA_Z
         + c1 * np.eye(2))), total_time=3.0)


TWO_PIECES = _two_pieces(0.0, 0.2)


@pytest.mark.parametrize("control, sig", [
    (TransverseDrive(g=0.5 * math.pi, total_time=2.0),
     SignalParams(B=1.0, omega=0.0)),
    (TransverseDrive(g=0.7, total_time=4.0),
     SignalParams(B=0.3, omega=0.0, phi=2.1)),
    (TransverseDrive(g=2.0, total_time=1.5),
     SignalParams(B=-0.8, omega=0.0, phi=5.0, zeta=1.3)),
    (TransverseDrive(g=0.5 * math.pi, total_time=8.0),
     SignalParams(B=0.01, omega=0.0)),
    (TWO_PIECES, SignalParams(B=0.6, omega=0.0, phi=1.0)),
], ids=["g1.57_T2_B1", "g0.7_T4_phi", "g2_T1.5_Bneg", "g1.57_T8_weak",
        "two_pieces"])
def test_continuous_matches_dop853(control, sig):
    omegas = np.array([0.0, 0.5, 1.9, 3.14, 7.3, 19.0, 40.0])
    pieces = ([(0.0, control.total_time, control.g * SIGMA_X)]
              if isinstance(control, TransverseDrive) else control.pieces)
    ref = _dop853_j(pieces, sig, omegas)
    j = qfi_vs_omega(control, sig, omegas=omegas)
    np.testing.assert_allclose(j, ref, rtol=0.0,
                               atol=1e-9 * np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [7, 300], ids=["tree", "loop"])
def test_generator_trace_is_a_global_phase(n):
    # h + c*I only multiplies the states by exp(-i c t), which no J sees:
    # the splitting drops the trace where it reads a generator, so J is the
    # same to the bit, and so are the step counts and the feature scale,
    # which count precession rates only
    sig = SignalParams(B=0.6, omega=0.0, phi=1.0)
    omegas = np.linspace(0.0, 40.0, n)
    plain, traced = _two_pieces(0.0, 0.0), _two_pieces(-0.3, 0.7)
    assert np.array_equal(qfi_vs_omega(traced, sig, omegas=omegas),
                          qfi_vs_omega(plain, sig, omegas=omegas))
    assert feature_scale(traced, sig) == feature_scale(plain, sig)
    for _, _, h in traced.pieces:
        assert np.linalg.det(_su2_exp(h, 0.37)) == pytest.approx(1.0,
                                                                abs=1e-15)


@pytest.mark.parametrize("om", [200.0, 300.0])
def test_refinement_meets_ode_tol_at_high_frequency(om):
    # here the first three levels miss tol = 1e-10 by up to 60x; the levels
    # added for these frequencies bring the state within it
    g, T = 0.5 * math.pi, 2.0
    sig = SignalParams(B=1.0, omega=om)
    _, (got, dgot) = _states(TransverseDrive(g=g, total_time=T), sig, [om],
                             1e-10)
    psi, dpsi = _dop853_state([(0.0, T, g * SIGMA_X)], sig, om)
    assert np.max(np.abs(got[0] - psi)) <= 1e-10
    assert np.max(np.abs(dgot[0] - dpsi)) <= 1e-10


@pytest.mark.parametrize("control", [
    TransverseDrive(g=0.5 * math.pi, total_time=4.0), TWO_PIECES])
def test_continuous_batch_independence(control):
    # every frequency is refined on its own, so its J does not depend on
    # which frequencies share the call
    sig = SignalParams(B=0.7, omega=0.0, phi=0.3)
    omegas = np.linspace(0.0, 60.0, 9)
    batched = qfi_vs_omega(control, sig, omegas=omegas)
    single = np.array([qfi_vs_omega(control, sig, omegas=[om])[0]
                       for om in omegas])
    np.testing.assert_allclose(batched, single, rtol=1e-10,
                               atol=1e-10 * np.max(np.abs(single)))


def _levels(monkeypatch, control, sig, omegas, tree):
    """Every level _continuous_batch propagates, as (a, b, da, db) rows,
    with the block composition forced on (tree) or off."""
    ev = iqfi_lab.evolution
    monkeypatch.setattr(ev, "_TREE_NODES", omegas.size if tree else 0)
    levels = []
    propagate = ev._propagate

    def recorded(*args):
        out = propagate(*args)
        levels.append(np.stack(out))
        return out

    monkeypatch.setattr(ev, "_propagate", recorded)
    _continuous_batch(control, sig, omegas, ODE_TOL)
    monkeypatch.undo()
    return levels


@pytest.mark.parametrize("width", [1, 3, "below", "above"])
@pytest.mark.parametrize("B, phi", [(0.0, 0.0), (0.0, 0.3), (0.7, 0.0),
                                    (0.7, 0.3)])
@pytest.mark.parametrize("control", [
    TransverseDrive(g=0.5 * math.pi, total_time=4.0), TWO_PIECES],
    ids=["drive", "two_pieces"])
def test_block_composition_matches_step_loop(monkeypatch, control, B, phi,
                                             width):
    # the product tree reorders the splitting's products and nothing else,
    # so every level agrees with the per-step loop to rounding, at widths
    # on both sides of the crossover; and its norm drifts no further than
    # the loop's
    crossover = iqfi_lab.evolution._TREE_NODES
    n = {"below": crossover, "above": crossover + 1}.get(width, width)
    omegas = np.linspace(0.0, 40.0, n)
    sig = SignalParams(B=B, omega=0.0, phi=phi)
    tree = _levels(monkeypatch, control, sig, omegas, tree=True)
    loop = _levels(monkeypatch, control, sig, omegas, tree=False)
    assert len(tree) == len(loop) >= 3
    for t, s in zip(tree, loop):
        assert t.shape == s.shape
        np.testing.assert_allclose(t, s, rtol=0.0, atol=1e-12)

    def drift(levels):
        return max(float(np.abs(np.hypot(np.abs(y[0]), np.abs(y[1])) - 1.0)
                         .max()) for y in levels)

    assert drift(tree) <= drift(loop)


def test_narrow_batch_composes_blocks_and_wide_batch_steps(monkeypatch):
    # a 3-node spectrum composes each level in ceil((n - 1)/L) blocks (a
    # piece's last step has no full step after it and goes on its own),
    # not one pass per step; a level wider than the crossover never
    # reaches the tree
    ev = iqfi_lab.evolution
    blocks, levels, streams = [], [], []
    compose, split, stream = ev._compose, ev._split_steps, ev._segment_thetas

    def counted_compose(th, *args):
        blocks.append(th.shape)
        return compose(th, *args)

    def counted_split(pieces, counts, om, phi):
        levels.append((om.size, int(counts.sum())))
        return split(pieces, counts, om, phi)

    def counted_stream(edges, om, *args):
        streams.append(om.size)
        return stream(edges, om, *args)

    monkeypatch.setattr(ev, "_compose", counted_compose)
    monkeypatch.setattr(ev, "_split_steps", counted_split)
    monkeypatch.setattr(ev, "_segment_thetas", counted_stream)
    drive = TransverseDrive(g=0.5 * math.pi, total_time=4.0)
    sig = SignalParams(B=1.0, omega=0.0)
    qfi_vs_omega(drive, sig, omegas=[1.0, 2.0 * math.pi, 7.0])
    width = ev._BLOCK_NODE_STEPS // 3
    assert len(levels) >= 3
    assert len(blocks) == sum(math.ceil((n - 1) / width) for _, n in levels)
    assert sum(rows for rows, _ in blocks) == sum(n - 1 for _, n in levels)
    assert streams == []
    blocks.clear()
    levels.clear()
    qfi_vs_omega(drive, sig,
                 omegas=np.linspace(0.0, 10.0, ev._TREE_NODES + 1))
    wide = [size for size, _ in levels if size > ev._TREE_NODES]
    assert len(wide) >= 3 and streams == wide
    assert all(size <= ev._TREE_NODES for _, size in blocks)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_ode_tol_must_be_positive_and_finite(tol):
    drive = TransverseDrive(g=1.0, total_time=1.0)
    sig = SignalParams(B=0.5, omega=1.0)
    with pytest.raises(ValueError, match="ode_tol"):
        qfi_vs_omega(drive, sig, ode_tol=tol)
    with pytest.raises(ValueError, match="ode_tol"):
        qfi_fd_oracle(drive, sig, ode_tol=tol)


@pytest.mark.parametrize("omegas", [[1.0, math.nan, -1.0], [math.inf],
                                    [-1e-3, 2.0], np.ones((2, 3))])
@pytest.mark.parametrize("protocol", [
    make_ramsey(2.0), GhzProtocol(n=2, times=(0.0, 2.0)),
    TransverseDrive(g=1.0, total_time=2.0)], ids=["pulse", "ghz", "drive"])
def test_qfi_vs_omega_rejects_bad_frequencies(protocol, omegas):
    # checked before any work: the drive would otherwise refine a NaN
    # frequency until its step budget runs out and blame ode_tol, and
    # index a 2-D grid out of its bounds
    match = (r"omegas must be a number or a 1-D grid, got shape \(2, 3\)"
             if np.ndim(omegas) > 1 else "omegas must be finite and >= 0")
    with pytest.raises(ValueError, match=match):
        qfi_vs_omega(protocol, SignalParams(B=1.0, omega=0.0), omegas=omegas)


@pytest.mark.parametrize("fn", [
    qfi_vs_omega, qfi_fd_oracle, feature_scale, integrate_iqfi,
    lambda protocol, sig: integrate_qfi_band(protocol, sig, 0.0, 1.0)],
    ids=["qfi_vs_omega", "qfi_fd_oracle", "feature_scale", "integrate_iqfi",
         "integrate_qfi_band"])
def test_an_unknown_protocol_type_is_a_type_error(fn):
    # all but integrate_iqfi raised AttributeError: ... 'total_time'
    for protocol in ("ramsey", object()):
        with pytest.raises(TypeError, match="^unsupported protocol type "
                                            f"{type(protocol).__name__}$"):
            fn(protocol, SignalParams(B=0.5, omega=1.0))


def test_a_two_dimensional_grid_is_refused_on_every_path():
    # a Haar sequence, the oracle and the kernel raised a numpy broadcast
    # error instead
    sig = SignalParams(B=1.0, omega=0.0)
    haar = make_pi_train([0.5, 1.5], 2.0, initial_state=None)
    match = r"omegas must be a number or a 1-D grid, got shape \(2, 3\)"
    for fn, protocol in ((qfi_vs_omega, haar), (qfi_fd_oracle, haar),
                         (qfi_fd_oracle, make_ramsey(2.0)),
                         (discrete_propagators, haar)):
        with pytest.raises(ValueError, match=match):
            fn(protocol, sig, omegas=np.ones((2, 3)))


@pytest.mark.parametrize("fn", [qfi_vs_omega, qfi_fd_oracle])
@pytest.mark.parametrize("protocol", [
    make_ramsey(2.0), make_pi_train([0.5, 1.5], 2.0, initial_state=None),
    GhzProtocol(n=2, times=(0.0, 1.0, 2.0)),
    TransverseDrive(g=1.0, total_time=2.0), TWO_PIECES],
    ids=["ramsey", "haar", "ghz", "drive", "piecewise"])
def test_empty_grid_gives_an_empty_spectrum(protocol, fn):
    j = fn(protocol, SignalParams(B=0.5, omega=0.0), omegas=[])
    assert j.shape == (0,) and j.dtype == float


def test_drive_norm_drift_raises(monkeypatch):
    # states off the unit sphere by more than 10*ode_tol mean the error
    # control failed; J must not be formed from them
    batch = iqfi_lab.evolution._continuous_batch
    monkeypatch.setattr(iqfi_lab.evolution, "_continuous_batch",
                        lambda *a, **kw: batch(*a, **kw) * (1.0 + 1e-6))
    with pytest.raises(IntegrationError, match="norm drift"):
        qfi_vs_omega(TransverseDrive(g=1.0, total_time=2.0),
                     SignalParams(B=0.5, omega=0.0), omegas=[0.5, 3.0],
                     ode_tol=1e-9)


def test_unreachable_ode_tol_fails_fast():
    start = time.perf_counter()
    with pytest.raises(IntegrationError):
        qfi_vs_omega(TransverseDrive(g=0.5 * math.pi, total_time=2.0),
                     SignalParams(B=1.0, omega=0.0),
                     omegas=[0.5, 3.0, 40.0], ode_tol=1e-16)
    assert time.perf_counter() - start < 5.0


def test_unreachable_ode_tol_fails_fast_across_a_k_grid():
    # frequencies up to 80 times the drive rate, as a K integral's panels
    # reach: the levels the Nyquist rule allows them must not lift the cap
    # per rate for a tolerance out of reach
    start = time.perf_counter()
    with pytest.raises(IntegrationError, match="ode_tol=1e-16"):
        qfi_vs_omega(TransverseDrive(g=0.5 * math.pi, total_time=4.0),
                     SignalParams(B=1.0, omega=0.0),
                     omegas=np.linspace(0.0, 126.0, 64), ode_tol=1e-16)
    assert time.perf_counter() - start < 1.0


def test_piecewise_control_is_validated():
    # refused where it is built, so no evolution ever sees it
    nan_gen = np.array([[0.0, math.nan], [math.nan, 0.0]])
    with pytest.raises(ValueError,
                       match="piece 0: generator entries must be finite"):
        PiecewiseGenerator(pieces=((0.0, 1.0, nan_gen),), total_time=1.0)


def test_ghz_n1_reduces_to_ramsey():
    sig = SignalParams(B=0.6, omega=1.4, phi=0.2)
    j_ghz = qfi_vs_omega(GhzProtocol(n=1, times=(0.0, 3.0)), sig)[0]
    j_ramsey = float(qfi_vs_omega(make_ramsey(3.0), sig)[0])
    assert j_ghz == pytest.approx(j_ramsey, rel=1e-13)


def test_ghz_n3_single_segment():
    sig = SignalParams(B=0.0, omega=0.9, phi=0.0)
    T = 2.0
    j = qfi_vs_omega(GhzProtocol(n=3, times=(0.0, T)), sig)[0]
    th = theta(0.0, T, sig.omega, sig.phi)
    assert j == pytest.approx(36.0 * th * th, rel=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_ghz_matches_tensor_oracle(n):
    rng = np.random.default_rng(25)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 4.0, m))])
        flips = tuple(bool(rng.integers(2)) for _ in range(m - 1)) if m > 1 \
            else None
        B = float(rng.uniform(-1.0, 1.0))
        for om in (0.0, 0.7, 3.1):
            sig = SignalParams(B=B, omega=om,
                               phi=float(rng.uniform(0.0, 2.0 * math.pi)))
            j = qfi_vs_omega(GhzProtocol(n=n, times=tuple(times), flips=flips),
                             sig)[0]
            ref = tensor_ghz_qfi(n, times, flips, sig)
            assert j == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_fd_oracle_matches_engine_on_registers():
    # a register is differenced as the pulse sequence it reduces to
    rng = np.random.default_rng(26)
    for n in (2, 3):
        times = (0.0, *np.sort(rng.uniform(0.0, 3.0, 2)), 3.0)
        for flips in (None, (True, False)):
            sig = SignalParams(B=float(rng.uniform(-1.0, 1.0)),
                               omega=float(rng.uniform(0.0, 4.0)),
                               phi=float(rng.uniform(0.0, 6.2)))
            ghz = GhzProtocol(n=n, times=times, flips=flips)
            assert qfi_vs_omega(ghz, sig) == pytest.approx(
                qfi_fd_oracle(ghz, sig), rel=1e-6, abs=1e-9)


def test_ghz_protocol_spectrum_path():
    proto = GhzProtocol(n=2, times=(0.0, 1.0, 3.0), flips=(True,))
    sig = SignalParams(B=0.2, omega=0.0)
    om = np.array([0.0, 0.5, 2.0])
    j_grid = qfi_vs_omega(proto, sig, omegas=om)
    for k, w in enumerate(om):
        j = qfi_vs_omega(proto, SignalParams(B=0.2, omega=float(w)))[0]
        assert j_grid[k] == pytest.approx(j, rel=1e-13, abs=1e-300)



@pytest.mark.parametrize("phi", [0.0, 0.7])
@pytest.mark.parametrize("B", [0.3, 1.7])
def test_haar_spectrum_is_the_six_state_mean(B, phi):
    # J has degree 2 in psi0 and in psi0*, and the six Pauli eigenstates
    # are a 2-design: their mean is the Haar average at every omega
    rng = np.random.default_rng(1923)
    sig = SignalParams(B=B, omega=0.0, phi=phi)
    om = np.linspace(0.0, 40.0, 81)
    seqs = [random_pulse_sequence(rng, float(rng.uniform(1.0, 4.0)),
                                  max_pulses=6) for _ in range(3)]
    # the average rests on the pulses' phases cancelling: the last train
    # again with a global phase on each pulse (det != 1) and an X flip
    # (det -1) at T/2
    T = seqs[-1].total_time
    pulses = [Pulse(time=p.time, matrix=np.exp(0.7j * (k + 1)) * p.unitary)
              for k, p in enumerate(seqs[-1].pulses)]
    pulses.append(Pulse(time=0.5 * T, matrix=SIGMA_X))
    seqs.append(PulseSequence(sorted(pulses, key=lambda p: p.time), T))
    for seq in seqs:
        six = [qfi_vs_omega(PulseSequence(seq.pulses, seq.total_time, st),
                            sig, omegas=om) for st in PAULI_STATES]
        mean = np.array([math.fsum(col) for col in zip(*six)]) / 6.0
        avg = qfi_vs_omega(replace(seq, initial_state=None), sig, omegas=om)
        np.testing.assert_allclose(avg, mean, rtol=1e-12, atol=0.0)


def test_one_ode_tol_default():
    # the finite-difference oracle divides the state error by its step,
    # so it alone asks for more
    for fn in (qfi_vs_omega, integrate_iqfi, integrate_qfi_band):
        assert inspect.signature(fn).parameters["ode_tol"].default is ODE_TOL
    assert inspect.signature(qfi_fd_oracle).parameters["ode_tol"].default \
        == 1e-11 < ODE_TOL
    tol = inspect.signature(_continuous_batch).parameters["tol"]
    assert tol.default is inspect.Parameter.empty


def _frame_cases():
    """Seeded SU(2) and pi-xy trains, a trotterized drive and a GHZ
    register with flips, by name."""
    rng = np.random.default_rng(2024)
    sig = SignalParams(B=0.4, omega=0.0)
    flips = tuple(bool(f) for f in rng.integers(2, size=6))
    cases = {f"{kind}-{k}": random_pulse_sequence(rng, 4.0, 40, kind=kind)
             for kind in ("su2", "pi_xy") for k in range(4)}
    cases["trotter-gx"] = make_trotterized_gx(3.0, m=37, g=0.83)
    cases["ghz"] = _reduced(GhzProtocol(n=3, times=np.linspace(0.0, 3.5, 8),
                                        flips=flips), sig)[0]
    return cases


FRAME_CASES = _frame_cases()


@pytest.mark.parametrize("name", FRAME_CASES)
def test_the_frame_matches_the_per_pulse_reference(name):
    """_jumps takes r from the pulse stack in one pass: within 4 ulps of |r|
    of the pulse-by-pulse reference, and bit for bit where the goldens are
    compared as bytes (the same matmul kernel forms both)."""
    seq = FRAME_CASES[name]
    r = _jumps(seq)[2]
    want = frame_r(seq)
    assert r.shape == want.shape == (len(seq.pulses) + 1, 3)
    ulps = 4.0 * np.finfo(float).eps * np.linalg.norm(want, axis=1)
    assert (np.abs(r - want).max(axis=1) <= ulps).all()
    if BYTES:
        np.testing.assert_array_equal(r, want)
