"""State evolution, derivative propagation, and QFI evaluation.

The independent references here are qfi_fd_oracle (central finite
differences of the state over the field), an explicit per-node product of
2x2 segment and pulse matrices for the pulse kernel, and, for the entangled
register, a dense tensor-product evolution built inside the test.
"""

import math

import numpy as np
import pytest

from iqfi_lab.bounds import pi_train_qfi
from iqfi_lab.evolution import (
    SensorState,
    discrete_propagators,
    evolve_continuous,
    evolve_discrete,
    evolve_ghz,
    qfi,
    qfi_fd_oracle,
    qfi_vs_omega,
)
from iqfi_lab.protocol import (
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
from iqfi_lab.signal_core import SignalParams, TimeInterval, theta, theta_vector

PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)


def test_ramsey_zero_field_leaves_plus():
    st = evolve_discrete(make_ramsey(3.0), SignalParams(B=0.0, omega=1.7))
    np.testing.assert_allclose(st.psi, PLUS, atol=1e-15)
    st.validate()


def test_ramsey_dc_phase_and_qfi():
    T, B = 2.0, 0.7
    st = evolve_discrete(make_ramsey(T), SignalParams(B=B, omega=0.0))
    expect = np.array([np.exp(-1j * B * T), np.exp(1j * B * T)]) / math.sqrt(2.0)
    np.testing.assert_allclose(st.psi, expect, atol=1e-14)
    assert qfi(st) == pytest.approx(4.0 * T * T, rel=1e-13)


def test_echo_cancels_dc():
    seq = make_pi_train([2.0], 4.0)
    j = qfi_vs_omega(seq, SignalParams(B=0.5, omega=0.0))
    assert abs(j[0]) < 1e-24


def test_ramsey_qfi_is_kernel_squared():
    sig = SignalParams(B=0.3, omega=1.3, phi=0.9, zeta=1.4)
    T = 2.5
    j = qfi_vs_omega(make_ramsey(T), sig)[0]
    th = theta(TimeInterval(0.0, T), sig)
    assert j == pytest.approx(4.0 * sig.zeta ** 2 * th ** 2, rel=1e-13)


def test_state_invariants_random_protocols():
    rng = np.random.default_rng(21)
    for _ in range(50):
        seq = random_pulse_sequence(rng, float(rng.uniform(0.5, 6.0)),
                                    max_pulses=10)
        sig = SignalParams(B=float(rng.uniform(-2.0, 2.0)),
                           omega=float(rng.uniform(0.0, 10.0)),
                           phi=float(rng.uniform(0.0, 2.0 * math.pi)))
        st = evolve_discrete(seq, sig)
        st.validate()
        # <dpsi|psi> purely imaginary, so J <= 4 <dpsi|dpsi>
        ov = np.vdot(st.dpsi, st.psi)
        assert abs(ov.real) < 1e-10
        j = qfi(st)
        assert j >= 0.0
        assert j <= 4.0 * np.vdot(st.dpsi, st.dpsi).real + 1e-12


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
        th = theta_vector(edges, sig)
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

    P, W = discrete_propagators(seq, sig, B, om)
    close(P, P_ref)
    close(W, W_ref)
    psi0 = seq.initial_vector()
    psi, dpsi = discrete_propagators(seq, sig, B, om, psi0=psi0)
    assert psi.shape == dpsi.shape == (om.size, 2)
    close(psi, P_ref @ psi0)
    close(dpsi, W_ref @ psi0)

    # J from the reference columns, and the single-frequency path
    psi_ref, dpsi_ref = P_ref @ psi0, W_ref @ psi0
    ov = np.einsum("ni,ni->n", dpsi_ref.conj(), psi_ref)
    j_ref = 4.0 * (np.einsum("ni,ni->n", dpsi_ref.conj(), dpsi_ref).real
                   + (ov * ov).real)
    j = qfi_vs_omega(seq, sig, omegas=om)
    np.testing.assert_allclose(j, j_ref, rtol=0.0, atol=1e-13 * j_ref.max())
    st = evolve_discrete(seq, SignalParams(B=B, omega=float(om[3]), phi=phi,
                                           zeta=1.3))
    assert qfi(st) == pytest.approx(j[3], rel=1e-13, abs=1e-13 * j_ref.max())


def test_fd_oracle_ramsey_analytic():
    sig = SignalParams(B=0.4, omega=2.2, phi=0.3)
    T = 3.0
    j = qfi_fd_oracle(make_ramsey(T), sig)
    th = theta(TimeInterval(0.0, T), sig)
    assert j == pytest.approx(4.0 * th * th, rel=1e-8)


def test_fd_oracle_matches_engine_discrete():
    rng = np.random.default_rng(23)
    for _ in range(20):
        T = float(rng.uniform(0.5, 6.0))
        seq = random_pulse_sequence(rng, T, max_pulses=16)
        sig = SignalParams(B=float(rng.uniform(-2.0, 2.0)),
                           omega=float(rng.uniform(0.0, 20.0 / T)),
                           phi=float(rng.uniform(0.0, 2.0 * math.pi)))
        j = float(qfi_vs_omega(seq, sig)[0])
        ref = qfi_fd_oracle(seq, sig, richardson=True)
        assert j == pytest.approx(ref, rel=1e-6, abs=1e-9)


def test_fd_oracle_rejects_too_large_step():
    sig = SignalParams(B=0.0, omega=0.0)
    with pytest.raises(RuntimeError):
        qfi_fd_oracle(make_ramsey(4.0), sig, step=0.3, richardson=True)


def test_continuous_zero_field_is_x_rotation():
    # |+> is an X eigenstate: the drive contributes only the phase e^{-igT}.
    # The field derivative survives at B = 0; in the drive's rotating frame
    # it integrates to a single complex amplitude along |->, so
    # J = 4 |int_0^T zeta cos(w t + phi) exp(-2igt) dt|^2.
    g, T, om = 0.8, 2.0, 1.0
    st = evolve_continuous(TransverseDrive(g=g, total_time=T),
                           SignalParams(B=0.0, omega=om), tol=1e-12)
    np.testing.assert_allclose(st.psi, np.exp(-1j * g * T) * PLUS, atol=1e-9)

    def osc(freq):
        if abs(freq) < 1e-12:
            return complex(T)
        return (np.exp(1j * freq * T) - 1.0) / (1j * freq)

    amp = 0.5 * (osc(om - 2.0 * g) + osc(-om - 2.0 * g))
    assert qfi(st) == pytest.approx(4.0 * abs(amp) ** 2, rel=1e-7)


def test_continuous_matches_fd_oracle():
    rng = np.random.default_rng(24)
    for _ in range(4):
        T = float(rng.uniform(1.0, 3.0))
        drive = TransverseDrive(g=float(rng.uniform(0.3, 2.0)), total_time=T)
        sig = SignalParams(B=float(rng.uniform(-1.0, 1.0)),
                           omega=float(rng.uniform(0.0, 5.0)),
                           phi=float(rng.uniform(0.0, 2.0 * math.pi)))
        j = float(qfi_vs_omega(drive, sig, ode_tol=1e-11)[0])
        ref = qfi_fd_oracle(drive, sig, richardson=True, ode_tol=1e-11)
        assert j == pytest.approx(ref, rel=1e-5, abs=1e-8)


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


def test_ghz_n1_reduces_to_ramsey():
    sig = SignalParams(B=0.6, omega=1.4, phi=0.2)
    _, j_ghz = evolve_ghz(1, (0.0, 3.0), sig)
    j_ramsey = float(qfi_vs_omega(make_ramsey(3.0), sig)[0])
    assert j_ghz == pytest.approx(j_ramsey, rel=1e-13)


def test_ghz_n3_single_segment():
    sig = SignalParams(B=0.0, omega=0.9, phi=0.0)
    T = 2.0
    _, j = evolve_ghz(3, (0.0, T), sig)
    th = theta(TimeInterval(0.0, T), sig)
    assert j == pytest.approx(36.0 * th * th, rel=1e-13)


def _tensor_ghz_qfi(n, times, flips, sig, B):
    """Dense 2^n oracle: evolve the full register and differentiate by hand."""
    dim = 2 ** n
    zsum = np.zeros((dim, dim))
    for q in range(n):
        pattern = np.array([1.0, -1.0])
        op = np.ones(1)
        for r in range(n):
            op = np.kron(op, pattern if r == q else np.ones(2))
        zsum += np.diag(op)
    xall = np.ones((1, 1))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    for _ in range(n):
        xall = np.kron(xall, sx)
    psi0 = np.zeros(dim, dtype=complex)
    psi0[0] = psi0[-1] = 1.0 / math.sqrt(2.0)

    ops = []
    for i in range(len(times) - 1):
        th = theta(TimeInterval(times[i], times[i + 1]), sig)
        ops.append(("seg", th))
        if flips is not None and i < len(flips) and flips[i]:
            ops.append(("flip", None))

    def seg_u(th):
        return np.diag(np.exp(-1j * sig.zeta * B * th * np.diag(zsum)))

    psi = psi0.copy()
    dpsi = np.zeros_like(psi0)
    for kind, th in ops:
        if kind == "seg":
            u = seg_u(th)
            dpsi = u @ dpsi + (-1j * sig.zeta * th) * (zsum @ (u @ psi))
            psi = u @ psi
        else:
            psi = xall @ psi
            dpsi = xall @ dpsi
    ov = np.vdot(dpsi, psi)
    return float(4.0 * (np.vdot(dpsi, dpsi).real + (ov * ov).real))


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
            _, j = evolve_ghz(n, times, sig, flips=flips)
            ref = _tensor_ghz_qfi(n, times, flips, sig, B)
            assert j == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_ghz_protocol_spectrum_path():
    proto = GhzProtocol(n=2, times=(0.0, 1.0, 3.0), flips=(True,))
    sig = SignalParams(B=0.2, omega=0.0)
    om = np.array([0.0, 0.5, 2.0])
    j_grid = qfi_vs_omega(proto, sig, omegas=om)
    for k, w in enumerate(om):
        _, j = evolve_ghz(2, proto.times, SignalParams(B=0.2, omega=float(w)),
                          flips=proto.flips)
        assert j_grid[k] == pytest.approx(j, rel=1e-13, abs=1e-300)


def test_sensor_state_validate_rejects_bad_inputs():
    bad_norm = SensorState(psi=np.array([1.0, 1.0], dtype=complex),
                           dpsi=np.zeros(2, dtype=complex),
                           B=0.0, omega=0.0, total_time=1.0)
    with pytest.raises(ValueError):
        bad_norm.validate()
    bad_overlap = SensorState(psi=np.array([1.0, 0.0], dtype=complex),
                              dpsi=np.array([0.5, 0.0], dtype=complex),
                              B=0.0, omega=0.0, total_time=1.0)
    with pytest.raises(ValueError):
        bad_overlap.validate()
