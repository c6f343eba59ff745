"""State evolution and quantum Fisher information.

For discrete protocols the free evolution between pulses is the exact 2x2
unitary exp(-i*zeta*B*Theta_k*Z) per segment, so a state column psi and its
field derivative dpsi = dpsi/dB are carried through the protocol in one
forward pass, vectorized over a frequency grid:

    psi <- F_k psi,    dpsi <- F_k dpsi + (-i*zeta*Theta_k) Z (F_k psi)

with each pulse unitary applied to both.  The two components of psi and of
dpsi are held as separate contiguous arrays: a free segment is an
elementwise phase, and a pulse is 2x2 arithmetic with four scalars written
out by hand.  Propagating the two basis columns instead of one state gives
the full propagator P and W = dP/dB.  No time stepping is involved.  The
pure-state Fisher information is

    J = 4 * (<dpsi|dpsi> + Re <dpsi|psi>^2)

which for normalized states (where <dpsi|psi> is purely imaginary) equals
the usual 4*(<dpsi|dpsi> - |<psi|dpsi>|^2).

Continuous drives are integrated with a classic fourth-order Runge-Kutta
scheme with step-doubling error control on the augmented system
(psi, dpsi), batched over frequencies with a shared adaptive step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .protocol import (
    GhzProtocol,
    PiecewiseGenerator,
    PulseSequence,
    SIGMA_X,
    TransverseDrive,
    validate,
)
from .signal_core import SignalParams, _theta_raw

__all__ = [
    "SensorState",
    "GhzState",
    "IntegrationError",
    "evolve_discrete",
    "evolve_continuous",
    "evolve_ghz",
    "qfi",
    "qfi_vs_omega",
    "qfi_fd_oracle",
    "discrete_propagators",
]


class IntegrationError(RuntimeError):
    """Continuous evolution failed to meet its error target."""


@dataclass(frozen=True, eq=False)
class SensorState:
    """Evolved state and its field derivative at fixed (B, omega)."""

    psi: np.ndarray
    dpsi: np.ndarray
    B: float
    omega: float
    total_time: float

    def validate(self, tol: float = 1e-10) -> None:
        norm = np.linalg.norm(self.psi)
        if abs(norm - 1.0) > tol:
            raise ValueError(f"psi norm {norm} deviates from 1 by > {tol}")
        overlap = np.vdot(self.dpsi, self.psi)
        if abs(overlap.real) > tol:
            raise ValueError(
                f"Re<dpsi|psi> = {overlap.real} exceeds {tol}; "
                "derivative is inconsistent with a normalized path"
            )


@dataclass(frozen=True)
class GhzState:
    """n-qubit GHZ register after free evolution, in the 2-dim reduced basis
    {|0...0>, |1...1>}.  accumulated_phase is the signed kernel sum, so the
    reduced amplitudes are exp(-+ i*n*zeta*B*accumulated_phase)/sqrt(2)."""

    n: int
    accumulated_phase: float
    B: float
    omega: float
    zeta: float

    def reduced_vector(self) -> np.ndarray:
        ph = self.n * self.zeta * self.B * self.accumulated_phase
        return np.array([np.exp(-1j * ph), np.exp(1j * ph)]) / math.sqrt(2.0)

    def reduced_derivative(self) -> np.ndarray:
        coef = -1j * self.n * self.zeta * self.accumulated_phase
        v = self.reduced_vector()
        return np.array([coef * v[0], -coef * v[1]])


def qfi(state) -> float:
    """Fisher information 4*(<dpsi|dpsi> + Re <dpsi|psi>^2) of an evolved state."""
    if isinstance(state, GhzState):
        psi = state.reduced_vector()
        dpsi = state.reduced_derivative()
    else:
        psi, dpsi = state.psi, state.dpsi
    overlap = np.vdot(dpsi, psi)
    return float(4.0 * (np.vdot(dpsi, dpsi).real + (overlap * overlap).real))


# -- discrete protocols -------------------------------------------------------


def discrete_propagators(seq: PulseSequence, signal: SignalParams,
                         B: Optional[float] = None, omegas=None, psi0=None):
    """Propagate a pulse sequence over a frequency grid.

    With an initial state psi0 (a 2-vector) returns (psi, dpsi), the final
    state and its field derivative dpsi/dB, each of shape (n_omega, 2).
    Without one, returns the propagator P(omega) and its derivative
    W(omega) = dP/dB, each of shape (n_omega, 2, 2), so that one pass serves
    any initial state (used by the Haar average).
    """
    problem = validate(seq)
    if problem is not None:
        raise ValueError(f"invalid sequence: {problem}")
    if B is None:
        B = signal.B
    om = np.atleast_1d(np.asarray(
        signal.omega if omegas is None else omegas, dtype=float))
    # one row per initial column (the state, or the two basis vectors) in
    # each of the component arrays a, b and their derivatives da, db
    cols = (np.eye(2, dtype=complex) if psi0 is None
            else np.asarray(psi0, dtype=complex).reshape(1, 2))
    shape = (cols.shape[0], om.size)
    if psi0 is None:
        # allocated before the work arrays, so that the outputs do not sit
        # above the heap hole the work arrays leave when they are freed
        P = np.empty((om.size, 2, 2), dtype=complex)
        W = np.empty_like(P)
    a = np.broadcast_to(cols[:, 0:1], shape).copy()
    b = np.broadcast_to(cols[:, 1:2], shape).copy()
    da = np.zeros(shape, dtype=complex)
    db = np.zeros(shape, dtype=complex)
    s1 = np.empty(shape, dtype=complex)
    s2 = np.empty(shape, dtype=complex)
    zb = signal.zeta * B
    dz = -1j * signal.zeta
    t_prev = 0.0
    for t_next, u in [(p.time, p.unitary) for p in seq.pulses] + [
            (seq.total_time, None)]:
        if t_next > t_prev:
            # free segment: psi <- F psi and dpsi <- F dpsi - i zeta Theta Z F psi
            # with F = exp(-i zeta B Theta Z); e = exp(-i zeta B Theta) comes
            # from a real cosine and sine, half the cost of np.exp
            th = _theta_raw(t_prev, t_next, om, signal.phi)
            x = th * -zb
            e = np.empty(om.size, dtype=complex)
            np.cos(x, out=e.real)
            np.sin(x, out=e.imag)
            a *= e
            da *= e
            np.multiply(a, th, out=s1)
            s1 *= dz
            da += s1
            np.conjugate(e, out=e)
            b *= e
            db *= e
            np.multiply(b, th, out=s1)
            s1 *= dz
            db -= s1
        if u is not None:
            _rotate(a, b, u, s1, s2)
            _rotate(da, db, u, s1, s2)
        t_prev = t_next
    if psi0 is not None:
        return (np.stack((a[0], b[0]), axis=1),
                np.stack((da[0], db[0]), axis=1))
    P[:, 0, :], P[:, 1, :] = a.T, b.T
    W[:, 0, :], W[:, 1, :] = da.T, db.T
    return P, W


def _rotate(x, y, u, s1, s2):
    """(x, y) <- u (x, y) in place, with s1 and s2 as scratch."""
    (u00, u01), (u10, u11) = u
    np.multiply(x, u10, out=s1)
    np.multiply(y, u01, out=s2)
    x *= u00
    x += s2
    y *= u11
    y += s1


def evolve_discrete(seq: PulseSequence, signal: SignalParams,
                    B: Optional[float] = None) -> SensorState:
    """Evolve a pulse sequence at the signal's frequency; exact, O(#pulses)."""
    if B is None:
        B = signal.B
    psi, dpsi = discrete_propagators(seq, signal, B,
                                     psi0=seq.initial_vector())
    return SensorState(psi=psi[0], dpsi=dpsi[0], B=B,
                       omega=signal.omega, total_time=seq.total_time)


# -- continuous protocols -----------------------------------------------------


def _drive_generator(control):
    if isinstance(control, TransverseDrive):
        return [(0.0, control.total_time, control.g * SIGMA_X)]
    problem = validate(control)
    if problem is not None:
        raise ValueError(f"invalid control: {problem}")
    return [(s, e, h) for s, e, h in control.pieces]


def _generator_scale(pieces) -> float:
    scale = 0.0
    for _, _, h in pieces:
        scale = max(scale, float(np.linalg.norm(h, 2)))
    return scale


def _augmented_rhs(t, y, om, phi, zeta, B, G):
    """d/dt of (psi, dpsi) stacked as columns of y, shape (n_omega, 4)."""
    c = np.cos(om * t + phi)
    zb = (zeta * B) * c
    psi = y[:, 0:2]
    dpsi = y[:, 2:4]
    h_psi = psi @ G.T
    h_psi[:, 0] += zb * psi[:, 0]
    h_psi[:, 1] -= zb * psi[:, 1]
    h_dpsi = dpsi @ G.T
    h_dpsi[:, 0] += zb * dpsi[:, 0]
    h_dpsi[:, 1] -= zb * dpsi[:, 1]
    # source from dH/dB = zeta*cos(omega t + phi) Z
    h_dpsi[:, 0] += (zeta * c) * psi[:, 0]
    h_dpsi[:, 1] -= (zeta * c) * psi[:, 1]
    out = np.empty_like(y)
    out[:, 0:2] = -1j * h_psi
    out[:, 2:4] = -1j * h_dpsi
    return out


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_window(f, t_start, t_end, y, tol, h0, max_steps=2_000_000):
    """Adaptive RK4 over one smooth window, error-per-unit-time control.

    Each trial step is compared against two half steps; the step is accepted
    when the difference is below tol*h/(t_end - t_start), which keeps the
    accumulated error of order tol over the window.
    """
    span = t_end - t_start
    if span <= 0.0:
        return y
    t = t_start
    h = min(h0, span)
    h_min = span * 1e-13
    steps = 0
    while t < t_end - 1e-14 * max(1.0, abs(t_end)):
        h = min(h, t_end - t)
        y_full = _rk4_step(f, t, y, h)
        y_half = _rk4_step(f, t, y, 0.5 * h)
        y_two = _rk4_step(f, t + 0.5 * h, y_half, 0.5 * h)
        err = float(np.abs(y_two - y_full).max())
        budget = tol * h / span
        if err <= budget or h <= h_min:
            t += h
            y = y_two
            factor = 0.9 * (budget / err) ** 0.2 if err > 0.0 else 4.0
            h *= min(4.0, max(0.5, factor))
        else:
            h *= max(0.1, 0.9 * (budget / err) ** 0.25)
        steps += 1
        if steps > max_steps:
            raise IntegrationError(
                f"step budget exhausted at t={t:.6g} (h={h:.3g})"
            )
    return y


def _continuous_batch(control, signal: SignalParams, B: float, omegas,
                      tol: float = 1e-10):
    """Evolve (psi, dpsi) to T for every frequency in the batch."""
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    pieces = _drive_generator(control)
    T = control.total_time
    y = np.zeros((om.size, 4), dtype=complex)
    alpha = math.pi / 2.0  # continuous protocols start from |+>
    y[:, 0] = math.cos(alpha / 2.0)
    y[:, 1] = math.sin(alpha / 2.0)
    g_scale = _generator_scale(pieces)
    rates = [T]
    if np.max(om) > 0.0:
        rates.append(2.0 * math.pi / np.max(om))
    if g_scale > 0.0:
        rates.append(1.0 / g_scale)
    if signal.zeta * abs(B) > 0.0:
        rates.append(1.0 / (signal.zeta * abs(B)))
    h0 = min(rates) / 50.0

    for start, end, G in pieces:
        def f(t, yy, G=G):
            return _augmented_rhs(t, yy, om, signal.phi, signal.zeta, B, G)

        y = _integrate_window(f, start, end, y, tol * (end - start) / T, h0)
    return y


def evolve_continuous(control, signal: SignalParams, B: Optional[float] = None,
                      tol: float = 1e-10) -> SensorState:
    """Evolve a continuous drive at the signal's frequency.

    The state is renormalized at the end; a norm drift above 10*tol raises
    IntegrationError since it signals a failed error control.
    """
    if B is None:
        B = signal.B
    y = _continuous_batch(control, signal, B, [signal.omega], tol=tol)
    psi = y[0, 0:2].copy()
    dpsi = y[0, 2:4].copy()
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 10.0 * tol:
        raise IntegrationError(f"norm drift {abs(norm - 1.0):.3e} > 10*tol")
    psi /= norm
    dpsi -= np.vdot(psi, dpsi).real * psi
    return SensorState(psi=psi, dpsi=dpsi, B=B, omega=signal.omega,
                       total_time=control.total_time)


# -- GHZ registers ------------------------------------------------------------


def evolve_ghz(n: int, times, signal: SignalParams, B: Optional[float] = None,
               flips=None):
    """Free evolution of an n-qubit GHZ state over consecutive segments.

    Returns (GhzState, qfi).  Collective X flips between segments alternate
    the sign of the per-segment kernels; the dynamics stays in the
    {|0...0>, |1...1>} plane so everything reduces to the signed kernel sum.
    """
    proto = GhzProtocol(n=n, times=tuple(times), flips=flips)
    if B is None:
        B = signal.B
    from .signal_core import theta_vector

    th = theta_vector(proto.times, signal)
    phase = float(np.dot(proto.segment_signs(), th))
    state = GhzState(n=n, accumulated_phase=phase, B=B, omega=signal.omega,
                     zeta=signal.zeta)
    j = 4.0 * (n * signal.zeta * phase) ** 2
    return state, j


def _ghz_qfi_vs_omega(proto: GhzProtocol, signal: SignalParams, omegas):
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    t = np.asarray(proto.times)
    th = _theta_raw(t[:-1, None], t[1:, None], om[None, :], signal.phi)
    phase = proto.segment_signs() @ th
    return 4.0 * (proto.n * signal.zeta * phase) ** 2


# -- spectrum dispatch and the finite-difference oracle -----------------------


def qfi_vs_omega(protocol, signal: SignalParams, B: Optional[float] = None,
                 omegas=None, ode_tol: float = 1e-10) -> np.ndarray:
    """J(B | omega) over a frequency grid for any protocol kind."""
    if B is None:
        B = signal.B
    om = np.atleast_1d(np.asarray(
        signal.omega if omegas is None else omegas, dtype=float))
    if isinstance(protocol, PulseSequence):
        psi, dpsi = discrete_propagators(protocol, signal, B, om,
                                         psi0=protocol.initial_vector())
        (a, b), (da, db) = psi.T, dpsi.T
        ov = da.conj() * a + db.conj() * b
        dd = (da.conj() * da + db.conj() * db).real
        return 4.0 * (dd + (ov * ov).real)
    if isinstance(protocol, GhzProtocol):
        return _ghz_qfi_vs_omega(protocol, signal, om)
    if isinstance(protocol, (TransverseDrive, PiecewiseGenerator)):
        y = _continuous_batch(protocol, signal, B, om, tol=ode_tol)
        psi = y[:, 0:2]
        dpsi = y[:, 2:4]
        norms = np.linalg.norm(psi, axis=1, keepdims=True)
        psi = psi / norms
        proj = np.einsum("ni,ni->n", psi.conj(), dpsi).real
        dpsi = dpsi - proj[:, None] * psi
        dd = np.einsum("ni,ni->n", dpsi.conj(), dpsi).real
        ov = np.einsum("ni,ni->n", dpsi.conj(), psi)
        return 4.0 * (dd + (ov * ov).real)
    raise TypeError(f"unsupported protocol type {type(protocol).__name__}")


def _state_at(protocol, signal, B, ode_tol):
    """State vector only (reduced vector for GHZ), for finite differencing."""
    if isinstance(protocol, PulseSequence):
        return evolve_discrete(protocol, signal, B).psi
    if isinstance(protocol, (TransverseDrive, PiecewiseGenerator)):
        y = _continuous_batch(protocol, signal, B, [signal.omega], tol=ode_tol)
        return y[0, 0:2]
    if isinstance(protocol, GhzProtocol):
        state, _ = evolve_ghz(protocol.n, protocol.times, signal, B,
                              flips=protocol.flips)
        return state.reduced_vector()
    raise TypeError(f"unsupported protocol type {type(protocol).__name__}")


def qfi_fd_oracle(protocol, signal: SignalParams, B: Optional[float] = None,
                  step: Optional[float] = None, richardson: bool = False,
                  ode_tol: float = 1e-11) -> float:
    """QFI with dpsi replaced by a central finite difference of psi over B.

    Verification-only reference path: it never touches the analytic
    derivative propagation.  With richardson=True the h and h/2 difference
    quotients are extrapolated, and a relative disagreement above 1e-4
    between the two raises, flagging a too-large step.

    Default steps: 1e-6*max(1,|B|) for exact (discrete/GHZ) evolutions,
    1e-4*max(1,|B|) for continuous ones where ODE tolerance noise enters
    the difference quotient.
    """
    if B is None:
        B = signal.B
    if step is None:
        rough = isinstance(protocol, (TransverseDrive, PiecewiseGenerator))
        step = (1e-4 if rough else 1e-6) * max(1.0, abs(B))

    def fd(h):
        plus = _state_at(protocol, signal, B + h, ode_tol)
        minus = _state_at(protocol, signal, B - h, ode_tol)
        return (plus - minus) / (2.0 * h)

    psi = _state_at(protocol, signal, B, ode_tol)

    def j_of(dpsi):
        ov = np.vdot(dpsi, psi)
        return float(4.0 * (np.vdot(dpsi, dpsi).real + (ov * ov).real))

    d1 = fd(step)
    if not richardson:
        return j_of(d1)
    d2 = fd(0.5 * step)
    j1, j2 = j_of(d1), j_of(d2)
    scale = max(abs(j1), abs(j2), 1e-12)
    if abs(j1 - j2) / scale > 1e-4:
        raise RuntimeError(
            f"finite-difference step {step} too large: "
            f"h vs h/2 estimates differ by {abs(j1 - j2) / scale:.2e}"
        )
    return j_of((4.0 * d2 - d1) / 3.0)
