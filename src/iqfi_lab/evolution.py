"""State evolution and quantum Fisher information.

For discrete protocols the free evolution between pulses is the exact 2x2
unitary exp(-i*zeta*B*Theta_k*Z) per segment, so a state column psi and its
field derivative dpsi = dpsi/dB are carried through the protocol in one
forward pass, vectorized over a frequency grid:

    psi <- F_k psi,    dpsi <- F_k dpsi + (-i*zeta*Theta_k) Z (F_k psi)

with each pulse unitary applied to both.  The two components of psi and of
dpsi are held as separate contiguous arrays: a free segment is an
elementwise phase, and a pulse is 2x2 arithmetic with four scalars written
out by hand.  The segment kernels Theta_k of pulse segments and drive
steps alike come from one generator, signal_core._segment_thetas: a
segment as long as the one before it costs no transcendental, as the
phase exp(i*(omega*t + phi)) is carried across it by multiplication.
Propagating the two basis columns instead of one state gives the full
propagator P and W = dP/dB.  No time stepping is involved.  The
pure-state Fisher information is

    J = 4 * (<dpsi|dpsi> + Re <dpsi|psi>^2)

which for normalized states (where <dpsi|psi> is purely imaginary) equals
the usual 4*(<dpsi|dpsi> - |<psi|dpsi>|^2).

Continuous drives run through the same kernel as symmetric (Strang)
splittings: each step of width h is a half step of the drive generator,
the exact free segment, and another half step, the half steps at interior
boundaries merged into one closed-form SU(2) exponential.  The global error
is even in h, so Richardson extrapolation over m, 2m and 4m steps gives an
O(h^6) result, which is returned.  The error estimate is its difference
from the O(h^4) one: that is the error of the O(h^4) result, so the O(h^6)
result usually sits far inside the tolerance.  Frequencies whose estimate
misses the tolerance are refined by doubling m;
the starting m depends only on T, the generator norm, zeta*|B| and the
tolerance, so a frequency's result does not depend on its batch.

qfi_vs_omega is the one way to J, the formula above on the batched
states, or its Haar average for a sequence with initial_state None.
Every public entry point, here and in iqfi, first replaces a GHZ
register by the pulse sequence it is in the {|0...0>, |1...1>} plane.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from .protocol import (IDENTITY, SIGMA_X, ContinuousControl, GhzProtocol,
                       Pulse, PulseSequence)
from .signal_core import SignalParams, _segment_thetas

__all__ = [
    "ODE_TOL",
    "IntegrationError",
    "qfi_vs_omega",
    "qfi_fd_oracle",
    "discrete_propagators",
]


class IntegrationError(RuntimeError):
    """An integration failed to meet its error target: continuous evolution
    here, the panel budget (QuadratureNonConvergence) in iqfi.  .partial is
    the best estimate so far, None where there is none."""

    partial = None


def _reduced(protocol, signal: SignalParams):
    """(protocol, signal), a GHZ register replaced by its pulse sequence:
    from |+>, the exact X at each flipped interior boundary and the
    identity at the others, under the signal with zeta = n*zeta."""
    if not isinstance(protocol, GhzProtocol):
        return protocol, signal
    t = protocol.times
    flips = protocol.flips or (False,) * (len(t) - 2)
    pulses = tuple(Pulse(time=x, matrix=SIGMA_X if f else IDENTITY)
                   for x, f in zip(t[1:-1], flips))
    return (PulseSequence(pulses, t[-1]),
            replace(signal, zeta=protocol.n * signal.zeta))


# -- discrete protocols -------------------------------------------------------


def discrete_propagators(seq: PulseSequence, signal: SignalParams,
                         omegas=None, psi0=None):
    """Propagate a pulse sequence over a frequency grid.

    With an initial state psi0 (a 2-vector) returns (psi, dpsi), the final
    state and its field derivative dpsi/dB, each of shape (n_omega, 2).
    Without one, returns the propagator P(omega) and its derivative
    W(omega) = dP/dB, each of shape (n_omega, 2, 2), so that one pass serves
    any initial state (used by the Haar average, _mean_j).
    """
    om = np.atleast_1d(np.asarray(
        signal.omega if omegas is None else omegas, dtype=float))
    # one row per initial column (the state, or the two basis vectors) in
    # each of the component arrays a, b and their derivatives da, db
    cols = (np.eye(2, dtype=complex) if psi0 is None
            else np.asarray(psi0, dtype=complex).reshape(1, 2))
    if psi0 is None:
        # allocated before the work arrays, so that the outputs do not sit
        # above the heap hole the work arrays leave when they are freed
        P = np.empty((om.size, 2, 2), dtype=complex)
        W = np.empty_like(P)
    a, b, da, db = _propagate(cols, _pulse_steps(seq, om, signal.phi),
                              signal, om.size)
    if psi0 is not None:
        return (np.stack((a[0], b[0]), axis=1),
                np.stack((da[0], db[0]), axis=1))
    P[:, 0, :], P[:, 1, :] = a.T, b.T
    W[:, 0, :], W[:, 1, :] = da.T, db.T
    return P, W


def _pulse_steps(seq: PulseSequence, om, phi):
    """(Theta, u) per pulse of seq and a last (Theta, None) to total_time."""
    return zip(_segment_thetas(seq.boundaries(), om, phi),
               [p.unitary for p in seq.pulses] + [None])


def _propagate(cols, steps, signal: SignalParams, n_omega: int):
    """The kernel: carry initial columns and their field derivatives
    through steps, a sequence of (Theta, u): a free segment with kernel
    Theta (an array over frequencies, or None for no segment), then the
    2x2 unitary u (None for none).  cols holds one initial column per row;
    returns the component arrays (a, b, da, db), each of shape
    (columns, n_omega)."""
    shape = (cols.shape[0], n_omega)
    a = np.broadcast_to(cols[:, 0:1], shape).copy()
    b = np.broadcast_to(cols[:, 1:2], shape).copy()
    da = np.zeros(shape, dtype=complex)
    db = np.zeros(shape, dtype=complex)
    s1 = np.empty(shape, dtype=complex)
    s2 = np.empty(shape, dtype=complex)
    x = np.empty(n_omega)
    e = np.empty(n_omega, dtype=complex)
    zb = signal.zeta * signal.B
    dz = -1j * signal.zeta
    for th, u in steps:
        if th is not None:
            # free segment: psi <- F psi and dpsi <- F dpsi - i zeta Theta Z F psi
            # with F = exp(-i zeta B Theta Z); e = exp(-i zeta B Theta) comes
            # from a real cosine and sine, half the cost of np.exp
            np.multiply(th, -zb, out=x)
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
    return a, b, da, db


def _rotate(x, y, u, s1, s2):
    """(x, y) <- u (x, y) in place, with s1 and s2 as scratch."""
    (u00, u01), (u10, u11) = u
    np.multiply(x, u10, out=s1)
    np.multiply(y, u01, out=s2)
    x *= u00
    x += s2
    y *= u11
    y += s1


# -- continuous protocols -----------------------------------------------------


# Level m of the splitting takes _FIRST_STEPS_PER_RATE * rate * tol^(-1/4)
# steps per unit time, as the error estimate falls as h^4; rate is the
# largest of 1/T, zeta*|B| and the generator norms.  A finest level above
# _MAX_STEPS_PER_RATE * rate steps per unit time, or above _MAX_STEPS steps
# in all, is refused before it is computed, so a tolerance or a rate out of
# reach fails at once instead of grinding or exhausting memory.
_FIRST_STEPS_PER_RATE = 0.25
_MAX_STEPS_PER_RATE = 4096
_MAX_STEPS = 1 << 20
_PLUS = np.array([[1.0, 1.0]], dtype=complex) / math.sqrt(2.0)  # |+>
ODE_TOL = 1e-9  # default error target of a drive's state and derivative


def _check_ode_tol(tol) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"ode_tol must be positive and finite, got {tol}")


def _su2_exp(h, tau):
    """exp(-i h tau) of a 2x2 Hermitian h, in closed form: with
    h = h0 + n.sigma it is exp(-i h0 tau) (cos(|n| tau) - i sin(|n| tau)
    n.sigma / |n|)."""
    h0 = 0.5 * (h[0, 0] + h[1, 1]).real
    r = math.hypot(h[1, 0].real, h[1, 0].imag, 0.5 * (h[0, 0] - h[1, 1]).real)
    s = tau * float(np.sinc(r * tau / math.pi))  # sin(r tau) / r
    return np.exp(-1j * h0 * tau) * (math.cos(r * tau) * np.eye(2)
                                     - 1j * s * (h - h0 * np.eye(2)))


def _split_steps(pieces, counts, om, phi):
    """(Theta, u) of the splitting with counts[k] steps on piece k."""
    used = [(start, end, h, n, (end - start) / n)
            for (start, end, h), n in zip(pieces, counts) if n]
    # each step is given the nominal width dt rather than the difference of
    # its rounded ends, so a piece's steps share one length, and one h and s
    # of the phase recurrence
    thetas = _segment_thetas(
        np.concatenate([start + np.arange(n) * dt
                        for start, _, _, n, dt in used] + [[used[-1][1]]]),
        om, phi, np.repeat([dt for *_, dt in used], [n for *_, n, _ in used]))
    carry = None  # the previous piece's closing half step
    for _, _, h, n, dt in used:
        half = _su2_exp(h, 0.5 * dt)
        full = _su2_exp(h, dt)
        yield None, half if carry is None else half @ carry
        for k in range(n):
            yield next(thetas), full if k < n - 1 else None
        carry = half
    yield None, carry


def _split_level(pieces, counts, signal, om):
    """(a, b, da, db) at T from |+> under the splitting with counts[k]
    steps on piece k, as rows of a (4, n_omega) array."""
    return np.concatenate(_propagate(
        _PLUS, _split_steps(pieces, counts, om, signal.phi), signal, om.size))


def _continuous_batch(control, signal: SignalParams, omegas, tol: float):
    """(psi, dpsi) at T for every frequency, as columns (a, b, da, db) of
    an (n_omega, 4) array.

    Levels m, 2m and 4m are extrapolated to O(h^6), the result returned.
    Its difference from the O(h^4) result of the two finer levels is the
    error estimate; that difference is the error of the O(h^4) result, not
    of the O(h^6) one, so the estimate overstates the returned error,
    usually by orders of magnitude.  A frequency whose estimate exceeds
    tol gets another level: m doubles and only the new finest level is
    computed.  m starts from T, the largest generator norm, zeta*|B| and
    tol alone, so each frequency's result does not depend on which
    frequencies share its batch.  Raises IntegrationError, before
    computing it, for a finest level above _MAX_STEPS_PER_RATE steps per
    unit of rate*time or above _MAX_STEPS steps.
    """
    _check_ode_tol(tol)
    pieces = control.pieces
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    T = float(control.total_time)
    rate = max([1.0 / T, signal.zeta * abs(signal.B)]
               + [float(np.linalg.norm(h, 2)) for _, _, h in pieces])
    density = _FIRST_STEPS_PER_RATE * rate * tol ** -0.25
    out = np.empty((4, om.size), dtype=complex)
    todo = np.arange(om.size)
    s1 = s2 = None
    while True:
        if 4.0 * density > _MAX_STEPS_PER_RATE * rate:
            raise IntegrationError(
                f"ode_tol={tol:.3g} is out of reach: the splitting would "
                f"need {4.0 * density:.4g} steps per unit time, above "
                f"{_MAX_STEPS_PER_RATE} times the rate {rate:.4g}")
        if 4.0 * density * T > _MAX_STEPS:  # an infinite count too
            raise IntegrationError(
                f"the splitting would need {4.0 * density * T:.4g} steps, "
                f"above {_MAX_STEPS}; the rate {rate:.4g} is out of reach")
        if s1 is None:
            counts = np.array([math.ceil((e - s) * density)
                               for s, e, _ in pieces])
            s1, s2 = (_split_level(pieces, k * counts, signal, om)
                      for k in (1, 2))
        s4 = _split_level(pieces, 4 * counts, signal, om[todo])
        r1 = (4.0 * s2 - s1) / 3.0
        r2 = (4.0 * s4 - s2) / 3.0
        best = (16.0 * r2 - r1) / 15.0
        ok = np.abs(best - r2).max(axis=0) <= tol
        out[:, todo[ok]] = best[:, ok]
        if ok.all():
            return out.T
        todo, s1, s2 = todo[~ok], s2[:, ~ok], s4[:, ~ok]
        counts, density = 2 * counts, 2.0 * density


# -- states, J and the finite-difference oracle -------------------------------


def _states(protocol, signal: SignalParams, om, ode_tol: float):
    """(psi, dpsi) at T for every frequency in om, each of shape (n, 2).

    A continuous control's states are renormalized and dpsi projected onto
    the normalized path; a norm drift above 10*ode_tol raises
    IntegrationError, since it signals a failed error control.
    """
    if isinstance(protocol, PulseSequence):
        return discrete_propagators(protocol, signal, omegas=om,
                                    psi0=protocol.initial_vector())
    if isinstance(protocol, ContinuousControl):
        y = _continuous_batch(protocol, signal, om, tol=ode_tol)
        psi, dpsi = y[:, 0:2], y[:, 2:4]
        norms = np.linalg.norm(psi, axis=1, keepdims=True)
        drift = float(np.abs(norms - 1.0).max())
        if drift > 10.0 * ode_tol:
            raise IntegrationError(f"norm drift {drift:.3e} > 10*ode_tol")
        psi = psi / norms
        proj = np.einsum("ni,ni->n", psi.conj(), dpsi).real
        return psi, dpsi - proj[:, None] * psi
    raise TypeError(f"unsupported protocol type {type(protocol).__name__}")


def qfi_vs_omega(protocol, signal: SignalParams, omegas=None,
                 ode_tol: float = ODE_TOL) -> np.ndarray:
    """J(B | omega) at the signal's field B over a frequency grid.

    Without omegas, J at the signal's own frequency.  Every omega must be
    finite and >= 0, and omega*T finite.  ode_tol, which must be positive
    and finite, bounds the estimated error of a continuous drive's final
    state and field derivative.  For initial_state None, J is averaged
    over Haar states.
    """
    _check_ode_tol(ode_tol)
    protocol, signal = _reduced(protocol, signal)
    om = np.atleast_1d(np.asarray(
        signal.omega if omegas is None else omegas, dtype=float))
    bad = ~((om >= 0.0) & (om < math.inf))  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"omegas must be finite and >= 0, got {om[bad][0]}")
    top, T = float(om.max(initial=0.0)), float(protocol.total_time)
    if not math.isfinite(top * T):
        raise ValueError(f"omega*T must be finite, got omega {top} at T = {T}")
    if isinstance(protocol, PulseSequence) and protocol.initial_state is None:
        return _mean_j(*discrete_propagators(protocol, signal, omegas=om))
    psi, dpsi = _states(protocol, signal, om, ode_tol)
    (a, b), (da, db) = psi.T, dpsi.T
    ov = da.conj() * a + db.conj() * b
    dd = (da.conj() * da + db.conj() * db).real
    return 4.0 * (dd + (ov * ov).real)


def _mean_j(P, W):
    """J averaged over Haar-random psi0, from P and W = dP/dB: exact, as J
    has degree 2 in psi0 and psi0*.  It is 4*(Tr A/2 + Re(Tr(M)^2 +
    Tr(M^2))/6), A = W^dag W, M = W^dag P written out elementwise."""
    (p00, p01), (p10, p11) = P.transpose(1, 2, 0)
    (w00, w01), (w10, w11) = W.conj().transpose(1, 2, 0)
    m00, m01 = w00 * p00 + w10 * p10, w00 * p01 + w10 * p11
    m10, m11 = w01 * p00 + w11 * p10, w01 * p01 + w11 * p11
    tr_a = (W.real ** 2 + W.imag ** 2).sum(axis=(1, 2))
    tr_m2 = m00 * m00 + m11 * m11 + 2.0 * m01 * m10
    return 4.0 * (tr_a / 2.0 + ((m00 + m11) ** 2 + tr_m2).real / 6.0)


def qfi_fd_oracle(protocol, signal: SignalParams,
                  step: Optional[float] = None, richardson: bool = False,
                  ode_tol: float = 1e-11) -> float:
    """QFI with dpsi replaced by a central finite difference of psi over B.

    Verification-only reference path: it never touches the analytic
    derivative propagation.  With richardson=True the h and h/2 difference
    quotients are extrapolated, and a relative disagreement above 1e-4
    between the two raises, flagging a too-large step.

    Default steps: 1e-6*max(1,|B|) for exact (pulse) evolutions,
    1e-4*max(1,|B|) for continuous ones, whose states carry an error of up
    to ode_tol into the difference quotient; it divides that error by the
    step, hence a default ode_tol below ODE_TOL.  A GHZ register is
    differenced as its pulse sequence.  For a sequence with initial_state
    None the propagator P is differenced, and J averaged by _mean_j.
    """
    protocol, signal = _reduced(protocol, signal)
    if step is None:
        rough = isinstance(protocol, ContinuousControl)
        step = (1e-4 if rough else 1e-6) * max(1.0, abs(signal.B))
    haar = (isinstance(protocol, PulseSequence)
            and protocol.initial_state is None)

    def state(b):
        shifted = replace(signal, B=b)
        if haar:
            return discrete_propagators(protocol, shifted,
                                        omegas=[signal.omega])[0]
        return _states(protocol, shifted, [signal.omega], ode_tol)[0][0]

    def fd(h):
        return (state(signal.B + h) - state(signal.B - h)) / (2.0 * h)

    psi = state(signal.B)

    def j_of(dpsi):
        if haar:
            return float(_mean_j(psi, dpsi)[0])
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
