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

The toggling frame of a protocol is here too, so that one module reads
pulse unitaries, generators and protocol kinds: _jumps gives the times
a_j at which Z~ = U0^dag Z U0 of the control alone jumps, the jumps and
the initial Bloch vector, and feature_scale the protocol's highest
intrinsic frequency.  iqfi integrates the frame over omega (the tail and
the zero-field K) and reads none of these itself.

_states is the one way to the states at T and the J rule that goes with
them: the formula above, or its Haar average for a sequence with
initial_state None.  qfi_vs_omega applies the rule; qfi_fd_oracle
differences the same states over B.  Every public entry point, here and
in iqfi, first replaces a GHZ register by the pulse sequence it is in
the {|0...0>, |1...1>} plane.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from .protocol import (_MAX_STEPS, IDENTITY, SIGMA_X, ContinuousControl,
                       GhzProtocol, Pulse, PulseSequence)
from .signal_core import SignalParams, _segment_thetas

__all__ = [
    "ODE_TOL",
    "IntegrationError",
    "feature_scale",
    "qfi_vs_omega",
    "qfi_fd_oracle",
    "discrete_propagators",
]

# a free segment no longer than this fraction of T (16 ulps) is rounding,
# as a pulse time k*(T/m) can leave before T, not a segment: it does not
# raise a protocol's feature scale
_ULP_SEGMENT = 16.0 * np.finfo(float).eps


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
    # (Theta, u) per pulse and a last (Theta, None) to total_time
    steps = zip(_segment_thetas(seq.boundaries(), om, signal.phi),
                [p.unitary for p in seq.pulses] + [None])
    a, b, da, db = _propagate(cols, steps, signal, om.size)
    if psi0 is not None:
        return (np.stack((a[0], b[0]), axis=1),
                np.stack((da[0], db[0]), axis=1))
    P[:, 0, :], P[:, 1, :] = a.T, b.T
    W[:, 0, :], W[:, 1, :] = da.T, db.T
    return P, W


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
# in all (protocol's cap on a train's pulses too), is refused before it is
# computed, so a tolerance or a rate out of reach fails at once instead of
# grinding or exhausting memory.
_FIRST_STEPS_PER_RATE = 0.25
_MAX_STEPS_PER_RATE = 4096
_PLUS = np.array([[1.0, 1.0]], dtype=complex) / math.sqrt(2.0)  # |+>
# default error target of a drive's state, and of its derivative per unit
# of zeta
ODE_TOL = 1e-9


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


def _generator_norm(control) -> float:
    """The largest spectral norm of a control's piece generators."""
    return max((float(np.linalg.norm(h, 2)) for _, _, h in control.pieces),
               default=0.0)


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


def _continuous_batch(control, signal: SignalParams, omegas, tol: float):
    """(psi, dpsi) at T for every frequency, as columns (a, b, da, db) of
    an (n_omega, 4) array.

    Levels m, 2m and 4m are extrapolated to O(h^6), the result returned.
    Its difference from the O(h^4) result of the two finer levels is the
    error estimate; that difference is the error of the O(h^4) result, not
    of the O(h^6) one, so the estimate overstates the returned error,
    usually by orders of magnitude.  It is taken per unit of zeta in the
    rows of dpsi, which grow with zeta.  A frequency whose estimate exceeds
    tol gets another level: m doubles and only the new finest level is
    computed.  m starts from T, the largest generator norm, zeta*|B| and
    tol alone, so each frequency's result does not depend on which
    frequencies share its batch.  Raises IntegrationError, before
    computing it, for a finest level above _MAX_STEPS_PER_RATE steps per
    unit of rate*time or above _MAX_STEPS steps.  tol is _states's to
    check.
    """
    pieces = control.pieces
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    T = float(control.total_time)
    rate = max(1.0 / T, signal.zeta * abs(signal.B), _generator_norm(control))
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
        # (a, b, da, db) at T from |+> as rows, with k*counts[i] steps on
        # piece i: k = 1, 2 and 4 at first, then only the new finest level
        *coarse, s4 = (np.concatenate(_propagate(
            _PLUS, _split_steps(pieces, k * counts, om[todo], signal.phi),
            signal, todo.size)) for k in ((1, 2, 4) if s1 is None else (4,)))
        if coarse:
            s1, s2 = coarse
        r1 = (4.0 * s2 - s1) / 3.0
        r2 = (4.0 * s4 - s2) / 3.0
        best = (16.0 * r2 - r1) / 15.0
        # per unit of zeta in the rows of dpsi; a subnormal zeta leaves dpsi
        # no relative precision to meet tol
        err = np.abs(best - r2)
        err[2:] /= max(signal.zeta, np.finfo(float).tiny)
        ok = err.max(axis=0) <= tol
        out[:, todo[ok]] = best[:, ok]
        if ok.all():
            return out.T
        todo, s1, s2 = todo[~ok], s2[:, ~ok], s4[:, ~ok]
        counts, density = 2 * counts, 2.0 * density


# -- the toggling frame -------------------------------------------------------


def _bloch_z(u):
    """Bloch vector r of u^dag Z u = r.sigma."""
    m = u.conj().T @ np.diag([1.0, -1.0]) @ u
    return np.array([m[0, 1].real, -m[0, 1].imag, m[0, 0].real])


def _jumps(protocol):
    """(a, Q, r, n, rate): the boundary form of a protocol.

    Q_j is the jump (r before minus r after; r = 0 outside [0, T]) of the
    control's toggling-frame Bloch vector r at a_j: a sequence's pulses,
    or 0 and T for a continuous control.  r is r on each segment (None for
    a control); n is the initial Bloch vector (None for a sequence with no
    definite initial state), rate twice a control's largest generator norm.
    The jumps' covariance in the initial state is D = Q Q^T - (Q n)(Q n)^T,
    and (2/3) Q Q^T, its Haar average, for n None; its rows sum to zero.
    """
    z = np.array([0.0, 0.0, 1.0])
    if isinstance(protocol, PulseSequence):
        u, r = np.eye(2), [z]
        for p in protocol.pulses:
            u = p.unitary @ u
            r.append(_bloch_z(u))
        r, n = np.array(r), None
        if protocol.initial_state is not None:
            alpha, beta = protocol.initial_state
            n = np.array([math.sin(alpha) * math.cos(beta),
                          math.sin(alpha) * math.sin(beta), math.cos(alpha)])
        Q = -np.diff(np.vstack([0.0 * z, r, 0.0 * z]), axis=0)
        return protocol.boundaries(), Q, r, n, 0.0
    if isinstance(protocol, ContinuousControl):
        u = np.eye(2)
        for start, end, h in protocol.pieces:
            u = _su2_exp(h, end - start) @ u
        return (np.array([0.0, float(protocol.total_time)]),
                np.array([-z, _bloch_z(u)]), None,
                np.array([1.0, 0.0, 0.0]), 2.0 * _generator_norm(protocol))
    raise TypeError(f"unsupported protocol type {type(protocol).__name__}")


def feature_scale(protocol, signal: SignalParams) -> float:
    """Highest intrinsic frequency of a protocol at the signal's field B.

    The largest of 1/T, zeta*|B| (n*zeta for a GHZ register) and the
    protocol's own rates: segments/T for trains and registers and pieces/T
    for a piecewise generator (a segment or piece of at most 16 ulps of T
    does not count), 2|g| for the drive, and twice the largest generator
    norm for a continuous control.  The closed-form tail starts at
    tail_start_factor times this; the CLI's default spectrum grid ends at
    8 times it.
    """
    protocol, signal = _reduced(protocol, signal)
    T = float(protocol.total_time)
    scale = max(1.0 / T, signal.zeta * abs(signal.B))
    if isinstance(protocol, PulseSequence):
        scale = max(scale, protocol.segment_count(_ULP_SEGMENT * T) / T)
    elif isinstance(protocol, ContinuousControl):
        # a Python int: a numpy one overflows with a warning at T = 1e-320
        pieces = int(sum(end - start > _ULP_SEGMENT * T
                         for start, end, _ in protocol.pieces))
        scale = max(scale, 2.0 * _generator_norm(protocol), pieces / T)
    return scale


# -- states, J and the finite-difference oracle -------------------------------


def _states(protocol, signal: SignalParams, om, ode_tol: float):
    """(J rule, states) at T for every frequency in om.

    The rule is _pure_j and the states (psi, dpsi), each of shape (n, 2),
    for a pulse sequence or a continuous control; for a sequence with
    initial_state None it is _mean_j and the states (P, W), each of shape
    (n, 2, 2).  Raises ValueError first unless ode_tol is positive and
    finite, every omega finite and >= 0, and omega*T finite.  A continuous
    control's states are renormalized and dpsi projected onto the
    normalized path; a norm drift above 10*ode_tol raises IntegrationError,
    since it signals a failed error control.
    """
    _check_ode_tol(ode_tol)
    om = np.atleast_1d(np.asarray(om, dtype=float))
    bad = ~((om >= 0.0) & (om < math.inf))  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"omegas must be finite and >= 0, got {om[bad][0]}")
    top, T = float(om.max(initial=0.0)), float(protocol.total_time)
    if not math.isfinite(top * T):
        raise ValueError(f"omega*T must be finite, got omega {top} at T = {T}")
    if isinstance(protocol, PulseSequence):
        if protocol.initial_state is None:
            return _mean_j, discrete_propagators(protocol, signal, omegas=om)
        return _pure_j, discrete_propagators(protocol, signal, omegas=om,
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
        return _pure_j, (psi, dpsi - proj[:, None] * psi)
    raise TypeError(f"unsupported protocol type {type(protocol).__name__}")


def _finite_j(j_of, states, om) -> np.ndarray:
    """j_of(*states), J at the frequencies om: a J beyond the floats is a
    ValueError, not a RuntimeWarning and a NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        j = j_of(*states)
    finite = np.isfinite(j)
    if not finite.all():
        raise ValueError(f"J at omega = {np.atleast_1d(om)[~finite][0]} "
                         "is beyond the floats")
    return j


def qfi_vs_omega(protocol, signal: SignalParams, omegas=None,
                 ode_tol: float = ODE_TOL) -> np.ndarray:
    """J(B | omega) at the signal's field B over a frequency grid.

    Without omegas, J at the signal's own frequency.  Every omega must be
    finite and >= 0, and omega*T finite.  ode_tol, which must be positive
    and finite, bounds the estimated error of a continuous drive's final
    state, and of its field derivative per unit of zeta.  For
    initial_state None, J is averaged over Haar states.  A J beyond the
    floats is a ValueError.
    """
    protocol, signal = _reduced(protocol, signal)
    om = signal.omega if omegas is None else omegas
    return _finite_j(*_states(protocol, signal, om, ode_tol), om)


def _pure_j(psi, dpsi):
    """J = 4*(<dpsi|dpsi> + Re <dpsi|psi>^2) of each row of psi, dpsi."""
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


def qfi_fd_oracle(protocol, signal: SignalParams, omegas=None,
                  step: Optional[float] = None,
                  ode_tol: float = 1e-11) -> np.ndarray:
    """J(B | omega) over a frequency grid, with dpsi replaced by a central
    finite difference of psi over B.

    Verification-only reference path: it never touches the analytic
    derivative.  It takes the grid of qfi_vs_omega (without omegas, the
    signal's own omega) and returns J in the same shape.  It differences
    the states of _states at B +- h (the propagator P for a sequence with
    initial_state None) over the whole grid, and applies the same J rule
    and checks as qfi_vs_omega.  The difference quotients at h and h/2 are
    Richardson-extrapolated; a relative disagreement above 1e-4 between
    the two at any frequency raises RuntimeError, which names the worst
    one, flagging a too-large step.  A step that is not positive and
    finite is a ValueError.

    Default steps: 1e-6*max(1,|B|) for exact (pulse) evolutions,
    1e-4*max(1,|B|) for continuous ones, whose states carry an error of up
    to ode_tol into the difference quotient; it divides that error by the
    step, hence a default ode_tol below ODE_TOL.  A GHZ register is
    differenced as its pulse sequence.
    """
    protocol, signal = _reduced(protocol, signal)
    if step is None:
        rough = isinstance(protocol, ContinuousControl)
        step = (1e-4 if rough else 1e-6) * max(1.0, abs(signal.B))
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    om = np.atleast_1d(np.asarray(
        signal.omega if omegas is None else omegas, dtype=float))
    j_of, (psi, _) = _states(protocol, signal, om, ode_tol)
    # psi, or P, at B + h, B - h, B + h/2 and B - h/2
    p1, m1, p2, m2 = (_states(protocol, replace(signal, B=signal.B + s), om,
                              ode_tol)[1][0]
                      for s in (step, -step, 0.5 * step, -0.5 * step))
    d1, d2 = (p1 - m1) / (2.0 * step), (p2 - m2) / step
    j1, j2 = (_finite_j(j_of, (psi, d), om) for d in (d1, d2))
    gap = np.abs(j1 - j2) / np.maximum(np.abs(j1), np.abs(j2)).clip(1e-12)
    worst = int(np.argmax(gap))
    if gap[worst] > 1e-4:
        raise RuntimeError(
            f"finite-difference step {step} too large: h vs h/2 estimates "
            f"differ by {gap[worst]:.2e} at omega = {om[worst]}")
    return _finite_j(j_of, (psi, (4.0 * d2 - d1) / 3.0), om)
