"""Independent references that the tests check the package against.

None of these is reached by a command, a battery item or a benchmark
workload, so they live beside the tests rather than in the package:

- theta, the closed-form Theta kernel that the phase recurrences of
  signal_core are checked against;
- pi_train_closed_form and pi_train_qfi, K and J of a Z-reversing pi
  train;
- rwa_state and rwa_qfi, the rotating-frame model of the constant
  transverse drive, in closed form (_rwa_propagate);
- qfi_fd_oracle, J with the analytic field derivative replaced by a
  central finite difference of the states over B;
- tensor_ghz_qfi, J of an n-qubit GHZ register by dense 2^n evolution;
- frame_r, a pulse sequence's toggling-frame Bloch vectors r_k, pulse by
  pulse.

Nothing here imports scipy or pytest, so that a child process may import
it beside the package (see tests/test_cli.py).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import numpy as np

from iqfi_lab.evolution import _finite_j, _grid, _reduced, _states
from iqfi_lab.protocol import ContinuousControl
from iqfi_lab.signal_core import SignalParams


def theta(t0, t1, omega, phi=0.0):
    """Vectorized kernel: integral of cos(omega*t + phi) over [t0, t1].

    Evaluated in product form
        Theta = (t1 - t0) * cos(omega*(t0+t1)/2 + phi) * sinc(omega*(t1-t0)/2)
    which is algebraically identical to (sin(omega*t1+phi) - sin(omega*t0+phi))/omega
    but free of cancellation for small omega and continuous through omega = 0,
    where it reduces to (t1 - t0)*cos(phi).
    """
    d = t1 - t0
    mid = 0.5 * (t0 + t1)
    # np.sinc(x) = sin(pi x)/(pi x) with the x=0 limit handled exactly
    return d * np.cos(omega * mid + phi) * np.sinc(omega * d / (2.0 * np.pi))


# -- pi trains ----------------------------------------------------------------


def pi_train_closed_form(t0: float, tN: float, alpha: float,
                         zeta: float = 1.0) -> float:
    """K = 2*pi*zeta^2*(tN - t0)*sin^2(alpha) for a Z-reversing pi-train.

    Independent of the interior pulse times; alpha is the polar Bloch angle
    of the initial state.  Signal phase 0.
    """
    return 2.0 * math.pi * zeta * zeta * (tN - t0) * math.sin(alpha) ** 2


def pi_train_qfi(omega, times, alpha: float = math.pi / 2.0,
                 zeta: float = 1.0):
    """Spectrum of a pi-train with segment boundaries t_0 < ... < t_N:

        J = (4*zeta^2*sin^2(alpha)/omega^2) *
            (sin(omega t_0) + 2*sum_i (-1)^i sin(omega t_i) + (-1)^N sin(omega t_N))^2

    (interior sum over i = 1..N-1; signal phase 0).  Vectorized over omega;
    omega -> 0 is taken through the alternating segment-length limit.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    t = np.asarray(times, dtype=float)
    n_seg = t.size - 1
    coef = np.full(t.size, 2.0)
    coef[0] = 1.0
    coef[-1] = 1.0
    coef *= (-1.0) ** np.arange(t.size)
    out = np.empty_like(om)
    small = np.abs(om) * t[-1] < 1e-8
    big = ~small
    if np.any(big):
        pattern = np.sin(np.outer(om[big], t)) @ coef
        out[big] = (4.0 * zeta ** 2 * math.sin(alpha) ** 2 / om[big] ** 2) \
            * pattern ** 2
    if np.any(small):
        # limit of pattern/omega: sum of signed segment lengths
        signed = np.dot((-1.0) ** np.arange(n_seg), np.diff(t))
        out[small] = 4.0 * zeta ** 2 * math.sin(alpha) ** 2 * signed ** 2
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out[0])
    return out


# -- rotating-wave model of the constant transverse drive ---------------------


def _rwa_propagate(omega, B: float, g: float, T: float, zeta: float):
    """(psi, dpsi/dB) at T from |+> in the rotating-frame model, as rows
    (a, b) per omega.

    With u = zeta*B, delta = omega - 2g, r = hypot(u, delta) and
    theta = r*T/2, the propagator is U = cos(theta) - i sin(theta) n.sigma
    about the unit axis n = (-delta, 0, u)/r.  Its derivative in u is
    (T/2)(-sin(theta) n_z - i (cos(theta) - sinc(theta)) n_z n.sigma
    - i sinc(theta) Z), with sinc(theta) = sin(theta)/theta: no term
    divides by r, and at r = 0, where n is taken as 0, U = 1 and
    dU/du = -i (T/2) Z.
    """
    om = np.atleast_1d(np.asarray(omega, dtype=float))
    u = zeta * B
    delta = om - 2.0 * g
    r = np.hypot(u, delta)
    r_or_1 = np.where(r > 0.0, r, 1.0)  # at r = 0, u = delta = 0
    nx, nz = (-delta / r_or_1)[:, None], (u / r_or_1)[:, None]
    theta = 0.5 * T * r
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    sinc = np.sinc(theta / math.pi)[:, None]
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    z_plus = np.array([1.0, -1.0]) / math.sqrt(2.0)  # Z|+>
    n_plus = nx * plus + nz * z_plus  # (n.sigma)|+>, as X|+> = |+>
    psi = c * plus - 1j * s * n_plus
    dpsi = 0.5 * zeta * T * (-s * nz * plus - 1j * (c - sinc) * nz * n_plus
                             - 1j * sinc * z_plus)
    return psi, dpsi


def rwa_state(omega: float, B: float, g: float, T: float,
              zeta: float = 1.0) -> np.ndarray:
    """State (a, b) of the rotating-frame model at time T, from |+>.

    In the frame rotating with the g*X drive, the co-rotating half of the
    signal gives the static Hamiltonian (1/2)[[zeta*B, -(omega-2g)],
    [-(omega-2g), -zeta*B]]; its exponential applied to |+> is the
    standard two-level precession about a tilted axis.
    """
    return _rwa_propagate(omega, B, g, T, zeta)[0][0]


def rwa_qfi(omega, B: float, g: float, T: float, zeta: float = 1.0):
    """Exact QFI of the rotating-frame model, by differentiating the state.

    The propagator exp(-i*H_rwa*T) and its derivative in B are closed
    forms (see _rwa_propagate), so no approximate printed spectrum enters.
    At omega = 2g this reduces to (zeta*T)^2; for B -> 0 it tends to
    4*zeta^2*sin^2(delta*T/2)/delta^2 with delta = omega - 2g.  Vectorized
    over omega.
    """
    psi, dpsi = _rwa_propagate(omega, B, g, T, zeta)
    ov = np.einsum("ni,ni->n", dpsi.conj(), psi)
    dd = np.einsum("ni,ni->n", dpsi.conj(), dpsi).real
    out = 4.0 * (dd + (ov * ov).real)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out[0])
    return out


# -- the finite-difference oracle ---------------------------------------------


def qfi_fd_oracle(protocol, signal: SignalParams, omegas=None,
                  step: Optional[float] = None,
                  ode_tol: float = 1e-11) -> np.ndarray:
    """J(B | omega) over a frequency grid, with dpsi replaced by a central
    finite difference of psi over B.

    Verification-only reference path: it never touches the analytic
    derivative.  It takes the grid of qfi_vs_omega (without omegas, the
    signal's own omega) and returns J in the same shape.  It differences
    the states of _states at B +- h over the whole grid, and applies the
    same J rule and checks as qfi_vs_omega: for a sequence with
    initial_state None, (8/3)|dpsi|^2 of the column from |0>, which the
    SU(2) structure of the propagator makes the Haar average.  The
    difference quotients at h and h/2 are Richardson-extrapolated; a
    relative disagreement above 1e-4 between the two at any frequency
    raises RuntimeError, which names the worst one, flagging a too-large
    step.  A step that is not positive and finite is a ValueError.

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
    om = _grid(signal.omega if omegas is None else omegas)
    j_of, (psi, _) = _states(protocol, signal, om, ode_tol)
    # psi at B + h, B - h, B + h/2 and B - h/2
    p1, m1, p2, m2 = (_states(protocol, replace(signal, B=signal.B + s), om,
                              ode_tol)[1][0]
                      for s in (step, -step, 0.5 * step, -0.5 * step))
    d1, d2 = (p1 - m1) / (2.0 * step), (p2 - m2) / step
    j1, j2 = (_finite_j(j_of, (psi, d), om) for d in (d1, d2))
    gap = np.abs(j1 - j2) / np.maximum(np.abs(j1), np.abs(j2)).clip(1e-12)
    if gap.max(initial=0.0) > 1e-4:
        worst = int(np.argmax(gap))
        raise RuntimeError(
            f"finite-difference step {step} too large: h vs h/2 estimates "
            f"differ by {gap[worst]:.2e} at omega = {om[worst]}")
    return _finite_j(j_of, (psi, (4.0 * d2 - d1) / 3.0), om)


# -- GHZ registers -------------------------------------------------------------


def tensor_ghz_qfi(n, times, flips, signal: SignalParams) -> float:
    """J of an n-qubit register from (|0...0> + |1...1>)/sqrt(2), by dense
    2^n evolution at the signal's own frequency and field, differentiated
    by the product rule: each segment [times[i], times[i+1]] is
    exp(-i zeta B Theta_i sum_q Z_q), followed by the collective flip
    X^(x)n where flips[i] is true."""
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
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    dpsi = np.zeros_like(psi)
    for i in range(len(times) - 1):
        th = theta(times[i], times[i + 1], signal.omega, signal.phi)
        u = np.diag(np.exp(-1j * signal.zeta * signal.B * th * np.diag(zsum)))
        dpsi = u @ dpsi + (-1j * signal.zeta * th) * (zsum @ (u @ psi))
        psi = u @ psi
        if flips is not None and i < len(flips) and flips[i]:
            psi, dpsi = xall @ psi, xall @ dpsi
    ov = np.vdot(dpsi, psi)
    return float(4.0 * (np.vdot(dpsi, dpsi).real + (ov * ov).real))


# -- the toggling frame -------------------------------------------------------


def _bloch_z(u):
    """Bloch vector r of u^dag Z u = r.sigma."""
    m = u.conj().T @ np.diag([1.0, -1.0]) @ u
    return np.array([m[0, 1].real, -m[0, 1].imag, m[0, 0].real])


def frame_r(seq) -> np.ndarray:
    """r_k of a pulse sequence's toggling frame as rows: z before the first
    pulse, then r of u^dag Z u for the running product u = U_k ... U_1 of
    each pulse's own unitary, one pulse at a time."""
    u, r = np.eye(2), [np.array([0.0, 0.0, 1.0])]
    for p in seq.pulses:
        u = p.unitary @ u
        r.append(_bloch_z(u))
    return np.array(r)
