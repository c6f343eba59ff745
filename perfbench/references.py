"""Reference values the benchmark checks the program's outputs against.

Nothing here imports iqfi_lab: every value is derived from the physics in
this file, so a fault in the program cannot also move its own reference.
scipy is imported lazily by `drive_spectrum`, after the timed cases.

Conventions follow the program: hbar = 1, the signal B cos(omega t + phi)
couples through zeta*Z, a state is cos(alpha/2)|0> + e^{i beta} sin(alpha/2)|1>,
and K = integral over omega in [0, inf) of the quantum Fisher information J.
"""

from __future__ import annotations

import math

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
AXES = {"x": SX, "y": SY, "z": SZ}

# Bloch angles (alpha, beta) of the six Pauli eigenstates: a 2-design, so
# their mean of any polynomial of degree (2, 2) in (psi0, psi0*) -- such as
# J -- equals the Haar average.
PAULI_STATES = (
    (0.0, 0.0), (math.pi, 0.0),
    (math.pi / 2, 0.0), (math.pi / 2, math.pi),
    (math.pi / 2, math.pi / 2), (math.pi / 2, 1.5 * math.pi),
)


def bloch(alpha: float, beta: float) -> np.ndarray:
    return np.array([math.cos(alpha / 2),
                     complex(math.cos(beta), math.sin(beta)) * math.sin(alpha / 2)])


def rotation(axis: str, angle: float) -> np.ndarray:
    """exp(-i angle/2 sigma_axis)."""
    return (math.cos(angle / 2) * np.eye(2)
            - 1j * math.sin(angle / 2) * AXES[axis])


def theta(t0, t1, omega, phi=0.0):
    """Integral of cos(omega t + phi) over [t0, t1], elementwise in omega."""
    om = np.asarray(omega, dtype=float)
    safe = np.where(om == 0.0, 1.0, om)
    out = (np.sin(safe * t1 + phi) - np.sin(safe * t0 + phi)) / safe
    return np.where(om == 0.0, (t1 - t0) * math.cos(phi), out)


# -- zero-field pulse trains: the filter-function form -------------------------


def train_k_zero_field(times, total_time, matrices, psi0, zeta=1.0) -> float:
    """K at B = 0, phi = 0 for instantaneous pulses `matrices` at `times`.

    At B = 0, J = 4 zeta^2 Theta^T C Theta with C the covariance of the
    toggling-frame operators Zk = Uk^dag Z Uk in the initial state, and at
    phi = 0 the omega-integral of Theta_k Theta_l is (pi/2) delta_kl len_k
    (Degen, Reinhard & Cappellaro, RMP 89, 035002, 2017).  With Zk^2 = 1:

        K = 2 pi zeta^2 sum_k len_k (1 - <Zk>^2).
    """
    edges = np.concatenate(([0.0], np.asarray(times, dtype=float),
                            [total_time]))
    state = np.asarray(psi0, dtype=complex)
    total = 0.0
    for k, length in enumerate(np.diff(edges)):
        if k > 0:
            state = matrices[k - 1] @ state
        z = float(np.vdot(state, SZ @ state).real)
        total += length * (1.0 - z * z)
    return 2.0 * math.pi * zeta ** 2 * total


def ramsey_k(T: float, phi: float, zeta=1.0) -> float:
    """K of free precession from |+> at B = 0: 2 zeta^2 T (pi - ln 4 sin 2phi)."""
    return 2.0 * zeta ** 2 * T * (math.pi - math.log(4.0) * math.sin(2 * phi))


def ghz_k(n: int, T: float, zeta=1.0) -> float:
    """K of an n-qubit GHZ register at B = 0, phi = 0, flips or not."""
    return 2.0 * math.pi * n * n * zeta ** 2 * T


# -- caps and floors -----------------------------------------------------------


def segment_cap(segments: int, T: float, zeta=1.0) -> float:
    """K <= 2 pi N zeta^2 T for N free-evolution segments (phi = 0)."""
    return 2.0 * math.pi * segments * zeta ** 2 * T


def weak_field_cap(T: float, B: float, zeta=1.0) -> float:
    """K <= 2 pi zeta^2 T + 40 pi zeta^4 B^2 T^3, for zeta B T <= 0.5."""
    return 2.0 * math.pi * zeta ** 2 * T + 40.0 * math.pi * zeta ** 4 * B * B * T ** 3


def rwa_band_floor(T: float, B: float, g: float, zeta=1.0) -> float:
    """Floor on the band integral of J over [g, 3g] for the drive g X.

    The rotating-frame model's resonance at omega = 2g has a squared
    Lorentzian envelope; its integral over the band is
    zeta^2 T^2 (g / (1 + g^2/u^2) + u arctan(g/u)) with u = zeta B.
    """
    u = zeta * B
    return zeta ** 2 * T * T * (g / (1.0 + g * g / (u * u)) + u * math.atan2(g, u))


# -- continuous drive: an independent ODE integration --------------------------


def drive_spectrum(g, T, B, omegas, phi=0.0, zeta=1.0, rtol=1e-12):
    """J(omega) of the drive g X from |+>, by scipy DOP853 per frequency.

    Integrates (psi, dpsi/dB) under H = zeta B cos(omega t + phi) Z + g X,
    with d(dpsi)/dt = -i H dpsi - i zeta cos(omega t + phi) Z psi, and
    returns 4 (<dpsi|dpsi> - |<psi|dpsi>|^2).
    """
    from scipy.integrate import solve_ivp

    out = np.empty(len(omegas))
    y0 = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / math.sqrt(2.0)
    for i, om in enumerate(omegas):
        def rhs(t, y, om=float(om)):
            c = math.cos(om * t + phi)
            zb = zeta * B * c
            a, b, da, db = y
            return np.array([
                -1j * (zb * a + g * b),
                -1j * (g * a - zb * b),
                -1j * (zb * da + g * db) - 1j * zeta * c * a,
                -1j * (g * da - zb * db) + 1j * zeta * c * b,
            ])

        sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=rtol,
                        atol=rtol * 1e-2)
        psi, dpsi = sol.y[:2, -1], sol.y[2:, -1]
        ov = np.vdot(psi, dpsi)
        out[i] = 4.0 * (np.vdot(dpsi, dpsi).real - abs(ov) ** 2)
    return out


# -- small helpers -------------------------------------------------------------


def six_state_mean(k_of_state) -> float:
    """Mean of k_of_state((alpha, beta)) over the six Pauli eigenstates."""
    return float(np.mean([k_of_state(s) for s in PAULI_STATES]))


def loglog_slope(Ts, Ks) -> float:
    return float(np.polyfit(np.log(Ts), np.log(Ks), 1)[0])
