"""Closed-form references and bounds for sensing performance.

Everything here is an independent analytic expression: no function in this
module calls the evolution or quadrature code, so that measured numbers and
reference numbers come from separate routes.  It reads the protocol types
only to decide, in `applicable`, which bound holds where.  Each function
says whether its statement is proved, and how, or only checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .protocol import GhzProtocol, PulseSequence, TransverseDrive

__all__ = [
    "BoundReport",
    "report_bound",
    "report_equality",
    "report_lower_bound",
    "ramsey_closed_form",
    "pi_train_closed_form",
    "pi_train_qfi",
    "b0_linear_bound",
    "n_pulse_bound",
    "ghz_scaling",
    "rwa_qfi",
    "rwa_state",
    "rwa_iqfi_lower_bound",
    "applicable",
]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking a measured value against a bound or reference.

    margin is relative: (bound - measured)/|bound| for upper bounds,
    (measured - floor)/|floor| for lower bounds, and
    tolerance - |measured - reference|/|reference| for equalities, so a
    nonnegative margin always means "satisfied with that much room".
    """

    name: str
    kind: str  # "upper_bound", "lower_bound" or "equality"
    measured: float
    reference: float
    satisfied: bool
    margin: float
    tolerance: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def report_bound(name: str, measured: float, bound: float,
                 slack: float = 0.0) -> BoundReport:
    """Check measured <= bound, allowing `slack` of absolute measurement
    error; protocols that saturate a cap exactly would otherwise flip the
    verdict on integration noise."""
    scale = max(abs(bound), 1e-300)
    margin = (bound - measured) / scale
    return BoundReport(name=name, kind="upper_bound", measured=measured,
                       reference=bound, satisfied=measured <= bound + slack,
                       margin=margin, tolerance=slack / scale)


def report_lower_bound(name: str, measured: float,
                       floor: float) -> BoundReport:
    """Check measured >= floor."""
    return BoundReport(name=name, kind="lower_bound", measured=measured,
                       reference=floor, satisfied=measured >= floor,
                       margin=(measured - floor) / max(abs(floor), 1e-300))


def report_equality(name: str, measured: float, reference: float,
                    tolerance: float) -> BoundReport:
    scale = max(abs(reference), 1e-300)
    rel = abs(measured - reference) / scale
    return BoundReport(name=name, kind="equality", measured=measured,
                       reference=reference, satisfied=rel <= tolerance,
                       margin=tolerance - rel, tolerance=tolerance)


# -- free-evolution protocols -------------------------------------------------


def ramsey_closed_form(T: float, phi: float = 0.0, zeta: float = 1.0) -> float:
    """K for free evolution over [0, T] from |+>:

        K = 2*zeta^2*T*(pi - ln(4)*sin(2*phi))

    phi = 0 gives 2*pi*zeta^2*T; the phase average also gives 2*pi*zeta^2*T.
    """
    return 2.0 * zeta * zeta * T * (math.pi - math.log(4.0) * math.sin(2.0 * phi))


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


# -- protocol-independent bounds ----------------------------------------------


def b0_linear_bound(T: float, B: float, zeta: float = 1.0) -> float:
    """Small-field cap on K for arbitrary pulse protocols at phi = 0:

        K <= 2*pi*zeta^2*T + 40*pi*zeta^4*B^2*T^3

    Exact at B = 0; the cubic term is the perturbative allowance, valid for
    zeta*B*T well below 1.  Checked, not proved: acceptance check 06 and
    the bound battery hold it on random sequences at zeta*B*T <= 0.1.
    """
    return 2.0 * math.pi * zeta ** 2 * T + 40.0 * math.pi * zeta ** 4 * B ** 2 * T ** 3


def n_pulse_bound(N: int, T: float, zeta: float = 1.0) -> float:
    """K <= 2*pi*N*zeta^2*T for protocols with N free-evolution segments.

    Proved at phi = 0, for any B.  In segment k the field commutes with Z,
    so the toggling-frame axis r_k of Z is constant there, and
    J <= 4 zeta^2 |sum_k Theta_k r_k|^2 <= 4 zeta^2 N sum_k Theta_k^2 by
    Cauchy-Schwarz.  At phi = 0, Theta_k = (sin(omega b_k) -
    sin(omega a_k))/omega, whose square integrates over omega to
    (pi/2)*len_k; the lengths sum to T.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return 2.0 * math.pi * N * zeta ** 2 * T


def ghz_scaling(n: int, T: float, zeta: float = 1.0):
    """(entangled, separable) = (2*pi*n^2*zeta^2*T, 2*pi*n*zeta^2*T).

    The first is the n-qubit GHZ value, the second the cap for n unentangled
    qubits measured in parallel.  The entangled value is exact, proved at
    B = phi = 0: in the {|0...0>, |1...1>} plane the register is one qubit
    from |+> with coupling n*zeta, and its collective flips are pi pulses
    about x, so K is a pi train's 2*pi*(n*zeta)^2*T (pi_train_closed_form).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = 2.0 * math.pi * zeta ** 2 * T
    return n * n * base, n * base


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


def rwa_iqfi_lower_bound(T: float, B: float, g: float,
                         zeta: float = 1.0) -> float:
    """Band-limited floor on K from the resonance peak of the driven qubit:

        K >= zeta^2*T^2*(g/(1 + g^2/(zeta*B)^2) + zeta*B*arctan(g/(zeta*B)))

    obtained by integrating the squared-Lorentzian envelope of the
    rotating-frame spectrum over [g, 3g].  Requires zeta*|B|*T well above
    1 for the envelope to hold.  Checked, not proved: the envelope is the
    model's, and the bound battery checks the floor against the band
    integral of the drive itself.  J is even in B (conjugating by X flips the
    field and leaves |+> alone), so the floor takes |B|.
    """
    u = zeta * abs(B)
    if u == 0.0:
        return 0.0
    return zeta ** 2 * T ** 2 * (
        g / (1.0 + g * g / (u * u)) + u * math.atan2(g, u)
    )


# -- which bound holds where ---------------------------------------------------


def applicable(protocol, signal, k: float, k_err: float) -> list[BoundReport]:
    """The report of every bound above that holds for protocol under
    signal, checked against a measured K of k with error k_err, in this
    order and on these domains:

    - segment_count_cap, n_pulse_bound of the segment count, with slack
      k_err: a PulseSequence at phi = 0, any B.
    - small_field_cap, b0_linear_bound, with slack k_err: a PulseSequence
      at phi = 0 with zeta*|B|*T <= 0.5.
    - ghz_entangled_value, ghz_scaling's entangled value to 1 %: a
      GhzProtocol at B = phi = 0.
    - resonance_band_floor, rwa_iqfi_lower_bound: a TransverseDrive where
      the floor is positive, so B != 0; a floor of 0 bounds nothing.

    Both caps hold at phi = 0 only: a single tilted-phase segment already
    reaches 2 zeta^2 T (pi + ln 4), above the flat cap.  Any other
    protocol, a PiecewiseGenerator among them, gets no report.
    """
    reports = []
    T = float(protocol.total_time)
    z = signal.zeta
    if isinstance(protocol, PulseSequence) and signal.phi == 0.0:
        n_seg = protocol.segment_count()
        reports.append(report_bound(
            "segment_count_cap", k, n_pulse_bound(n_seg, T, zeta=z),
            slack=k_err))
        if z * abs(signal.B) * T <= 0.5:
            reports.append(report_bound(
                "small_field_cap", k, b0_linear_bound(T, signal.B, zeta=z),
                slack=k_err))
    elif isinstance(protocol, GhzProtocol) and signal.B == 0.0 \
            and signal.phi == 0.0:
        reports.append(report_equality(
            "ghz_entangled_value", k, ghz_scaling(protocol.n, T, zeta=z)[0],
            tolerance=0.01))
    elif isinstance(protocol, TransverseDrive):
        floor = rwa_iqfi_lower_bound(T=T, B=signal.B, g=protocol.g, zeta=z)
        if floor > 0.0:
            reports.append(report_lower_bound("resonance_band_floor", k,
                                              floor))
    return reports
