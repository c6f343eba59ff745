"""Closed forms and bounds for sensing performance.

Everything here is an independent analytic expression: no function in this
module calls the evolution or quadrature code, so that measured numbers and
reference numbers come from separate routes.  It reads the protocol types
only to decide, in `applicable`, which bound holds where.  Each function
says whether its statement is proved, and how, or only checked.  It holds
only what `applicable` and the bound battery use; the references that the
tests alone check against (the pi train's spectrum, the rotating-frame
model of the drive) are in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .protocol import GhzProtocol, PulseSequence, TransverseDrive

__all__ = [
    "BoundReport",
    "report_bound",
    "report_equality",
    "report_lower_bound",
    "ramsey_closed_form",
    "b0_linear_bound",
    "n_pulse_bound",
    "ghz_scaling",
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


# -- protocol-independent bounds ----------------------------------------------


def b0_linear_bound(T: float, B: float, zeta: float = 1.0) -> float:
    """Small-field cap on K for arbitrary pulse protocols at phi = 0:

        K <= 2*pi*zeta^2*T + 40*pi*zeta^4*B^2*T^3

    Exact at B = 0; the cubic term is the perturbative allowance, valid for
    zeta*B*T well below 1.  Checked, not proved: acceptance check 06 and
    the bound battery hold it on random sequences at zeta*B*T <= 0.1.
    """
    # zeta*B, finite by SignalParams, keeps zeta^4 from overflowing first
    return (2.0 * math.pi * zeta ** 2 * T
            + 40.0 * math.pi * (zeta * (zeta * B)) ** 2 * T ** 3)


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
    about x, so K is a pi train's 2*pi*(n*zeta)^2*T.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base = 2.0 * math.pi * zeta ** 2 * T
    return n * n * base, n * base


# -- the constant transverse drive --------------------------------------------


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
    # u*u underflows to 0 below u ~ 1.5e-162, where g^2/u^2 is infinite
    ratio = g * g / (u * u) if u * u else math.inf
    return zeta ** 2 * T ** 2 * (
        g / (1.0 + ratio) + u * math.atan2(g, u)
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
