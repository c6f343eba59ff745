"""Signal parameterization and the accumulated-phase kernel.

A monochromatic field B*cos(omega*t + phi) couples to the sensor's Z axis
with gyromagnetic factor zeta.  Free evolution between times t0 and t1
advances the relative phase of the two Z eigenstates by 2*zeta*B*Theta,
where Theta is the time integral of cos(omega*t + phi).  Everything here
uses angular frequencies (rad/s), times in seconds, and hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignalParams",
    "TimeInterval",
    "theta",
    "theta_vector",
]


@dataclass(frozen=True)
class SignalParams:
    """Monochromatic signal and coupling.

    Parameters
    ----------
    B : float
        Field amplitude (the parameter being estimated), in field units.
        Must be finite.
    omega : float
        Signal angular frequency, rad/s.  Must be finite and >= 0.
    phi : float
        Signal phase offset, rad.
    zeta : float
        Coupling (gyromagnetic) factor converting field to angular
        frequency, rad/s per field unit.  Must be > 0.
    """

    B: float
    omega: float
    phi: float = 0.0
    zeta: float = 1.0

    def __post_init__(self):
        for name in ("B", "omega", "zeta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.omega < 0.0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if self.zeta <= 0.0:
            raise ValueError(f"zeta must be > 0, got {self.zeta}")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True)
class TimeInterval:
    """Half-open lab-time interval [t0, t1] with t1 >= t0 >= 0."""

    t0: float
    t1: float

    def __post_init__(self):
        if self.t0 < 0.0 or self.t1 < self.t0:
            raise ValueError(
                f"require 0 <= t0 <= t1, got t0={self.t0}, t1={self.t1}"
            )

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def _theta_raw(t0, t1, omega, phi):
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


def _theta_taylor(t0, t1, omega, phi):
    """Three-term small-omega expansion; retained for the switchover check."""
    c, s = np.cos(phi), np.sin(phi)
    out = (t1 - t0) * c
    out = out - 0.5 * omega * (t1 * t1 - t0 * t0) * s
    out = out - (omega * omega / 6.0) * (t1 ** 3 - t0 ** 3) * c
    return out


def theta(interval: TimeInterval, signal: SignalParams) -> float:
    """Accumulated-phase kernel for one free-evolution interval.

    Returns the integral of cos(omega*t + phi) over the interval, i.e.
    (sin(omega*t1 + phi) - sin(omega*t0 + phi)) / omega, with the omega -> 0
    limit (t1 - t0)*cos(phi) taken smoothly.

    Satisfies |theta| <= min(t1 - t0, 2/omega) and additivity
    theta(t0, t2) = theta(t0, t1) + theta(t1, t2).

    Examples
    --------
    >>> theta(TimeInterval(0.0, 1.0), SignalParams(B=0.0, omega=np.pi / 2))
    0.6366197723675814
    """
    return float(_theta_raw(interval.t0, interval.t1, signal.omega, signal.phi))


def theta_vector(times, signal: SignalParams) -> np.ndarray:
    """Per-segment kernels for consecutive boundary times.

    Parameters
    ----------
    times : sequence of float
        Non-decreasing segment boundaries; equal adjacent entries give a
        zero-duration segment with kernel 0.
    signal : SignalParams

    Returns
    -------
    ndarray of shape (len(times) - 1,)
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("times must be a 1-d sequence with at least 2 entries")
    if np.any(np.diff(t) < 0.0):
        raise ValueError("times must be non-decreasing")
    return _theta_raw(t[:-1], t[1:], signal.omega, signal.phi)
