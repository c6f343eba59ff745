"""Signal parameterization and the accumulated-phase kernel.

A monochromatic field B*cos(omega*t + phi) couples to the sensor's Z axis
with gyromagnetic factor zeta.  Free evolution between times t0 and t1
advances the relative phase of the two Z eigenstates by 2*zeta*B*Theta,
where Theta is the time integral of cos(omega*t + phi).  theta computes it
elementwise over arrays of interval ends and frequencies; it is the one
kernel that every protocol's evolution uses.  Everything here uses angular
frequencies (rad/s), times in seconds, and hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignalParams",
    "theta",
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
