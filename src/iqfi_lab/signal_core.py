"""Signal parameterization and the accumulated-phase kernel.

A monochromatic field B*cos(omega*t + phi) couples to the sensor's Z axis
with gyromagnetic factor zeta.  Free evolution between times t0 and t1
advances the relative phase of the two Z eigenstates by 2*zeta*B*Theta,
where Theta is the time integral of cos(omega*t + phi),

    Theta = (sin(omega*t1 + phi) - sin(omega*t0 + phi))/omega.

The evolution of pulse sequences and continuous drives asks for Theta of
consecutive segments over one frequency array; _segment_thetas yields
those, carrying the phase exp(i*(omega*t + phi)) from segment to segment
so that a segment as long as the one before it costs two complex
multiplications and no transcendental.  _run_thetas gives a run of equal
segments at once, by the same recurrence vectorized over the run.  The
closed-form Theta that both are checked against is in tests/oracles.py.
Everything here uses angular frequencies (rad/s), times in seconds, and
hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SignalParams",
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
        frequency, rad/s per field unit.  Must be > 0, and zeta*B finite.
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
        if not math.isfinite(self.zeta * self.B):
            raise ValueError(f"zeta*B must be finite, got zeta {self.zeta} "
                             f"and B {self.B}")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


# z is evaluated afresh at a segment's start after this many recurrence
# steps, so its rounding grows over at most 2*_RESEED_STRIDE multiplications
_RESEED_STRIDE = 16


def _unit_phase(z, scratch, omega, t, phi):
    """z <- exp(i*(omega*t + phi)) in place, with scratch as a real buffer."""
    np.multiply(omega, t, out=scratch)
    scratch += phi
    np.cos(scratch, out=z.real)
    np.sin(scratch, out=z.imag)


def _half_step(h, s, scratch, omega, d):
    """h <- exp(i*omega*d/2) and s <- d*sinc(omega*d/2) = d*Im(h)/(omega*d/2)
    in place, with scratch as a real buffer; s = d where omega*d/2 is 0."""
    np.multiply(omega, 0.5 * d, out=scratch)
    np.cos(scratch, out=h.real)
    np.sin(scratch, out=h.imag)
    s.fill(1.0)
    np.divide(h.imag, scratch, out=s, where=scratch != 0.0)
    s *= d


def _segment_thetas(edges, omega, phi, widths=None):
    """Theta over the frequency array omega of each segment
    [edges[k], edges[k+1]] in turn, or None for a segment of zero width.

    widths (default the differences of edges) are the segment lengths.
    Every segment goes through the phase recurrence: z = exp(i*(omega*t +
    phi)) is carried from the segment's start to its midpoint and end by
    two multiplications with h = exp(i*omega*d/2), and Theta = s*Re(z) at
    the midpoint, with s = d*sinc(omega*d/2).  h and s are held for one
    length at a time and recomputed in place when the length changes, so a
    run of equal segments costs no transcendental.  z is evaluated afresh
    at the segment's start every _RESEED_STRIDE segments.  The array
    yielded is reused for the next segment.
    """
    edges = np.asarray(edges, dtype=float)
    widths = (np.diff(edges) if widths is None
              else np.asarray(widths, dtype=float))
    om = np.asarray(omega, dtype=float)
    z = np.empty(om.shape, dtype=complex)
    h = np.empty(om.shape, dtype=complex)
    s = np.empty(om.shape)
    buf = np.empty(om.shape)
    held = None  # the length whose h and s are held
    run = _RESEED_STRIDE  # segments since z was evaluated; z is unset here
    for k, d in enumerate(widths):
        if d == 0.0:
            yield None
            continue
        if d != held:
            _half_step(h, s, buf, om, d)
            held = d
        if run == _RESEED_STRIDE:
            _unit_phase(z, buf, om, edges[k], phi)
            run = 0
        z *= h
        np.multiply(z.real, s, out=buf)
        z *= h
        run += 1
        yield buf


def _run_thetas(start, d, k0, k1, omega, phi):
    """Theta over the frequency array omega of the segments [start + k*d,
    start + (k+1)*d] for k = k0, ..., k1 - 1, as an array of shape
    (k1 - k0, omega.size).

    The phase recurrence of _segment_thetas, vectorized over the run: z
    is evaluated afresh at the start of every _RESEED_STRIDE-th segment,
    and carried to the midpoints between by the powers h^1, h^3, ... of
    h = exp(i*omega*d/2), one cumulative product per run.
    """
    om = np.asarray(omega, dtype=float)
    stride = min(_RESEED_STRIDE, k1 - k0)
    h = np.empty((2 * stride, om.size), dtype=complex)
    s = np.empty(om.size)
    _half_step(h[0], s, np.empty(om.size), om, d)
    h[1:] = h[0]
    np.cumprod(h, axis=0, out=h)
    seeds = np.arange(k0, k1, _RESEED_STRIDE)[:, None] * d + start
    z = np.empty((seeds.shape[0], om.size), dtype=complex)
    _unit_phase(z, np.empty(z.shape), om, seeds, phi)
    mid = z[:, None, :] * h[0::2]
    return mid.reshape(-1, om.size)[:k1 - k0].real * s
