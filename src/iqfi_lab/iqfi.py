"""Frequency integration of QFI spectra.

K(T) = integral of J(B | omega) over omega in [0, inf).  The integrand
oscillates on the scale pi/T, so the finite range [0, Omega] is cut into
panels of that width.  All base panels are laid out as arrays, one row per
panel, and evaluated in one batched call: a two-half Gauss rule of order
16 gives each panel's value, the whole-panel rule its discrepancy.  Only
if the summed discrepancy misses the tolerance does the panel count double,
every panel evaluated again in one batch, until it fits or the panel budget
runs out.  Beyond Omega, J tends to the toggling-frame (filter-
function) form (4 zeta^2/omega^2) sum_jl D_jl sin(omega a_j + phi)
sin(omega a_l + phi): a_j are the times where Z~ = U0^dag Z U0 of the
control alone jumps, D the jumps' covariance in the initial state.  Its
integral, in sine and cosine integrals, is the tail.  For pulse sequences
at B = 0 and GHZ registers at any B that form is J itself at every omega,
so K is its integral from omega = 0, a closed form with no panels at all.
The average of K over Haar-random initial states is exact: a closed form
at zero field, elsewhere a trace formula integrated on one node set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .evolution import IntegrationError, discrete_propagators, qfi_vs_omega
from .evolution import _check_ode_tol, _check_sequence, _drive_pieces, _su2_exp
from .protocol import ContinuousControl, GhzProtocol, PulseSequence
from .signal_core import SignalParams

GAUSS_ORDER = 16
ABS_TOL = 1e-12  # absolute floor of the summed panel discrepancy
# a free segment no longer than this fraction of T (16 ulps) is rounding,
# as a pulse time k*(T/m) can leave before T, not a segment: it does not
# raise a protocol's feature scale
_ULP_SEGMENT = 16.0 * np.finfo(float).eps
# rounding bound of the zero-field closed form, per unit of the sum of its
# terms' magnitudes (see _zero_field_k)
_FORM_ROUNDING = 16.0 * np.finfo(float).eps
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)

__all__ = [
    "QuadratureConfig",
    "QfiSpectrum",
    "feature_scale",
    "QuadratureNonConvergence",
    "HaarResult",
    "SweepPoint",
    "SweepResult",
    "integrate_iqfi",
    "integrate_qfi_band",
    "cross_spectral_integral",
    "haar_average_iqfi",
    "sweep_iqfi_vs_T",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance, tail start and panel budget of the frequency integration."""

    rel_tol: float = 1e-6
    tail_start_factor: float = 40.0
    max_panels: int = 8192

    def __post_init__(self):
        for name in ("rel_tol", "tail_start_factor"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(
                    f"{name} must be positive and finite, got {val}")
        if self.max_panels < 1:
            raise ValueError("max_panels must be >= 1")


@dataclass(frozen=True, eq=False)
class QfiSpectrum:
    """Sampled spectrum plus its integral.

    omegas/values are every retained quadrature node in increasing omega,
    and weights their quadrature weights, so values @ weights is the
    integral over the panels.  integral adds the closed-form tail,
    tail_coefficient/tail_start; a band integral has no tail and
    tail_start is inf.  error_estimate sums the panel discrepancies, a
    bound on the tail's error (0 where the tail is exact; see _tail) and
    1e-14 of |integral| for rounding.

    method is "quadrature" for that, or "closed_form" where the whole of
    K is the boundary form integrated from omega = 0 (pulse sequences at
    B = 0, GHZ registers at any B): omegas, values and weights are then
    empty, tail_start is still tail_start_factor times the feature scale,
    tail_coefficient is integral*tail_start, and error_estimate bounds
    the rounding of the form's sum.
    """

    omegas: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    integral: float
    error_estimate: float
    tail_coefficient: float
    tail_start: float
    method: str = "quadrature"


class QuadratureNonConvergence(RuntimeError):
    """Panel budget exhausted; .partial carries the best estimate so far."""

    def __init__(self, message: str, partial: Optional[QfiSpectrum] = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class HaarResult:
    """Exact initial-state average of K.

    method is "closed_form" (B = 0) or "trace_formula".  The
    average is exact, so stderr is 0.0 and samples 0; both fields stay
    for readers of the earlier Monte Carlo result.
    """

    value: float
    stderr: float
    method: str
    samples: int


@dataclass(frozen=True)
class SweepPoint:
    T: float
    K: float
    K_err: float
    failed: bool = False


@dataclass(frozen=True)
class SweepResult:
    points: tuple
    slope: float
    slope_window: tuple


# -- panel machinery ----------------------------------------------------------


def _panels(f, a, b):
    """Panels [a_i, b_i], one row each, from one batched call to f.

    Returns (nodes, values, weights, value, error): the two-half Gauss
    rule's nodes, values and weights per row, the panel value, and its
    discrepancy against the whole-panel rule.
    """
    lo, hi = a[:, None], b[:, None]
    mid = 0.5 * (lo + hi)
    nodes = np.hstack([0.5 * (mid - lo) * _NODES + 0.5 * (lo + mid),
                       0.5 * (hi - mid) * _NODES + 0.5 * (mid + hi)])
    weights = np.hstack([0.5 * (mid - lo) * _WEIGHTS,
                         0.5 * (hi - mid) * _WEIGHTS])
    coarse = 0.5 * (hi - lo) * _NODES + 0.5 * (lo + hi)
    coarse_w = 0.5 * (hi - lo) * _WEIGHTS
    out = np.asarray(f(np.concatenate([nodes.ravel(), coarse.ravel()])),
                     dtype=float)
    values = out[:nodes.size].reshape(nodes.shape)
    fine = _row_dot(weights, values)
    whole = _row_dot(coarse_w, out[nodes.size:].reshape(coarse.shape))
    return nodes, values, weights, fine, np.abs(fine - whole)


def _row_dot(x, y):
    """Per-row dot products; each row is one BLAS dot, as np.dot would do."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _integrate_adaptive(f, lo, hi, width, cfg: QuadratureConfig,
                        tail=None) -> QfiSpectrum:
    """Shared core: panel-refined integral of f over [lo, hi].

    n = ceil((hi - lo)/width) equal panels are evaluated in one batch.
    While their summed discrepancy misses max(ABS_TOL, rel_tol*|value|), n
    doubles and every panel is evaluated again.  Past max_panels it raises
    QuadratureNonConvergence with the last spectrum as its partial, None
    if even the base panels are too many.  tail is (value, error bound) of
    the integral of f over [hi, inf), added to the integral and to the
    error estimate; without one, tail_start is inf.
    """
    tail_value, tail_err = tail or (0.0, 0.0)
    n = max(1, int(math.ceil((hi - lo) / width)))
    spec = None
    while n <= cfg.max_panels:
        edges = np.linspace(lo, hi, n + 1)
        nodes, values, weights, pv, pe = _panels(f, edges[:-1], edges[1:])
        # exact sums, so that results are bit-stable
        value, err = math.fsum(pv), math.fsum(pe)
        k = float(value + tail_value)
        spec = QfiSpectrum(omegas=nodes.ravel(), values=values.ravel(),
                           weights=weights.ravel(), integral=k,
                           error_estimate=float(err + tail_err
                                                + 1e-14 * abs(k)),
                           tail_coefficient=tail_value * hi,
                           tail_start=hi if tail else math.inf)
        # a NaN discrepancy stops here too: more panels cannot cure it
        if not err > max(ABS_TOL, cfg.rel_tol * abs(value)):
            return spec
        n *= 2
    raise QuadratureNonConvergence(
        f"{n} panels exceed max_panels={cfg.max_panels}; raise max_panels "
        "or rel_tol", partial=spec)


# -- the analytic tail --------------------------------------------------------


def _sici_tail(x):
    """(pi/2 - Si(x), Ci(x)) for an array of x > 0, to about 1e-15: below
    x = 4 the series sum_n (ix)^n/(n n!), above it the continued fraction
    exp(ix) E1(ix) = 1/(1+ix - 1/(3+ix - 4/(5+ix - ...))) (modified Lentz)."""
    x = np.asarray(x, dtype=float)
    si_c, ci = np.empty_like(x), np.empty_like(x)
    lo = x < 4.0
    if lo.any():
        y = x[lo]
        term, total = 1.0 + 0j * y, 0j * y
        for n in range(1, 40):
            term *= 1j * y / n
            total += term / n
        si_c[lo] = 0.5 * math.pi - total.imag
        ci[lo] = 0.5772156649015329 + np.log(y) + total.real  # Euler gamma
    if not lo.all():
        y = x[~lo]
        b = 1.0 + 1j * y
        h = d = 1.0 / b
        c = np.full_like(b, 1e300)
        for i in range(1, 200):  # x >= 4 converges within 50 terms
            b = b + 2.0
            d = 1.0 / (b - i * i * d)
            c = b - i * i / c
            step = c * d
            h = h * step
            if np.abs(step - 1.0).max() < 4e-16:
                break
        h = h * np.exp(-1j * y)  # E1(iy) = -Ci(y) - i (pi/2 - Si(y))
        si_c[~lo], ci[~lo] = -h.imag, -h.real
    return si_c, ci


def _cos_tail(c, psi, omega_max):
    """Integral of cos(c*omega + psi)/omega^2 over [Omega, inf), elementwise:
    cos(c Omega + psi)/Omega - c (cos psi (pi/2 - Si(c Omega)) - sin psi
    Ci(c Omega)); c < 0 is |c| with -psi, and c = 0 is cos(psi)/Omega (its
    Si/Ci argument is a stand-in, 1e6, where the fraction is quick)."""
    psi = np.where(c < 0.0, -psi, psi)
    c = np.abs(c)
    si_c, ci = _sici_tail(np.where(c > 0.0, c * omega_max, 1e6))
    return (np.cos(c * omega_max + psi) / omega_max
            - c * (np.cos(psi) * si_c - np.sin(psi) * ci))


def _boundary_tail(a, D, phi, omega_max):
    """Integral over [Omega, inf) of sum_jl D_jl sin(omega a_j + phi)
    sin(omega a_l + phi)/omega^2: half the sum over pairs of the cosine
    tails at a_j - a_l and at a_j + a_l with phase 2 phi."""
    a = np.asarray(a, dtype=float)
    g = _cos_tail(np.stack([a[:, None] - a, a[:, None] + a]),
                  np.array([0.0, 2.0 * phi])[:, None, None], omega_max)
    return 0.5 * float(np.sum(D * (g[0] - g[1])))


def _bloch_z(u):
    """Bloch vector r of u^dag Z u = r.sigma."""
    m = u.conj().T @ np.diag([1.0, -1.0]) @ u
    return np.array([m[0, 1].real, -m[0, 1].imag, m[0, 0].real])


def _jumps(protocol, zeta: float, haar: bool = False):
    """(a, Q, D, zeta, rate): the boundary form of a protocol.

    Q_j is the jump (r before minus r after; r = 0 outside [0, T]) of the
    control's toggling-frame Bloch vector r at a_j: a sequence's pulses, a
    GHZ register's segment ends (r = +-z, coupling n*zeta), or 0 and T for
    a continuous control.  D = Q Q^T - (Q n)(Q n)^T for the initial Bloch
    vector n, or its Haar average (2/3) Q Q^T.  Each row of D sums to zero,
    as the jumps do.  zeta is the coupling of the form, and rate twice the
    largest generator norm of a continuous control (0 otherwise).
    """
    n = np.array([1.0, 0.0, 0.0])  # |+>, where drives and registers start
    z = np.array([0.0, 0.0, 1.0])
    rate = 0.0
    if isinstance(protocol, PulseSequence):
        u, r = np.eye(2), [z]
        for p in protocol.pulses:
            u = p.unitary @ u
            r.append(_bloch_z(u))
        r = np.vstack([0.0 * z, *r, 0.0 * z])
        a, Q = protocol.boundaries(), r[:-1] - r[1:]
        alpha, beta = protocol.initial_state
        n = np.array([math.sin(alpha) * math.cos(beta),
                      math.sin(alpha) * math.sin(beta), math.cos(alpha)])
    elif isinstance(protocol, GhzProtocol):
        s = np.concatenate(([0.0], protocol.segment_signs(), [0.0]))
        a, Q = protocol.times, np.outer(s[:-1] - s[1:], z)
        zeta = protocol.n * zeta
    elif isinstance(protocol, ContinuousControl):
        u = np.eye(2)
        for start, end, h in _drive_pieces(protocol):
            u = _su2_exp(h, end - start) @ u
            rate = max(rate, 2.0 * float(np.linalg.norm(h, 2)))
        a, Q = (0.0, protocol.total_time), np.array([-z, _bloch_z(u)])
    else:
        raise TypeError(f"unsupported protocol type {type(protocol).__name__}")
    D = (2.0 / 3.0) * Q @ Q.T if haar else Q @ Q.T - np.outer(Q @ n, Q @ n)
    return np.asarray(a, dtype=float), Q, D, zeta, rate


def _tail(protocol, signal: SignalParams, B: float, omega_max: float,
          haar: bool = False):
    """(tail, bound): the boundary-form integral of J beyond Omega (see
    _jumps), and a bound on its error.  (2 zeta |Q|_1)^2/Omega bounds the
    tail; the error bound is that times zeta|B|/Omega, plus for a drive
    (rate/Omega)^2.  A GHZ register's form is exact at any B.
    """
    a, Q, D, zeta, rate = _jumps(protocol, signal.zeta, haar)
    field = (0.0 if isinstance(protocol, GhzProtocol)
             else signal.zeta * abs(B) / omega_max)
    field += (rate / omega_max) ** 2
    size = (2.0 * zeta * np.linalg.norm(Q, axis=1).sum()) ** 2 / omega_max
    return (4.0 * zeta ** 2 * _boundary_tail(a, D, signal.phi, omega_max),
            float(field * size))


def _zero_field_k(protocol, signal: SignalParams, haar: bool = False):
    """(K, rounding bound) where J is the boundary form at every omega:
    pulse sequences at B = 0 and GHZ registers at any B.

    The Omega -> 0 limit of _boundary_tail, times 4 zeta^2, is
    K = 2 zeta^2 sum_jl D_jl [-(pi/2)|a_j - a_l|
                              - sin(2 phi) (a_j + a_l) ln(a_j + a_l)],
    with 0 ln 0 = 0: the 1/Omega and ln Omega terms cancel, as each row of
    D sums to zero.  For the same reason the times can be taken in units
    of T, which keeps every term of order |D_jl|.  The terms are summed
    exactly; the bound is _FORM_ROUNDING times the sum of the terms'
    magnitudes, with (|Q_j| + 1)(|Q_l| + 1) for |D_jl|: a jump is the
    difference of two unit vectors, each rounded to a few ulps of 1, so
    the rounding of a small jump is not small relative to it.  Validates
    a pulse sequence first.
    """
    if isinstance(protocol, PulseSequence):
        _check_sequence(protocol)
    a, Q, D, zeta, _ = _jumps(protocol, signal.zeta, haar)
    T = float(protocol.total_time)
    x = a / T
    total = x[:, None] + x
    gap = 0.5 * math.pi * np.abs(x[:, None] - x)
    log = (math.sin(2.0 * signal.phi) * total
           * np.log(np.where(total > 0.0, total, 1.0)))
    scale = 2.0 * zeta ** 2 * T
    q = np.linalg.norm(Q, axis=1) + 1.0
    size = np.outer(q, q) * (gap + np.abs(log))
    k = -scale * math.fsum((D * (gap + log)).ravel())
    return k, float(_FORM_ROUNDING * scale * size.sum())


# -- protocol plumbing --------------------------------------------------------


def feature_scale(protocol, signal: SignalParams, B: float) -> float:
    """Highest intrinsic frequency of a protocol under a field B.

    The largest of 1/T, zeta*|B| and the protocol's own rates: segments/T
    for pulse trains (a segment no longer than 16 ulps of T does not count)
    and GHZ registers (with n*zeta*|B| for the register),
    2|g| for the drive, twice the largest generator norm for a piecewise
    generator.  integrate_iqfi starts the closed-form tail at
    tail_start_factor times this, where the tail's error bound is small;
    the CLI's default spectrum grid ends at 8 times it.
    """
    T = float(protocol.total_time)
    scale = max(1.0 / T, signal.zeta * abs(B))
    if isinstance(protocol, PulseSequence):
        scale = max(scale, protocol.segment_count(_ULP_SEGMENT * T) / T)
    elif isinstance(protocol, GhzProtocol):
        scale = max(scale, (len(protocol.times) - 1) / T,
                    protocol.n * signal.zeta * abs(B))
    elif isinstance(protocol, ContinuousControl):
        gen = max((float(np.linalg.norm(h, 2)) for _, _, h in protocol.pieces),
                  default=0.0)
        scale = max(scale, 2.0 * gen, len(protocol.pieces) / T)
    return scale


def integrate_iqfi(protocol, signal: SignalParams, B: Optional[float] = None,
                   cfg: Optional[QuadratureConfig] = None,
                   ode_tol: float = 1e-9) -> QfiSpectrum:
    """Integrated QFI over omega in [0, inf) for any protocol kind.

    For a pulse sequence at B = 0 (any phi) and a GHZ register at any B,
    J is the boundary form at every omega, and K is its closed-form
    integral (method "closed_form", see _zero_field_k): no propagation and
    no panels.  Otherwise panels of width pi/T cover [0, Omega] and the
    closed-form tail covers the rest.  Raises QuadratureNonConvergence with
    a partial result when the panel budget runs out.  ode_tol is passed to
    qfi_vs_omega for continuous drives, and checked on every path, as is
    the protocol.
    """
    cfg = cfg or QuadratureConfig()
    if B is None:
        B = signal.B
    omega_max = cfg.tail_start_factor * feature_scale(protocol, signal, B)
    if isinstance(protocol, GhzProtocol) or (
            B == 0.0 and isinstance(protocol, PulseSequence)):
        _check_ode_tol(ode_tol)
        k, err = _zero_field_k(protocol, signal)
        empty = np.empty(0)
        return QfiSpectrum(omegas=empty, values=empty, weights=empty,
                           integral=k, error_estimate=err,
                           tail_coefficient=k * omega_max,
                           tail_start=omega_max, method="closed_form")
    width = math.pi / float(protocol.total_time)
    return _integrate_adaptive(
        lambda om: qfi_vs_omega(protocol, signal, B, om, ode_tol=ode_tol),
        0.0, omega_max, width, cfg, _tail(protocol, signal, B, omega_max))


def integrate_qfi_band(protocol, signal: SignalParams, lo: float, hi: float,
                       B: Optional[float] = None,
                       cfg: Optional[QuadratureConfig] = None,
                       ode_tol: float = 1e-9) -> QfiSpectrum:
    """Integral of J over a finite band [lo, hi]; no tail term."""
    if not 0.0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")
    cfg = cfg or QuadratureConfig()
    if B is None:
        B = signal.B
    width = math.pi / float(protocol.total_time)
    return _integrate_adaptive(
        lambda om: qfi_vs_omega(protocol, signal, B, om, ode_tol=ode_tol),
        lo, hi, width, cfg)


def cross_spectral_integral(t1: float, t0: float, mode: str = "analytic",
                            cfg: Optional[QuadratureConfig] = None) -> float:
    """Integral of sin(omega*t1)*sin(omega*t0)/omega^2 over [0, inf).

    Closed form (pi/2)*min(t1, t0); mode="numeric" runs the generic panel
    engine on the raw kernel instead, with the boundary tail of its two
    boundaries t1 and t0, as an end-to-end check of the quadrature itself.
    """
    if t1 < 0.0 or t0 < 0.0:
        raise ValueError("times must be >= 0")
    if mode == "analytic":
        return 0.5 * math.pi * min(t1, t0)
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    if t1 == 0.0 or t0 == 0.0:
        return 0.0
    cfg = cfg or QuadratureConfig()
    # the tail is exact, so Omega need not wait for the spectrum to settle
    omega_max = cfg.tail_start_factor / min(t1, t0)
    tail = _boundary_tail([t1, t0], [[0.0, 0.5], [0.5, 0.0]], 0.0, omega_max)
    return _integrate_adaptive(
        lambda om: t1 * t0 * np.sinc(om * t1 / math.pi) * np.sinc(
            om * t0 / math.pi),
        0.0, omega_max, math.pi / max(t1, t0), cfg,
        (tail, 0.0)).integral


# -- Haar averaging -----------------------------------------------------------


def haar_average_iqfi(seq: PulseSequence, signal: SignalParams,
                      B: Optional[float] = None,
                      cfg: Optional[QuadratureConfig] = None,
                      samples=None) -> HaarResult:
    """Exact average of K over Haar-random initial states.

    J = 4*(<dpsi|dpsi> + Re <dpsi|psi>^2) has degree 2 in psi0 and psi0*,
    so its Haar average is a trace formula in P and W = dP/dB:
    4*(Tr A/2 + Re(Tr(M)^2 + Tr(M^2))/6) with A = W^dag W, M = W^dag P.
    At B = 0 and signal phase 0 the average of K is (2/3)*2*pi*zeta^2*T for
    every pulse sequence: E[C_kl] = Tr(Z_k Z_l)/3 for the toggling-frame
    Z_k = U_k^dag Z U_k, and the integral of Theta_k Theta_l over omega is
    (pi/2)*len_k*delta_kl.  At B = 0 and any other phase it is the
    zero-field closed form of integrate_iqfi with the jump covariance
    averaged over initial states, (2/3) Q Q^T.  Otherwise one pilot
    integration fixes the nodes and weights, the trace formula is
    integrated on them, and the boundary tail adds the rest with that
    averaged covariance.  Both B = 0 results have method "closed_form".
    samples is accepted, for callers of the earlier Monte Carlo, and
    ignored; stderr is always 0.
    """
    if not isinstance(seq, PulseSequence):
        raise TypeError(f"haar_average_iqfi needs a PulseSequence, got "
                        f"{type(seq).__name__}")
    if B is None:
        B = signal.B
    if B == 0.0:
        if signal.phi == 0.0:
            k = (2.0 / 3.0) * 2.0 * math.pi * signal.zeta ** 2 * seq.total_time
        else:
            k, _ = _zero_field_k(seq, signal, haar=True)
        return HaarResult(value=k, stderr=0.0, method="closed_form", samples=0)
    pilot = integrate_iqfi(seq, signal, B, cfg)
    P, W = discrete_propagators(seq, signal, B, pilot.omegas)
    M = np.einsum("nij,nik->njk", W.conj(), P)
    tr_a = np.einsum("nij,nij->n", W.conj(), W).real
    tr_m = np.einsum("njj->n", M)
    tr_m2 = np.einsum("nij,nji->n", M, M)
    mean_j = 4.0 * (tr_a / 2.0 + (tr_m * tr_m + tr_m2).real / 6.0)
    tail, _ = _tail(seq, signal, B, pilot.tail_start, haar=True)
    return HaarResult(value=float(mean_j @ pilot.weights + tail),
                      stderr=0.0, method="trace_formula", samples=0)


# -- sweeps -------------------------------------------------------------------


def sweep_iqfi_vs_T(family: Callable, Ts: Sequence[float],
                    signal: SignalParams, B: Optional[float] = None,
                    cfg: Optional[QuadratureConfig] = None,
                    slope_window: Optional[tuple] = None,
                    jobs: int = 1) -> SweepResult:
    """K(T) across durations for a protocol family T -> protocol.

    The protocols are built in the calling process; with jobs > 1 a pool
    of that many worker processes integrates them, with results identical
    to a serial run.
    Per-point integration failures (panel budget or evolution) are recorded
    with failed=True, carrying the partial estimate if there is one, and
    the sweep continues.  The log-log slope is fitted over slope_window
    (defaults to the full range of successful points).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    cfg = cfg or QuadratureConfig()
    tasks = [(float(T), family(float(T)), signal, B, cfg) for T in Ts]
    if jobs > 1:
        # imported on use: loading the pool machinery costs every process
        # about half a megabyte of memory
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: forking a process with BLAS threads can deadlock
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as pool:
            points = list(pool.map(_sweep_point, tasks))
    else:
        points = [_sweep_point(t) for t in tasks]
    good = [p for p in points if not p.failed and p.K > 0.0]
    if slope_window is None and good:
        slope_window = (good[0].T, good[-1].T)
    slope = fit_loglog_slope(
        [p.T for p in good], [p.K for p in good], slope_window
    ) if len(good) >= 2 else float("nan")
    return SweepResult(points=tuple(points), slope=slope,
                       slope_window=tuple(slope_window) if slope_window else ())


def _sweep_point(task) -> SweepPoint:
    """One sweep point; module-level so worker processes can unpickle it."""
    T, protocol, signal, B, cfg = task
    try:
        spec = integrate_iqfi(protocol, signal, B, cfg)
        return SweepPoint(T=T, K=spec.integral, K_err=spec.error_estimate)
    except QuadratureNonConvergence as exc:
        spec = exc.partial
    except IntegrationError:
        spec = None
    nan = float("nan")
    return SweepPoint(T=T, K=spec.integral if spec is not None else nan,
                      K_err=spec.error_estimate if spec is not None else nan,
                      failed=True)


def fit_loglog_slope(Ts, Ks, window: Optional[tuple] = None) -> float:
    """Least-squares slope of log K against log T inside the window."""
    t = np.asarray(Ts, dtype=float)
    k = np.asarray(Ks, dtype=float)
    if window is not None:
        mask = (t >= window[0]) & (t <= window[1])
        t, k = t[mask], k[mask]
    if t.size < 2:
        return float("nan")
    return float(np.polyfit(np.log(t), np.log(k), 1)[0])
