"""Frequency integration of QFI spectra.

K(T) = integral of J(B | omega) over omega in [0, inf).  The integrand
oscillates on the scale pi/T: its fastest term, cos(omega (a_j + a_l) +
2 phi) with a_j + a_l <= 2T, has a period of at least pi/T.  So the finite
range [0, Omega] is cut into panels of width 4 pi/T (_PANEL_WIDTH), each
at most four such periods at 8 Kronrod nodes per period.  All base panels
are laid out as arrays, one row per panel, and evaluated in one batched
call at the 33 nodes of the Gauss-Kronrod rule: its value is the panel's,
and its distance from the 16-point Gauss rule on 16 of the same nodes the
panel's error.  Only if the summed error misses the tolerance are panels
halved: those whose error misses their share of it, in proportion to
their width, each round's halves evaluated in one batch, until the sum
fits or the panel budget runs out.
Beyond Omega, J tends to the toggling-frame (filter-function) form
(4 zeta^2/omega^2) sum_jl D_jl sin(omega a_j + phi) sin(omega a_l + phi):
a_j are the times where Z~ = U0^dag Z U0 of the control alone jumps, D the
jumps' covariance in the initial state.  Its integral, in sine and cosine
integrals, is the tail.  At B = 0, or where pulses keep Z~ on +-z, the
form is J at every omega, and K its closed-form integral.  For a sequence
with initial_state None, J and D are averaged over Haar-random initial
states, and K takes the same paths.

The frame (evolution._jumps), the feature scale that sets Omega
(evolution.feature_scale) and J (evolution.qfi_vs_omega) come from
evolution: this module only integrates over omega.  It reads no pulse,
generator or protocol kind, apart from haar_average_iqfi's check that it
is given a pulse sequence.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .evolution import ODE_TOL, IntegrationError, feature_scale, qfi_vs_omega
from .evolution import _check_ode_tol, _jumps, _reduced
from .protocol import PulseSequence
from .signal_core import SignalParams

ABS_TOL = 1e-12  # absolute floor of the summed panel error
# base panels' width times T, for K and band integrals alike (see the
# module docstring); at 8 pi a quarter of the nodes went to panels that
# were then halved, and the drive's integrals got slower
_PANEL_WIDTH = 4.0 * math.pi
# rounding bound of the zero-field closed form's terms, per unit of their
# magnitudes (see _zero_field_k)
_FORM_ROUNDING = 16.0 * np.finfo(float).eps
_PAIR_BLOCK = 1 << 16  # pulse pairs formed at a time, in blocks of rows
# pair terms that numpy sums at a time (see _pair_sum)
_PAIR_CHUNK = 64

__all__ = [
    "QuadratureConfig",
    "QfiSpectrum",
    "QuadratureNonConvergence",
    "HaarResult",
    "SweepPoint",
    "SweepResult",
    "integrate_iqfi",
    "integrate_qfi_band",
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
        # a NaN fails the first test; an infinity would never stop the
        # halving of _integrate_adaptive
        m = self.max_panels
        if not (1 <= m < math.inf and m == math.floor(m)):
            raise ValueError(
                f"max_panels must be a whole number >= 1, got {m}")


@dataclass(frozen=True, eq=False)
class QfiSpectrum:
    """Sampled spectrum plus its integral.

    omegas/values are the nodes of every final panel in increasing omega,
    33 per panel, and weights their Gauss-Kronrod weights, so values @
    weights is the integral over the panels.  integral adds the closed-form
    tail, tail_coefficient/tail_start; a band integral has no tail and
    tail_start is inf.  error_estimate sums the panels' |K33 - G16|, a
    bound on the tail's error (0 where the tail is exact; see _tail) and
    1e-14 of |integral| for rounding.

    method is "quadrature", or "closed_form" (see _zero_field_k) with no
    nodes, tail_start where the tail would start, tail_coefficient
    integral*tail_start, and error_estimate bounding the form's error.
    """

    omegas: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    integral: float
    error_estimate: float
    tail_coefficient: float
    tail_start: float
    method: str = "quadrature"


class QuadratureNonConvergence(IntegrationError):
    """Panel budget exhausted: the message says by how much."""


@dataclass(frozen=True)
class HaarResult:
    """Exact initial-state average of K.

    method is "closed_form", or "trace_formula" where K took the panels,
    whose J is (8/3)|dpsi/dB|^2 of the state propagated from |0>, the
    trace formula (4/3) Tr(W^dag W) of the propagator's derivative W.
    stderr is 0.0 and samples 0, class constants: nothing samples, but the
    benchmark harness (perfbench/) still reads both, so they stay until it
    stops.
    """

    value: float
    method: str
    stderr: ClassVar[float] = 0.0
    samples: ClassVar[int] = 0


@dataclass(frozen=True)
class SweepPoint:
    T: float
    K: float
    K_err: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple
    slope: float
    slope_window: tuple


# -- panel machinery ----------------------------------------------------------


def _gauss_kronrod(n):
    """Nodes and (Kronrod, Gauss) weight columns of the (2n+1)-point Gauss-
    Kronrod rule, exact to 3n+1: leggauss(n) and, between its nodes, the
    roots of E = P_(n+1) + sum_(j<=n) e_j P_j orthogonal to P_n P_k, k <= n.
    The weight at y is the Gauss weight plus 2/((n+1) q'(y)), q = P_n E.  No
    solver, einsum or legmul: each routine loaded adds to resident memory."""
    leg = np.polynomial.legendre
    x, w = leg.leggauss(n)
    qx, qw = leg.leggauss((3 * n + 3) // 2)  # exact to degree 3n+1
    p = leg.legvander(qx, n + 1)
    m = (p * (qw * p[:, n])[:, None]).T @ p  # integrals of P_n P_k P_j
    e = np.eye(n + 2)[n + 1]
    for k in range(n + 1):  # row k of m holds e_j for j >= n - k only
        e[n - k] = -(m[k, n - k + 1:] @ e[n - k + 1:]) / m[k, n - k]
    de, pn = leg.legder(e), np.eye(n + 1)[n]
    y = 0.5 * (np.append(-1.0, x) + np.append(x, 1.0))  # Newton from these
    for _ in range(6):  # at rounding after five steps
        y = y - leg.legval(y, e) / leg.legval(y, de)
    nodes, gauss = np.empty(2 * n + 1), np.zeros(2 * n + 1)
    nodes[0::2], nodes[1::2], gauss[1::2] = y, x, w
    dq = (leg.legval(nodes, leg.legder(pn)) * leg.legval(nodes, e)
          + leg.legval(nodes, pn) * leg.legval(nodes, de))
    return nodes, np.column_stack([gauss + 2.0 / ((n + 1) * dq), gauss])


_NODES, _WEIGHTS = _gauss_kronrod(16)


def _panels(f, a, b):
    """Panels [a_i, b_i], one row each, from one batched call to f.

    Returns (nodes, values, weights, value, error) per row: the Gauss-
    Kronrod nodes, values and weights, the value, and its error |K33 - G16|.
    """
    half, mid = 0.5 * (b - a)[:, None], 0.5 * (a + b)[:, None]
    nodes = half * _NODES + mid
    values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    value, gauss = (half * (values @ _WEIGHTS)).T
    return nodes, values, half * _WEIGHTS[:, 0], value, np.abs(value - gauss)


def _integrate_adaptive(f, lo, hi, width, cfg: QuadratureConfig,
                        tail=None) -> QfiSpectrum:
    """Shared core: panel-refined integral of f over [lo, hi].

    ceil((hi - lo)/width) equal panels are evaluated in one batch, and the
    first round's value sets the budget max(ABS_TOL, rel_tol*|value|).
    Each round, if the summed error of the final and the open panels fits
    the budget, every open panel is final.  Otherwise an open panel whose
    error fits its share, budget*(its width)/(hi - lo), is final, and the
    others are halved and evaluated in the next round's one batch; once
    every panel fits its share, the sum fits too.  max_panels counts final
    panels: where halving would pass it, the loop raises
    QuadratureNonConvergence, and where even the base panels are too many
    it raises before the tail or any panel is formed.  tail() is
    (value, error bound) of the integral of f over [hi, inf), added to
    the integral and to the error estimate; without one, tail_start is
    inf.
    """
    count = (hi - lo) / width
    if not count <= cfg.max_panels:  # an infinite or NaN count too
        raise QuadratureNonConvergence(
            f"[{lo:.3g}, {hi:.3g}] needs {count:.3g} panels of width "
            f"{width:.3g}, above max_panels={cfg.max_panels}")
    tail_value, tail_err = tail() if tail else (0.0, 0.0)

    def spectrum(rows):
        # panels in increasing omega: one batch already is, and is not
        # copied; exact sums, so that results are bit-stable whatever the
        # round a panel became final in
        if len(rows) == 1:
            a, nodes, values, weights, pv, pe = rows[0]
            order = slice(None)
        else:
            a, nodes, values, weights, pv, pe = map(np.concatenate, zip(*rows))
            order = np.argsort(a)
        k = float(math.fsum(pv) + tail_value)
        return QfiSpectrum(omegas=nodes[order].ravel(),
                           values=values[order].ravel(),
                           weights=weights[order].ravel(), integral=k,
                           error_estimate=float(math.fsum(pe) + tail_err
                                                + 1e-14 * abs(k)),
                           tail_coefficient=tail_value * hi,
                           tail_start=hi if tail else math.inf)

    edges = np.linspace(lo, hi, max(1, math.ceil(count)) + 1)
    a, b = edges[:-1], edges[1:]
    final, budget = [], None
    while a.size:
        rows = (a,) + _panels(f, a, b)
        pv, pe = rows[-2:]
        if budget is None:
            budget = max(ABS_TOL, cfg.rel_tol * abs(math.fsum(pv)))
        err = math.fsum(np.concatenate([r[-1] for r in final] + [pe]))
        # a NaN error stops here too: more panels cannot cure it
        if not err > budget:
            return spectrum(final + [rows])
        fits = pe <= budget * (b - a) / (hi - lo)
        final.append(tuple(r[fits] for r in rows))
        a, b = a[~fits], b[~fits]
        if sum(len(r[0]) for r in final) + 2 * a.size > cfg.max_panels:
            raise QuadratureNonConvergence(
                f"halving {a.size} panels would pass max_panels="
                f"{cfg.max_panels}; raise max_panels or rel_tol")
        mid = 0.5 * (a + b)
        a, b = np.stack([a, mid], 1).ravel(), np.stack([mid, b], 1).ravel()
    return spectrum(final)


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


def _pair_sum(jumps, kernel):
    """(sum, magnitude) over the pairs of jumps (see _jumps) of D_jl
    kernel(a_j, a_l), formed a block of rows at a time, _PAIR_BLOCK pairs
    at most.  The magnitude is sum_jl (|Q_j| + 1)(|Q_l| + 1) |kernel|, at
    least the sum of the terms' magnitudes.  numpy sums the terms
    _PAIR_CHUNK at a time, in any order, with an error of at most
    (_PAIR_CHUNK - 1)/2 eps times their magnitudes (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 4); math.fsum rounds each
    block's chunk sums and the block sums once each.  So the sum is within
    _PAIR_CHUNK eps times the magnitude of the exact sum of the terms."""
    a, Q, _, n, _ = jumps
    q = np.linalg.norm(Q, axis=1) + 1.0
    qn = None if n is None else Q @ n
    step = max(1, _PAIR_BLOCK // len(Q))
    sums, size = [], 0.0
    for i in range(0, len(Q), step):
        rows = slice(i, i + step)
        cov = ((2.0 / 3.0) * Q[rows] @ Q.T if n is None
               else Q[rows] @ Q.T - np.outer(qn[rows], qn))
        k = kernel(a[rows, None], a)
        terms = (cov * k).ravel()
        sums.append(math.fsum(np.add.reduceat(
            terms, np.arange(0, terms.size, _PAIR_CHUNK)).tolist()))
        size += float(q[rows] @ (np.abs(k) @ q))
    return math.fsum(sums), size


def _tail(jumps, signal: SignalParams, omega_max: float):
    """(tail, bound): the boundary-form integral of J beyond Omega (see
    _jumps), half the _pair_sum with the cosine tail at a_j - a_l less that
    at a_j + a_l with phase 2 phi as its kernel.  The error bound is
    (2 zeta |Q|_1)^2/Omega, which bounds the tail, times zeta|B|/Omega,
    plus for a drive (rate/Omega)^2."""
    _, Q, _, _, rate = jumps
    zeta, phases = signal.zeta, np.array([0.0, 2.0 * signal.phi])

    def kernel(aj, al):
        g = _cos_tail(np.stack([aj - al, aj + al]), phases[:, None, None],
                      omega_max)
        return g[0] - g[1]

    total, _ = _pair_sum(jumps, kernel)
    field = zeta * abs(signal.B) / omega_max + (rate / omega_max) ** 2
    # a bound beyond the floats is inf, for integrate_iqfi to report
    with np.errstate(over="ignore"):
        size = (2.0 * zeta * np.linalg.norm(Q, axis=1).sum()) ** 2 / omega_max
        bound = float(field * size)
    return 4.0 * zeta ** 2 * (0.5 * total), bound


def _zero_field_k(jumps, signal: SignalParams, cfg: QuadratureConfig):
    """(K, error bound) from the closed form of K at B = 0, or None where
    the panels must run: a drive, or a field that moves a sequence's
    toggling-frame axis off +-z by more than the tolerance allows.

    At B = 0, J is the boundary form at every omega, and K, the Omega -> 0
    limit of _tail's integral, is 2 zeta^2 sum_jl D_jl [-(pi/2) |a_j - a_l|
    - sin(2 phi)(a_j + a_l) ln(a_j + a_l)] (0 ln 0 = 0; rows of D sum to
    zero, so a is taken in units of T).  As Theta_k Theta_l integrates to
    (pi/2) len_k delta_kl at phi = 0, the first part is 2 pi zeta^2 sum_k
    len_k C_kk, C_kk = 1 - (r_k.n)^2 (2/3 for n None), summed by fsum in
    O(N); only the second forms pairs, where sin(2 phi) != 0, as the
    _pair_sum with the log kernel.  The rounding bound is _FORM_ROUNDING
    times the magnitude of the O(N) part, sum_k len_k (|r_k| + 1)^2, plus
    _FORM_ROUNDING + _PAIR_CHUNK eps times the pairs' magnitude: |Q_j| + 1
    stands for a jump, as a small jump's rounding is not small next to it.

    In a field J = 4 zeta^2 Var(G_B) in psi0, G_B = sum_k Theta_k A_k^dag
    r_k.sigma A_k, A_k = V_(k-1)...V_0, V_k = exp(-i zeta B Theta_k
    r_k.sigma).  For delta = max_k |r_k,perp|, |r_j x r_k| <= 2 delta, so
    ||G_B - G_0|| <= 4 delta zeta |B| S^2 with S = sum_k |Theta_k| <= T,
    and |J(B) - J(0)| <= 32 zeta^3 |B| delta S^3 (the standard deviation
    is a seminorm, at most S).  The integral of S^2 is at most pi (N+1) T
    for N pulses (Cauchy-Schwarz, Plancherel): |K(B) - K(0)| <= dev =
    32 pi zeta^3 |B| delta (N+1) T^2, and K(0) <= 4 pi zeta^2 (N+1) T.
    The form is taken where dev plus the rounding bound fits max(ABS_TOL,
    rel_tol |K|), dev joining the bound; it is not summed where dev misses
    even the largest K.  delta is 0 for Ramsey and GHZ registers, ulps for
    pi trains, O(1) for pi/2 and SU(2) trains.
    """
    a, Q, r, n, _ = jumps
    if r is None:
        return None
    T, zeta = float(a[-1]), signal.zeta
    k_max = 4.0 * math.pi * zeta ** 2 * len(r) * T
    delta = float(np.hypot(r[:, 0], r[:, 1]).max())
    # 0, not 0 * inf, where k_max is beyond the floats
    dev = (8.0 * zeta * abs(signal.B) * delta * T * k_max
           if delta != 0.0 and signal.B != 0.0 else 0.0)
    if dev > max(ABS_TOL, cfg.rel_tol * k_max):
        return None
    length = math.pi * (np.diff(a) / T)
    scale = 2.0 * zeta ** 2 * T
    k = math.fsum(length * (2.0 / 3.0 if n is None else 1.0 - (r @ n) ** 2))
    err = float(_FORM_ROUNDING * scale
                * (length * (np.linalg.norm(r, axis=1) + 1.0) ** 2).sum())
    s = math.sin(2.0 * signal.phi)
    if s != 0.0:
        def log_kernel(aj, al):
            total = (aj + al) / T
            return -s * total * np.log(np.where(total > 0.0, total, 1.0))

        pairs, size = _pair_sum(jumps, log_kernel)
        k += pairs
        err += float((_FORM_ROUNDING + _PAIR_CHUNK * np.finfo(float).eps)
                     * scale * size)
    k *= scale
    if signal.B != 0.0 and dev + err > max(ABS_TOL, cfg.rel_tol * abs(k)):
        return None
    return k, err + dev


# -- K and band integrals -----------------------------------------------------


def integrate_iqfi(protocol, signal: SignalParams,
                   cfg: Optional[QuadratureConfig] = None,
                   ode_tol: float = ODE_TOL) -> QfiSpectrum:
    """Integrated QFI over omega in [0, inf) at the signal's field B.

    Where _zero_field_k admits it (a pulse sequence or GHZ register at
    B = 0, or one whose axis stays on +-z), K is a closed form (method
    "closed_form"): no propagation, no panels.  Otherwise panels of width
    4 pi/T, each at most four periods of J's fastest term (whose period
    is at least pi/T), halved where their error misses its share (see
    _integrate_adaptive), cover [0, Omega] and the closed-form tail the
    rest; an exhausted panel budget raises QuadratureNonConvergence, and a
    protocol of no known type TypeError.
    ode_tol, the error target of a continuous drive's state and, per unit
    of zeta, of its field derivative, is checked on every path.  A
    sequence with initial_state None gives the Haar average.  A tail
    start Omega, K or error estimate beyond the floats is a ValueError.
    """
    cfg = cfg or QuadratureConfig()
    protocol, signal = _reduced(protocol, signal)
    _check_ode_tol(ode_tol)
    jumps = _jumps(protocol)
    scale = feature_scale(protocol, signal)
    omega_max = cfg.tail_start_factor * scale
    if not math.isfinite(omega_max):
        raise ValueError(f"the tail start {cfg.tail_start_factor:g} * "
                         f"{scale:.3g} (feature scale) is beyond the floats")
    closed = _zero_field_k(jumps, signal, cfg)
    if closed is not None:
        k, err = closed
        empty = np.empty(0)
        spec = QfiSpectrum(omegas=empty, values=empty, weights=empty,
                           integral=k, error_estimate=err,
                           tail_coefficient=k * omega_max,
                           tail_start=omega_max, method="closed_form")
    else:
        spec = _integrate_adaptive(
            lambda om: qfi_vs_omega(protocol, signal, omegas=om,
                                    ode_tol=ode_tol),
            0.0, omega_max, _PANEL_WIDTH / float(protocol.total_time), cfg,
            lambda: _tail(jumps, signal, omega_max))
    if not (math.isfinite(spec.integral)
            and math.isfinite(spec.error_estimate)):
        raise ValueError(f"K = {spec.integral:.3g} with error "
                         f"{spec.error_estimate:.3g} is beyond the floats")
    return spec


def integrate_qfi_band(protocol, signal: SignalParams, lo: float, hi: float,
                       cfg: Optional[QuadratureConfig] = None,
                       ode_tol: float = ODE_TOL) -> QfiSpectrum:
    """Integral of J over a finite band [lo, hi]; no tail term.  ode_tol
    is as in integrate_iqfi."""
    if not 0.0 <= lo < hi < math.inf:
        raise ValueError(f"need 0 <= lo < hi < inf, got [{lo}, {hi}]")
    # before the panel budget, which a NaN ode_tol would not reach
    _check_ode_tol(ode_tol)
    protocol, signal = _reduced(protocol, signal)
    return _integrate_adaptive(
        lambda om: qfi_vs_omega(protocol, signal, omegas=om, ode_tol=ode_tol),
        lo, hi, _PANEL_WIDTH / float(protocol.total_time),
        cfg or QuadratureConfig())


# -- Haar averaging -----------------------------------------------------------


def haar_average_iqfi(seq: PulseSequence, signal: SignalParams,
                      cfg: Optional[QuadratureConfig] = None,
                      samples=None) -> HaarResult:
    """Exact average of K over Haar-random initial states at field B.

    K of the sequence with initial_state None, by integrate_iqfi; at B = 0
    and signal phase 0 it is (2/3)*2*pi*zeta^2*T for every pulse sequence,
    returned at once: integrate_iqfi gives the same K to an ulp, but builds
    the frame and the feature scale first, 25 to 50 times the cost of this
    branch.  Either way a K beyond the floats is a ValueError.  samples is
    ignored and stderr 0; the benchmark harness (perfbench/) still passes
    the one and reads the other.
    """
    if not isinstance(seq, PulseSequence):
        raise ValueError(f"the Haar average needs a pulse-sequence protocol "
                         f"(a PulseSequence), got a {type(seq).__name__}")
    if signal.B == 0.0 and signal.phi == 0.0:
        k = (2.0 / 3.0) * 2.0 * math.pi * signal.zeta ** 2 * seq.total_time
        if not math.isfinite(k):
            raise ValueError(f"K = {k} is beyond the floats")
        return HaarResult(value=k, method="closed_form")
    spec = integrate_iqfi(replace(seq, initial_state=None), signal, cfg)
    return HaarResult(value=spec.integral, method=(
        "trace_formula" if spec.method == "quadrature" else "closed_form"))


# -- sweeps -------------------------------------------------------------------


def sweep_iqfi_vs_T(family: Callable, Ts: Sequence[float],
                    signal: SignalParams,
                    cfg: Optional[QuadratureConfig] = None,
                    slope_window: Optional[tuple] = None) -> SweepResult:
    """K(T) across durations for a protocol family T -> protocol.

    The protocols are built in the calling thread, then integrated by a pool
    of one thread per usable CPU (no more than there are points): numpy
    releases the GIL on the node arrays where a point spends its time.  The
    points do not depend on the number of threads; narrow the process's CPU
    affinity (taskset) for fewer.
    A point that fails fails the sweep: its IntegrationError (the panel
    budget or the evolution's) is raised again as the same type, its
    message prefixed by "T = <T>: ", and any other error as it is.  The
    log-log slope is fitted over slope_window, by default from the least
    to the greatest T of the points with K > 0; fewer than two distinct T
    in the window give a NaN slope.
    """
    # imported on use, so that no other command loads the pool machinery
    from concurrent.futures import ThreadPoolExecutor

    cfg = cfg or QuadratureConfig()
    Ts = [float(T) for T in Ts]
    protocols = [family(T) for T in Ts]

    def point(T: float, protocol) -> SweepPoint:
        try:
            spec = integrate_iqfi(protocol, signal, cfg)
        except IntegrationError as exc:  # QuadratureNonConvergence too
            raise type(exc)(f"T = {T:.15g}: {exc}") from exc
        return SweepPoint(T=T, K=spec.integral, K_err=spec.error_estimate)

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=max(1, min(cpus, len(Ts)))) as pool:
        points = list(pool.map(point, Ts, protocols))
    good = [p for p in points if p.K > 0.0]
    ts, ks = [p.T for p in good], [p.K for p in good]
    if slope_window is None and good:
        slope_window = (min(ts), max(ts))
    slope = fit_loglog_slope(ts, ks, slope_window)
    return SweepResult(points=tuple(points), slope=slope,
                       slope_window=tuple(slope_window) if slope_window else ())


def fit_loglog_slope(Ts, Ks, window: Optional[tuple] = None) -> float:
    """Least-squares slope of log K against log T inside the window.

    A point inside the window whose T or K is not positive and finite is a
    ValueError that names the first such point; fewer than two distinct T
    inside it give NaN.
    """
    t = np.asarray(Ts, dtype=float)
    k = np.asarray(Ks, dtype=float)
    if window is not None:
        mask = (t >= window[0]) & (t <= window[1])
        t, k = t[mask], k[mask]
    bad = np.flatnonzero(~((0.0 < t) & (t < np.inf) &
                           (0.0 < k) & (k < np.inf)))
    if bad.size:
        raise ValueError(f"a log-log slope needs finite T > 0 and K > 0, "
                         f"got K = {k[bad[0]]} at T = {t[bad[0]]}")
    if np.unique(t).size < 2:
        return float("nan")
    return float(np.polyfit(np.log(t), np.log(k), 1)[0])
