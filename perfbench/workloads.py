"""The four workloads: seeded inputs, the program call of each case, and the
check of its output against `references`.

A case is one operation.  `call` is the only code that is timed; it calls
the program through module attributes looked up at call time, so the traced
run sees the wrapped functions.  `summarize` keeps only the scalars the
check needs, so no case holds its arrays past its own timing.  `check`
returns None when the output is right and a message when it is not.

Work sizes (pulse counts, durations that set the node count, frequencies)
are fixed per case; the seed draws pulse times, unitaries, initial states,
phases and weak fields, and the order of the cases.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import references as R
from iqfi_lab import cli, evolution, iqfi, protocol
from iqfi_lab.signal_core import SignalParams

G = math.pi / 2.0  # drive rate of the driven and trotterized protocols
# Monte Carlo samples of the seeded haar_average_iqfi cases: an eighth of
# the default keeps each case under 1 s; the Monte Carlo loop still
# dominates their time and memory
HAAR_SAMPLES = 512


def gate_config():
    """Quadrature settings of the acceptance gate and the bound battery."""
    return iqfi.QuadratureConfig(tail_start_factor=240.0, max_panels=40000)


@dataclass
class Case:
    name: str
    call: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Callable[[dict], Optional[str]]
    # the operation fails on every run because of a known program fault
    known_fault: bool = False


@dataclass
class Workload:
    cases: list
    warmup: Callable[[], object]
    # checks that span cases; takes {case name: summary}, returns messages
    finish: Callable[[dict], list] = lambda summaries: []
    # boundaries the traced run must record a span at
    boundaries: tuple = ()
    # fewest rounds a run makes; each case's figure is its median over rounds
    min_rounds: int = 2


def _spectrum_summary(spec) -> dict:
    return {"K": float(spec.integral), "err": float(spec.error_estimate)}


def _rel_check(want, tol):
    def check(s):
        rel = abs(s["K"] - want) / want
        return None if rel <= tol else f"K {s['K']:.6g} vs {want:.6g}: rel {rel:.2e} > {tol:g}"
    return check


def _caps_check(segments, T, B, zeta=1.0):
    """K - err under the segment-count cap (pulse protocols only) and, where
    zeta B T <= 0.5, under the weak-field cap."""
    def check(s):
        low = s["K"] - s["err"]
        if segments is not None and low > R.segment_cap(segments, T, zeta):
            return f"K - err {low:.6g} above segment cap {R.segment_cap(segments, T, zeta):.6g}"
        if zeta * abs(B) * T <= 0.5:
            cap = R.weak_field_cap(T, B, zeta)
            if low > cap:
                return f"K - err {low:.6g} above weak-field cap {cap:.6g}"
        return None
    return check


def _all(*checks):
    def check(s):
        for c in checks:
            msg = c(s)
            if msg is not None:
                return msg
        return None
    return check


def _integrate_case(name, proto, signal, check, cfg=None, known_fault=False):
    cfg = cfg or gate_config()
    return Case(name, lambda: iqfi.integrate_iqfi(proto, signal, cfg=cfg),
                _spectrum_summary, check, known_fault)


# -- trains ---------------------------------------------------------------------


def _haar_su2(rng) -> np.ndarray:
    a, b, c, d = rng.normal(size=4)
    n = math.sqrt(a * a + b * b + c * c + d * d)
    x, y = complex(a, b) / n, complex(c, d) / n
    return np.array([[x, y], [-y.conjugate(), x.conjugate()]])


def _random_train(rng, pulses: int, kind: str):
    """(PulseSequence, times, matrices, psi0) with the matrices built here."""
    T = float(rng.uniform(1.0, 4.0))
    times = np.sort(rng.uniform(0.0, T, pulses))
    if kind == "pi_xy":
        axes = ["x" if rng.integers(2) == 0 else "y" for _ in range(pulses)]
        mats = [R.rotation(a, math.pi) for a in axes]
        plist = [protocol.Pulse(time=float(t), axis=a, angle=math.pi)
                 for t, a in zip(times, axes)]
        init = (math.pi / 2.0, float(rng.uniform(0.0, 2.0 * math.pi)))
    else:
        mats = [_haar_su2(rng) for _ in range(pulses)]
        plist = [protocol.Pulse(time=float(t), matrix=m)
                 for t, m in zip(times, mats)]
        init = (float(np.arccos(rng.uniform(-1.0, 1.0))),
                float(rng.uniform(0.0, 2.0 * math.pi)))
    seq = protocol.PulseSequence(pulses=tuple(plist), total_time=T,
                                 initial_state=init)
    return seq, times, mats, R.bloch(*init)


def _segments(times, T) -> int:
    edges = np.concatenate(([0.0], times, [T]))
    return max(1, int(np.count_nonzero(np.diff(edges) > 0.0)))


def _coverage_check(want):
    """|K - exact| <= error_estimate: the estimate must bound the error."""
    def check(s):
        gap = abs(s["K"] - want)
        return None if gap <= s["err"] else \
            f"|K - exact| = {gap:.3e} exceeds error_estimate {s['err']:.3e}"
    return check


def trains(rng) -> Workload:
    """K via integrate_iqfi at the gate config: seeded echo and SU(2) trains
    at B = 0, weak B and B = 1, a tilted-phase Ramsey case, GHZ registers,
    and two fixed inputs for the error-estimate coverage check."""
    cases = []
    zero = SignalParams(B=0.0, omega=0.0)
    for kind, sizes in (("pi_xy", (1, 2, 4, 8, 16)), ("su2", (1, 3, 6, 12))):
        for n in sizes:
            seq, times, mats, psi0 = _random_train(rng, n, kind)
            want = R.train_k_zero_field(times, seq.total_time, mats, psi0)
            cases.append(_integrate_case(f"{kind}{n}_B0", seq, zero,
                                         _rel_check(want, 1e-2)))
    for label, kind, sizes in (("weak", "su2", (2, 4, 8)), ("weak", "pi_xy", (6,)),
                               ("B1", "su2", (2, 5, 10, 16)), ("B1", "pi_xy", (12,))):
        for n in sizes:
            seq, times, _, _ = _random_train(rng, n, kind)
            T = seq.total_time
            B = 1.0 if label == "B1" else float(rng.uniform(0.05, 0.1)) / T
            cases.append(_integrate_case(
                f"{kind}{n}_{label}", seq, SignalParams(B=B, omega=0.0),
                _caps_check(_segments(times, T), T, B)))

    T, phi = float(rng.uniform(1.0, 4.0)), float(rng.uniform(0.2, 6.0))
    cases.append(_integrate_case(
        "ramsey_tilted", protocol.make_ramsey(T),
        SignalParams(B=0.0, omega=0.0, phi=phi), _rel_check(R.ramsey_k(T, phi), 1e-2)))
    for n, cuts in ((2, 1), (3, 0), (4, 2)):
        T = float(rng.uniform(1.0, 4.0))
        inner = tuple(float(t) for t in np.sort(rng.uniform(0.0, T, cuts)))
        flips = tuple(bool(rng.integers(2)) for _ in inner) if inner else None
        ghz = protocol.GhzProtocol(n=n, times=(0.0, *inner, T), flips=flips)
        cases.append(_integrate_case(f"ghz{n}", ghz, zero,
                                     _rel_check(R.ghz_k(n, T), 1e-2)))

    # Fixed inputs, independent of the seed, where the error estimate must
    # cover the exact error.  The last one fails on every run: two pulses
    # 0.0018 apart, and the tail model starts at 240 x segments/T, about
    # 1/gap, before the spectrum is asymptotic (iqfi._feature_scale).
    fixed = protocol.make_pi_train([1.0, 2.0, 3.0], 4.0)
    want = R.train_k_zero_field([1.0, 2.0, 3.0], 4.0,
                                [R.rotation("x", math.pi)] * 3, R.bloch(math.pi / 2, 0.0))
    cases.append(_integrate_case("fixed_pi3_coverage", fixed, zero,
                                 _all(_rel_check(want, 1e-2), _coverage_check(want))))
    draws = np.random.default_rng(5)
    for _ in range(4):
        seq = protocol.random_pulse_sequence(draws, 3.0, max_pulses=6)
    mats = [p.matrix for p in seq.pulses]
    want = R.train_k_zero_field(seq.times, 3.0, mats, R.bloch(*seq.initial_state))
    cases.append(_integrate_case("fixed_close_pulses_coverage", seq, zero,
                                 _all(_rel_check(want, 1e-2), _coverage_check(want)),
                                 known_fault=True))

    warm = protocol.make_pi_train([0.5], 1.0)
    return Workload(cases, lambda: iqfi.integrate_iqfi(warm, zero, cfg=gate_config()),
                    boundaries=("integrate_iqfi", "qfi_vs_omega", "discrete_propagators"))


# -- sweep ----------------------------------------------------------------------

SWEEP_T = (2, 3, 4, 6, 8, 11, 16)
SWEEP_B = (1.0, 0.01)
SLOPE_WINDOW = (4, 16)
SLOPE_RANGE = {1.0: (1.7, 2.1), 0.01: (0.9, 1.15)}


def sweep(rng) -> Workload:
    """The computation behind `iqfi-lab fig1`, one case per (T, B) point."""
    cases = []
    for B in SWEEP_B:
        for T in SWEEP_T:
            seq = protocol.make_trotterized_gx(float(T), m=2 * T, g=G)
            cases.append(_integrate_case(
                f"T{T}_B{B:g}", seq, SignalParams(B=B, omega=0.0),
                _caps_check(2 * T, float(T), B)))

    def finish(summaries):
        problems = []
        for B in SWEEP_B:
            Ts = [T for T in SWEEP_T if SLOPE_WINDOW[0] <= T <= SLOPE_WINDOW[1]]
            slope = R.loglog_slope(Ts, [summaries[f"T{T}_B{B:g}"]["K"] for T in Ts])
            lo, hi = SLOPE_RANGE[B]
            if not lo <= slope <= hi:
                problems.append(f"B={B:g}: log-log slope {slope:.4f} outside [{lo}, {hi}]")
        return problems

    warm = protocol.make_trotterized_gx(1.0, m=2, g=G)
    # one round: its few long cases already take about 20 s
    return Workload(cases, lambda: iqfi.integrate_iqfi(
        warm, SignalParams(B=1.0, omega=0.0), cfg=gate_config()), finish,
        boundaries=("integrate_iqfi", "qfi_vs_omega", "discrete_propagators"),
        min_rounds=1)


# -- drive ----------------------------------------------------------------------

SPECTRA = ((2.0, 1.0, (0.5, 3.0, 6.5, 11.0)),
           (4.0, 0.01, (1.0, 2.0 * G, 7.0)))
BANDS = ((2.0, 1.0), (2.0, 0.01), (4.0, 1.0), (4.0, 0.01), (8.0, 1.0))


def _spectrum_check(g, T, B, omegas):
    def check(s):
        ref = R.drive_spectrum(g, T, B, omegas)
        worst = float(np.max(np.abs(np.asarray(s["J"]) - ref)))
        scale = float(np.max(np.abs(ref)))
        return None if worst <= 1e-6 * scale else \
            f"J off the ODE reference by {worst:.3e} (max |J| {scale:.3e})"
    return check


def _band_check(T, B):
    def check(s):
        peak = s["peak"] / G
        if T >= 4.0 and not 1.8 <= peak <= 2.2:
            return f"spectral peak at {peak:.3f} g, outside [1.8, 2.2] g"
        if (T, B) == (8.0, 1.0):
            floor = R.rwa_band_floor(T, B, G)
            if s["K"] < floor:
                return f"band integral {s['K']:.6g} below rotating-frame floor {floor:.6g}"
        return None
    return check


def _band_summary(spec) -> dict:
    d = _spectrum_summary(spec)
    d["peak"] = float(spec.omegas[int(np.argmax(spec.values))])
    return d


def drive(rng) -> Workload:
    """The continuous drive g X: short spectra via qfi_vs_omega, band
    integrals over [g, 3g], and one full K at the default config."""
    cases = []
    for T, B, grid in SPECTRA:
        om = np.array(grid) * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, len(grid)))
        ctrl = protocol.TransverseDrive(g=G, total_time=T)
        cases.append(Case(
            f"spectrum_T{T:g}_B{B:g}",
            lambda ctrl=ctrl, B=B, om=om: evolution.qfi_vs_omega(
                ctrl, SignalParams(B=B, omega=0.0), omegas=om),
            lambda j: {"J": [float(x) for x in j]},
            _spectrum_check(G, T, B, om)))
    for T, B in BANDS:
        ctrl = protocol.TransverseDrive(g=G, total_time=T)
        cases.append(Case(
            f"band_T{T:g}_B{B:g}",
            lambda ctrl=ctrl, B=B: iqfi.integrate_qfi_band(
                ctrl, SignalParams(B=B, omega=0.0), G, 3.0 * G),
            _band_summary, _band_check(T, B)))
    # B is fixed: the adaptive RK4's work depends on it
    T, B = 0.5, 0.05
    cases.append(Case(
        "K_T0.5", lambda: iqfi.integrate_iqfi(
            protocol.TransverseDrive(g=G, total_time=T), SignalParams(B=B, omega=0.0)),
        _spectrum_summary, _caps_check(None, T, B)))

    warm = protocol.TransverseDrive(g=G, total_time=0.5)
    return Workload(cases, lambda: evolution.qfi_vs_omega(
        warm, SignalParams(B=1.0, omega=0.0), omegas=np.array([3.0])),
        boundaries=("integrate_iqfi", "integrate_qfi_band", "qfi_vs_omega",
                    "qfi_vs_omega:continuous"))


# -- haar -----------------------------------------------------------------------


def _cli_haar(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["haar", *argv])
    if code != 0:
        raise RuntimeError(f"iqfi-lab haar exited {code}")
    return json.loads(out.getvalue())


def _haar_check(T, signal, k_of_state):
    """Monte Carlo mean within 4 stderr + 1e-3 relative of the six-Pauli-state
    mean of K, which is the exact Haar average; at B = 0, phi = 0 also of
    (2/3) 2 pi zeta^2 T."""
    def check(s):
        six = R.six_state_mean(k_of_state)
        tol = 4.0 * s["stderr"] + 1e-3 * abs(six)
        if abs(s["K"] - six) > tol:
            return f"Haar mean {s['K']:.6g} vs six-state mean {six:.6g} (tol {tol:.2e})"
        want = (2.0 / 3.0) * 2.0 * math.pi * signal.zeta ** 2 * T
        if signal.B == 0.0 and signal.phi == 0.0 and \
                abs(s["K"] - want) > 4.0 * s["stderr"] + 1e-3 * want:
            return f"Haar mean {s['K']:.6g} vs (2/3) 2 pi T = {want:.6g}"
        return None
    return check


def _six_state_k(times, mats, T, signal, make):
    """K of one initial state: the filter-function form at B = 0, phi = 0;
    elsewhere, where no closed form exists, the program's K at the gate
    config."""
    if signal.B == 0.0 and signal.phi == 0.0:
        return lambda st: R.train_k_zero_field(times, T, mats, R.bloch(*st))
    return lambda st: iqfi.integrate_iqfi(make(st), signal, cfg=gate_config()).integral


def _cli_spec(kind, T, B, times=()):
    """Flags, pulse times, pulse matrices and constructor of one `haar`
    command; pi2-train and trotter-gx take the command's default spacing
    0.5 and m = 2T.  At the default g = pi/2 a trotter-gx train is a
    pi2-train, so trotter-gx runs at g = 1."""
    flags = ["--protocol", kind, "--T", repr(T)] + (["--B", repr(B)] if B else [])
    if kind == "pi2-train":
        ts = 0.5 * np.arange(1, int(round(T / 0.5)) + 1)
        mats = [R.rotation("x", math.pi / 2)] * len(ts)
        make = lambda st: protocol.make_pi2_train(0.5, T, initial_state=st)
    elif kind == "trotter-gx":
        m, g = int(round(2 * T)), 1.0
        flags += ["--g", repr(g)]
        ts = (T / m) * np.arange(1, m + 1)
        mats = [R.rotation("x", 2 * g * T / m)] * m
        make = lambda st: protocol.make_trotterized_gx(T, m=m, g=g, initial_state=st)
    else:
        flags += ["--times", ",".join(repr(float(t)) for t in times)]
        ts, mats = times, [R.rotation("x", math.pi)] * len(times)
        make = lambda st: protocol.make_pi_train(times, T, initial_state=st)
    return flags, ts, mats, make


def haar(rng) -> Workload:
    """Haar averages: the `haar` command at its defaults, then seeded SU(2)
    trains through haar_average_iqfi at the gate config.  Many cases under
    about 1 s each: the host's speed changes within a second, and the
    reference kernel brackets short cases best."""
    cases = []
    # the fields of the command cases are fixed: the default config's panel
    # refinement, and so the work, depends on them
    pi_times = tuple(float(t) for t in np.sort(rng.uniform(0.2, 3.8, 3)).round(6))
    for kind, T, B, times in (("pi2-train", 3.0, 0.0, ()), ("pi2-train", 2.0, 0.8, ()),
                              ("trotter-gx", 2.0, 0.5, ()), ("trotter-gx", 1.5, 0.0, ()),
                              ("pi-train", 4.0, 0.0, pi_times)):
        flags, ts, mats, make = _cli_spec(kind, T, B, times)
        signal = SignalParams(B=B, omega=0.0)
        cases.append(Case(f"cli_{kind}_T{T:g}" + ("_B" if B else ""),
                          lambda flags=flags: _cli_haar(flags),
                          lambda out: {"K": out["K_avg"], "stderr": out["stderr"]},
                          _haar_check(T, signal, _six_state_k(ts, mats, T, signal, make))))

    # B stays below segments/T, so the node count does not depend on the seed
    for pulses, field, tilted in ((1, False, False), (1, True, False), (2, False, False),
                                  (2, True, True), (3, True, False)):
        seq, times, mats, _ = _random_train(rng, pulses, "su2")
        B = float(rng.uniform(0.2, 0.45)) if field else 0.0
        phi = float(rng.uniform(0.2, 6.0)) if tilted else 0.0
        T, signal = seq.total_time, SignalParams(B=B, omega=0.0, phi=phi)
        make = (lambda st, seq=seq: protocol.PulseSequence(seq.pulses, seq.total_time, st))
        cases.append(Case(
            f"su2_{pulses}" + ("_B" if field else "_B0") + ("_phi" if tilted else ""),
            lambda seq=seq, signal=signal: iqfi.haar_average_iqfi(
                seq, signal, cfg=gate_config(), samples=HAAR_SAMPLES),
            lambda r: {"K": r.value, "stderr": r.stderr},
            _haar_check(T, signal, _six_state_k(times, mats, T, signal, make))))

    warm = protocol.make_pi_train([0.5], 1.0, axis="y")
    return Workload(cases, lambda: (
        _cli_haar(["--protocol", "pi-train", "--T", "1"]),
        iqfi.haar_average_iqfi(warm, SignalParams(B=0.0, omega=0.0, phi=0.5), samples=64)),
        boundaries=("cli.main", "haar_average_iqfi", "qfi_vs_omega",
                    "discrete_propagators"),
        min_rounds=3)


WORKLOADS = {"trains": trains, "sweep": sweep, "drive": drive, "haar": haar}
