"""Command line front end: spectra, integrals, figure data, bound battery.

Each command accepts --config, --out and only the flags it reads (see
build_parser); any other flag is an argparse error.  Every command resolves
its settings in the same order: explicit flags win, then values from
--config (flat INI-style key = value, dashes or underscores), then built-in
defaults.  A config file may hold the keys of every command's flags, so one
file serves them all; a command reads only the keys of its own flags.
Output files are written to a temporary name and atomically renamed, so a
failed run never leaves a truncated file, and identical inputs produce
byte-identical outputs.

Exit codes: 0 ok, 2 bad flags or config or a number out of range, 3
integration failure, 4 bound violation (bounds-check only).  Every layer
signals a failure by its exception type alone: ValueError (bad input) and
OverflowError give 2, IntegrationError (QuadratureNonConvergence among
them) 3; main is the one place that maps them to exit codes.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .bounds import (
    BoundReport,
    b0_linear_bound,
    ghz_scaling,
    n_pulse_bound,
    ramsey_closed_form,
    report_bound,
    report_equality,
    report_lower_bound,
    rwa_iqfi_lower_bound,
)
from .evolution import ODE_TOL, IntegrationError, qfi_vs_omega
from .iqfi import (
    QuadratureConfig,
    feature_scale,
    haar_average_iqfi,
    integrate_iqfi,
    integrate_qfi_band,
    sweep_iqfi_vs_T,
)
from .protocol import (
    GhzProtocol,
    PulseSequence,
    TransverseDrive,
    make_pi2_train,
    make_pi_train,
    make_ramsey,
    make_trotterized_gx,
    random_pulse_sequence,
)
from .signal_core import SignalParams

SCHEMA_TAG = "# iqfi-lab v1"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_BOUND = 4

PROTOCOL_NAMES = ("ramsey", "pi-train", "pi2-train", "trotter-gx", "gx", "ghz")

# battery and acceptance checks start the closed-form tail further out than
# the default factor of 40: it is exact for pulse trains at B = 0, but at
# B != 0 its error bound falls as 1/factor^2
BATTERY_CFG_KW = dict(tail_start_factor=240.0, max_panels=40000)
BATTERY_SEED = 1905
# Bloch angles (alpha, beta) of the six Pauli eigenstates; the mean of K
# over them is the exact Haar average, since J has degree 2 in psi0, psi0*
PAULI_STATES = ((0.0, 0.0), (math.pi, 0.0), (math.pi / 2.0, 0.0),
                (math.pi / 2.0, math.pi), (math.pi / 2.0, math.pi / 2.0),
                (math.pi / 2.0, 1.5 * math.pi))


# -- config file ---------------------------------------------------------------

def _load_config(path: str, types: dict) -> dict:
    """Config values by normalized key, converted by types[key]."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    cp = configparser.ConfigParser()
    # keys before the first section header go to a section of their own;
    # configparser reads the first line neither blank nor a comment as one
    lines = (ln.strip() for ln in text.split("\n"))
    if not cp.SECTCRE.match(next((ln for ln in lines
                                  if ln and ln[0] not in "#;"), "")):
        text = "[iqfi-lab]\n" + text
    try:
        cp.read_string(text)
    except configparser.Error as exc:  # its text spans lines; ours does not
        raise ValueError(f"config parse error in {path}: "
                         f"{' '.join(str(exc).split())}")

    out = {}
    for sec in cp.sections():
        for key, raw in cp.items(sec):
            norm = key.strip().lower().replace("-", "_")
            if norm not in types:
                raise ValueError(f"unknown config key {key!r} in {path}")
            try:
                out[norm] = types[norm](raw.strip())
            except ValueError:
                raise ValueError(
                    f"bad value for {key!r} in {path}: {raw.strip()!r}")
    return out


def _resolve(args, key: str, default, conv=None):
    """Flag value if given, else config value, else default.  A key that is
    not one of the command's flags is not read from the config either."""
    if not hasattr(args, key):
        return default
    val = getattr(args, key)
    if val is None:
        val = args._config.get(key.lower())
    if val is None:
        return default
    return conv(val) if conv is not None else val


def _float_list(text) -> list:
    parts = [p for p in str(text).replace(";", ",").split(",") if p.strip()]
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")


# -- output --------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_text(header: str, rows, comments=()) -> str:
    lines = [SCHEMA_TAG]
    lines.extend(f"# {c}" for c in comments)
    lines.append(header)
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    # a NaN or infinity is a ValueError, not a token JSON lacks
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _atomic_write(path: str, text: str) -> None:
    path = os.path.abspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".iqfi-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}")


def _emit(text: str, out) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


def _write(args, default_format: str, payload, header: str, rows) -> None:
    """Emit payload as JSON or header and rows as CSV, as --format says,
    to --out or stdout."""
    fmt = _resolve(args, "format", default_format, str)
    if fmt == "json":
        text = _json_text(payload)
    elif fmt == "csv":
        text = _csv_text(header, rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    _emit(text, _resolve(args, "out", None, str))


# -- protocol construction -----------------------------------------------------


def _build_signal(args, default_b: float = 0.0) -> SignalParams:
    b_list = _float_list(_resolve(args, "B", repr(default_b)))
    if len(b_list) != 1:
        raise ValueError("this command takes a single --B value")
    return SignalParams(
        B=b_list[0],
        omega=0.0,
        phi=_resolve(args, "phi", 0.0, float),
        zeta=_resolve(args, "zeta", 1.0, float),
    )


def _default_pi_times(T: float) -> list:
    n = int(math.floor(T))
    ts = [float(k) for k in range(1, n + 1) if k < T]
    return ts if ts else [T / 2.0]


def _duration(args, default: float) -> float:
    """--T, checked before the pulse-time and segment defaults derive from it."""
    T = _resolve(args, "T", default, float)
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"--T must be positive and finite, got {T}")
    return T


def _ode_tol(args) -> float:
    tol = _resolve(args, "ode_tol", ODE_TOL, float)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"--ode-tol must be positive and finite, got {tol}")
    return tol


def _build_protocol(args, name=None, T=None):
    """The protocol of the command's flags; name and T, if given, stand for
    --protocol and --T.  Flags the command lacks take their defaults."""
    name = name or _resolve(args, "protocol", "ramsey", str)
    if name not in PROTOCOL_NAMES:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {', '.join(PROTOCOL_NAMES)}")
    T = _duration(args, 4.0) if T is None else T
    alpha = _resolve(args, "alpha", math.pi / 2.0, float)
    beta = _resolve(args, "beta", 0.0, float)
    state = (alpha, beta)
    try:
        if name == "ramsey":
            protocol = make_ramsey(T, initial_state=state)
        elif name == "pi-train":
            times_raw = _resolve(args, "times", None)
            times = _float_list(times_raw) if times_raw is not None \
                else _default_pi_times(T)
            protocol = make_pi_train(times, T, initial_state=state)
        elif name == "pi2-train":
            spacing = _resolve(args, "spacing", 0.5, float)
            protocol = make_pi2_train(spacing, T, initial_state=state)
        elif name == "trotter-gx":
            g = _resolve(args, "g", math.pi / 2.0, float)
            m = _resolve(args, "m", max(1, int(round(2 * T))), int)
            protocol = make_trotterized_gx(T, m=m, g=g, initial_state=state)
        elif name == "gx":
            g = _resolve(args, "g", math.pi / 2.0, float)
            protocol = TransverseDrive(g=g, total_time=T)
        else:  # ghz
            n = _resolve(args, "n", 2, int)
            times_raw = _resolve(args, "times", None)
            times = tuple(_float_list(times_raw)) if times_raw is not None \
                else (0.0, T)
            flips_raw = _resolve(args, "flips", None)
            flips = tuple(_float_list(flips_raw)) if flips_raw is not None \
                else None
            protocol = GhzProtocol(n=n, times=times, flips=flips)
            # --times fix a register's duration; a --T besides must agree
            given = _resolve(args, "T", None) is not None
            if times_raw is not None and given and protocol.total_time != T:
                raise ValueError(f"--times end at {protocol.total_time}, "
                                 f"not at --T {T}")
    except ValueError as exc:
        raise ValueError(f"bad protocol parameters: {exc}")
    return protocol


def _quad_cfg(args, **base) -> QuadratureConfig:
    """base, overridden by the quadrature settings the user gave; the rest
    keep QuadratureConfig's defaults."""
    for key, field in (("rel_tol", "rel_tol"), ("max_panels", "max_panels"),
                       ("tail_factor", "tail_start_factor")):
        val = _resolve(args, key, None)
        if val is not None:
            base[field] = val
    return QuadratureConfig(**base)


def _grid(args, protocol, signal) -> np.ndarray:
    lo = _resolve(args, "omega_min", 0.0, float)
    hi = _resolve(args, "omega_max", None, float)
    if hi is None:
        hi = 8.0 * feature_scale(protocol, signal)
    return _omega_grid(lo, hi, _resolve(args, "points", 513, int))


def _omega_grid(lo: float, hi: float, points: int) -> np.ndarray:
    # one chained comparison, so that a NaN edge fails it too
    if points < 2 or not 0.0 <= lo < hi < math.inf:
        raise ValueError("need finite 0 <= omega-min < omega-max and "
                         "points >= 2")
    return np.linspace(lo, hi, points)


# -- commands ------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    signal = _build_signal(args)
    protocol = _build_protocol(args)
    omegas = _grid(args, protocol, signal)
    values = qfi_vs_omega(protocol, signal, omegas=omegas,
                          ode_tol=_ode_tol(args))
    _write(args, "csv", {"schema": SCHEMA_TAG.lstrip("# "),
                         "omega": [float(w) for w in omegas],
                         "J": [float(v) for v in values]},
           "omega,J", zip(omegas.tolist(), values.tolist()))
    return EXIT_OK


def _applicable_bounds(protocol, signal, k: float, k_err: float) -> list:
    reports = []
    T = float(protocol.total_time)
    z = signal.zeta
    if isinstance(protocol, PulseSequence):
        # both caps hold at signal phase 0 only: a single tilted-phase
        # segment already reaches 2 zeta^2 T (pi + ln 4), above the flat cap
        if signal.phi == 0.0:
            n_seg = protocol.segment_count()
            reports.append(report_bound(
                "segment_count_cap", k, n_pulse_bound(n_seg, T, zeta=z),
                slack=k_err))
            if z * abs(signal.B) * T <= 0.5:
                reports.append(report_bound(
                    "small_field_cap", k, b0_linear_bound(T, signal.B, zeta=z),
                    slack=k_err))
    elif isinstance(protocol, GhzProtocol):
        if signal.B == 0.0 and signal.phi == 0.0:
            ent, _ = ghz_scaling(protocol.n, T, zeta=z)
            reports.append(report_equality(
                "ghz_entangled_value", k, ent, tolerance=0.01))
    elif isinstance(protocol, TransverseDrive):
        # a floor of 0 (at B = 0) or below bounds nothing
        floor = rwa_iqfi_lower_bound(T=T, B=signal.B, g=protocol.g, zeta=z)
        if floor > 0.0:
            reports.append(report_lower_bound("resonance_band_floor", k,
                                              floor))
    return reports


def cmd_iqfi(args) -> int:
    signal = _build_signal(args)
    protocol = _build_protocol(args)
    spectrum = integrate_iqfi(protocol, signal, cfg=_quad_cfg(args),
                              ode_tol=_ode_tol(args))
    reports = _applicable_bounds(protocol, signal, spectrum.integral,
                                 spectrum.error_estimate)
    values = {"K": spectrum.integral, "K_err": spectrum.error_estimate,
              "tail_start": spectrum.tail_start, "method": spectrum.method}
    _write(args, "json", {"schema": SCHEMA_TAG.lstrip("# "), **values,
                          "bounds": [r.to_dict() for r in reports]},
           "key,value", [*values.items(),
                         *((f"margin[{r.name}]", r.margin) for r in reports)])
    return EXIT_OK


def cmd_fig1(args) -> int:
    t_list = _float_list(_resolve(args, "T_list", "2,3,4,6,8,11,16,23,32"))
    b_list = _float_list(_resolve(args, "B", "1.0,0.01"))
    # an empty list (",") would write files without rows, or no file
    if not t_list or not all(math.isfinite(T) and T > 0.0 for T in t_list):
        raise ValueError(f"--T-list entries must be positive and finite, "
                         f"got {t_list}")
    if not b_list or not all(math.isfinite(b) for b in b_list):
        raise ValueError(f"--B values must be finite, got {b_list}")
    g = _resolve(args, "g", math.pi / 2.0, float)
    if not math.isfinite(g):
        raise ValueError(f"--g must be finite, got {g}")
    cfg = _quad_cfg(args, **BATTERY_CFG_KW)
    window = _float_list(_resolve(args, "slope_window", "8,32"))
    # one chained comparison, so that a NaN edge fails it too
    if len(window) != 2 or not -math.inf < window[0] < window[1] < math.inf:
        raise ValueError(f"--slope-window needs two finite numbers lo < hi, "
                         f"got {window}")
    out = _resolve(args, "out", "fig1.csv", str)

    def family(T):
        return _build_protocol(args, "trotter-gx", T)

    for b in b_list:
        sweep = sweep_iqfi_vs_T(family, t_list, SignalParams(B=b, omega=0.0),
                                cfg=cfg, slope_window=tuple(window))
        nan = float("nan")
        rows = [(p.T, nan if p.failed else p.K, nan if p.failed else p.K_err,
                 sweep.slope) for p in sweep.points]
        text = _csv_text("T,K,K_err,slope_window", rows,
                         comments=[f"B={_fmt(b)} g={_fmt(g)} m=2T "
                                   f"slope fitted on [{_fmt(window[0])},"
                                   f"{_fmt(window[1])}]"])
        path = out if len(b_list) == 1 else _suffixed(out, f"B{_fmt(b)}")
        _emit(text, path)
    return EXIT_OK


def _suffixed(path: str, tag: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}-{tag}{ext or '.csv'}"


def cmd_fig2(args) -> int:
    T = _duration(args, 8.0)
    g = _resolve(args, "g", math.pi / 2.0, float)
    signal = _build_signal(args, default_b=1.0)
    ode_tol = _ode_tol(args)
    out = _resolve(args, "out", "fig2", str)

    protocols = [(tag, _build_protocol(args, tag, T))
                 for tag in ("ramsey", "pi-train", "pi2-train", "gx")]
    lo = _resolve(args, "omega_min", 0.0, float)
    hi = _resolve(args, "omega_max", max(4.0 * g, 8.0 * math.pi / T), float)
    omegas = _omega_grid(lo, hi, _resolve(args, "points", 601, int))
    for tag, protocol in protocols:
        values = qfi_vs_omega(protocol, signal, omegas=omegas,
                              ode_tol=ode_tol)
        text = _csv_text("omega,J", zip(omegas.tolist(), values.tolist()),
                         comments=[f"protocol={tag} T={_fmt(T)} "
                                   f"zeta_B={_fmt(signal.zeta * signal.B)}"])
        _emit(text, _suffixed(out, tag))
    return EXIT_OK


# -- bound battery -------------------------------------------------------------


def _worst_of(draws: int, draw) -> BoundReport:
    """The report of least margin over `draws` calls of draw(), in order,
    the first on ties; its name gains the suffix _worst_of_<draws>."""
    worst = min((draw() for _ in range(draws)), key=lambda r: r.margin)
    return replace(worst, name=f"{worst.name}_worst_of_{draws}")


def run_bound_battery(seed: int = BATTERY_SEED, draws: int = 10,
                      cfg: QuadratureConfig = None) -> list:
    """Randomized regression battery over every closed form and cap."""
    if draws < 1:  # each worst-of-draws item needs a draw
        raise ValueError(f"--draws must be >= 1, got {draws}")
    if seed < 0:  # numpy's generators take no negative seed
        raise ValueError(f"--seed must be >= 0, got {seed}")
    cfg = cfg or QuadratureConfig(**BATTERY_CFG_KW)
    rng = np.random.default_rng(seed)
    reports = []
    z2pi = 2.0 * math.pi

    T = 4.0
    sig = SignalParams(B=0.1, omega=0.0)
    k = integrate_iqfi(make_ramsey(T), sig, cfg=cfg).integral
    reports.append(report_equality(
        "ramsey_flat_phase", k, ramsey_closed_form(T), tolerance=0.005))
    sig_phi = SignalParams(B=0.1, omega=0.0, phi=0.75 * math.pi)
    k = integrate_iqfi(make_ramsey(T), sig_phi, cfg=cfg).integral
    reports.append(report_equality(
        "ramsey_tilted_phase", k, ramsey_closed_form(T, phi=0.75 * math.pi),
        tolerance=0.005))

    def pi_train():
        seq = random_pulse_sequence(rng, T, max_pulses=16, kind="pi_xy",
                                    equator=True)
        return report_equality("pi_train_invariance",
                               integrate_iqfi(seq, sig, cfg=cfg).integral,
                               z2pi * T, tolerance=0.01)
    reports.append(_worst_of(draws, pi_train))

    r = haar_average_iqfi(make_pi_train([1.0, 2.0, 3.0], T), sig, cfg=cfg)
    reports.append(report_equality(
        "haar_pi_train", r.value, (2.0 / 3.0) * z2pi * T, tolerance=0.01))

    seq = random_pulse_sequence(rng, T, max_pulses=6)
    sig_tilted = SignalParams(B=0.5, omega=0.0, phi=0.3)
    exact = haar_average_iqfi(seq, sig_tilted, cfg=cfg).value
    six = math.fsum(integrate_iqfi(PulseSequence(seq.pulses, T, state),
                                   sig_tilted, cfg=cfg).integral
                    for state in PAULI_STATES) / len(PAULI_STATES)
    reports.append(report_equality(
        "haar_exact_vs_six_states", exact, six, tolerance=1e-9))

    def small_field():
        Td = float(rng.uniform(0.5, 4.0))
        b = float(rng.uniform(0.0, 0.1 / Td))
        seq = random_pulse_sequence(rng, Td, max_pulses=8)
        spec = integrate_iqfi(seq, SignalParams(B=b, omega=0.0), cfg=cfg)
        return report_bound("small_field_cap", spec.integral,
                            b0_linear_bound(Td, b), slack=spec.error_estimate)
    reports.append(_worst_of(draws, small_field))

    def segment_count():
        Td = float(rng.uniform(0.5, 4.0))
        seq = random_pulse_sequence(rng, Td, max_pulses=8)
        spec = integrate_iqfi(seq, SignalParams(B=1.0, omega=0.0), cfg=cfg)
        return report_bound("segment_count_cap", spec.integral,
                            n_pulse_bound(seq.segment_count(), Td),
                            slack=spec.error_estimate)
    reports.append(_worst_of(draws, segment_count))

    for n in (2, 3):
        proto = GhzProtocol(n=n, times=(0.0, T))
        k = integrate_iqfi(proto, SignalParams(B=0.0, omega=0.0),
                           cfg=cfg).integral
        ent, _ = ghz_scaling(n, T)
        reports.append(report_equality(
            f"ghz_n{n}_entangled_value", k, ent, tolerance=0.01))

    g = math.pi / 2.0
    drive = TransverseDrive(g=g, total_time=8.0)
    band = integrate_qfi_band(drive, SignalParams(B=1.0, omega=0.0),
                              g, 3.0 * g)
    reports.append(report_lower_bound(
        "resonance_band_floor", band.integral,
        rwa_iqfi_lower_bound(T=8.0, B=1.0, g=g)))
    return reports


def cmd_bounds_check(args) -> int:
    seed = _resolve(args, "seed", BATTERY_SEED, int)
    draws = _resolve(args, "draws", 10, int)
    reports = [r.to_dict() for r in run_bound_battery(seed, draws=draws)]
    _write(args, "json", reports, ",".join(reports[0]),
           [r.values() for r in reports])
    if not all(r["satisfied"] for r in reports):
        return EXIT_BOUND
    return EXIT_OK


def cmd_haar(args) -> int:
    signal = _build_signal(args)
    protocol = _build_protocol(args)
    if not isinstance(protocol, PulseSequence):
        raise ValueError("haar requires a pulse-sequence protocol")
    r = haar_average_iqfi(protocol, signal, cfg=_quad_cfg(args))
    values = {"K_avg": r.value, "stderr": r.stderr, "method": r.method,
              "samples": r.samples}
    _write(args, "json", {"schema": SCHEMA_TAG.lstrip("# "), **values},
           "key,value", values.items())
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------------


# add_argument keywords of every flag but --config
_FLAGS = {
    "--protocol": dict(choices=PROTOCOL_NAMES,
                       help="protocol family (default ramsey)"),
    "--T": dict(type=float, help="total duration (default 4)"),
    "--B": dict(help="field value (default 0)"),
    "--zeta": dict(type=float, help="field-to-frequency factor (default 1)"),
    "--phi": dict(type=float, help="signal phase offset (default 0)"),
    "--g": dict(type=float, help="drive rate (default pi/2)"),
    "--m": dict(type=int, help="trotter segment count (default 2T)"),
    "--times": dict(help="comma list: pulse times / ghz boundaries"),
    "--spacing": dict(type=float, help="pi/2-train spacing (default 0.5)"),
    "--n": dict(type=int, help="ghz qubit count (default 2)"),
    "--alpha": dict(type=float, help="initial polar angle (default pi/2)"),
    "--beta": dict(type=float, help="initial azimuth (default 0)"),
    "--flips": dict(help="ghz collective flips per interior boundary, "
                         "0/1 list"),
    "--omega-min": dict(type=float, help="grid start (default 0)"),
    "--omega-max": dict(type=float, help="grid end (default 8 times the "
                                         "protocol's highest frequency)"),
    "--points": dict(type=int, help="grid size (default 513)"),
    "--rel-tol": dict(type=float,
                      help="integration relative tolerance (default "
                           f"{QuadratureConfig.rel_tol:g})"),
    "--tail-factor": dict(type=float,
                          help="where the closed-form tail starts, in units "
                               "of the protocol's highest intrinsic "
                               "frequency (default "
                               f"{QuadratureConfig.tail_start_factor:g})"),
    "--max-panels": dict(type=int,
                         help="integration panel budget (default "
                              f"{QuadratureConfig.max_panels})"),
    "--ode-tol": dict(type=float,
                      help="error target of a continuous drive's state and "
                           f"field derivative (default {ODE_TOL:g})"),
    "--T-list": dict(help="comma list of durations (default 2..32)"),
    "--slope-window": dict(help="T window for the log-log fit (default 8,32)"),
    "--draws": dict(type=int,
                    help="random draws per battery item (default 10)"),
    "--seed": dict(type=int, help="battery rng seed (default 1905)"),
    "--format": dict(choices=("csv", "json"), help="output format"),
    "--out": dict(help="output path ('-' = stdout)"),
}
_SIGNAL = ("--B", "--zeta", "--phi")
_PROTOCOL = ("--protocol", "--T", "--g", "--m", "--times", "--spacing", "--n",
             "--alpha", "--beta", "--flips")
_GRID = ("--omega-min", "--omega-max", "--points")
_QUADRATURE = ("--rel-tol", "--tail-factor", "--max-panels")
# name, function, help, the flags it reads besides --config and --out, and
# the help texts that differ from _FLAGS'
_COMMANDS = (
    ("spectrum", cmd_spectrum, "J(B|omega) on a frequency grid",
     _SIGNAL + _PROTOCOL + _GRID + ("--ode-tol", "--format"), {}),
    ("iqfi", cmd_iqfi, "integrated QFI with error estimate and bounds",
     _SIGNAL + _PROTOCOL + _QUADRATURE + ("--ode-tol", "--format"), {}),
    ("fig1", cmd_fig1, "K vs T sweep for the trotterized drive",
     ("--B", "--g", "--rel-tol", "--T-list", "--slope-window"),
     {"--B": "comma list of field values, one output file each "
             "(default 1.0,0.01)",
      "--out": "output path; with several fields, one file per field "
               "(default fig1.csv)"}),
    ("fig2", cmd_fig2, "spectra of the four standard protocols",
     ("--T", "--g") + _SIGNAL + _GRID + ("--ode-tol",),
     {"--B": "field value (default 1)", "--T": "total duration (default 8)",
      "--omega-max": "grid end (default max(4g, 8 pi/T))",
      "--points": "grid size (default 601)",
      "--out": "output stem; one file per protocol (default fig2)"}),
    ("bounds-check", cmd_bounds_check, "randomized bound battery",
     ("--draws", "--seed", "--format"), {}),
    ("haar", cmd_haar, "initial-state averaged integrated QFI",
     _SIGNAL + _PROTOCOL + _QUADRATURE + ("--format",), {}),
)


def build_parser() -> argparse.ArgumentParser:
    """Subcommands with the flags each reads; the parser's defaults carry
    config_types, the converter of every command's config key."""
    ap = argparse.ArgumentParser(
        prog="iqfi-lab",
        description="Broadband sensing toolkit: QFI spectra, integrated "
                    "sensitivity, figure data, and bound checks.")
    sub = ap.add_subparsers(dest="command", required=True)
    types = {}
    for name, fn, help_text, flags, helps in _COMMANDS:
        # exact names only: a prefix would let fig1's --T mean --T-list
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="INI-style config file; flags override")
        for flag in flags + ("--out",):
            action = p.add_argument(flag, **_FLAGS[flag])
            action.help = helps.get(flag, action.help)
            types[action.dest.lower()] = action.type or str
        p.set_defaults(func=fn)
    ap.set_defaults(config_types=types)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args._config = (_load_config(args.config, args.config_types)
                        if args.config else {})
        return args.func(args)
    except ValueError as exc:  # bad input, from any layer
        print(f"iqfi-lab: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:  # math on a number beyond the floats
        print(f"iqfi-lab: a number is out of range: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:  # QuadratureNonConvergence too
        print(f"iqfi-lab: integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
