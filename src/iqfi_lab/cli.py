"""Command line front end: spectra, integrals, figure data, bound battery.

Every command resolves its settings in the same order: explicit flags win,
then values from --config (flat INI-style key = value, dashes or
underscores), then built-in defaults.  Output files are written to a
temporary name and atomically renamed, so a failed run never leaves a
truncated file, and identical inputs produce byte-identical outputs.

Exit codes: 0 ok, 2 bad flags or config, 3 integration failure, 4 bound
violation (bounds-check only).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bounds import (
    BoundReport,
    b0_linear_bound,
    ghz_scaling,
    n_pulse_bound,
    ramsey_closed_form,
    report_bound,
    report_equality,
    rwa_iqfi_lower_bound,
)
from .evolution import IntegrationError, discrete_propagators, qfi_vs_omega
from .iqfi import (
    DEFAULT_HAAR_SAMPLES,
    DEFAULT_HAAR_SEED,
    QuadratureConfig,
    QuadratureNonConvergence,
    _feature_scale,
    _integrate_protocol,
    fit_loglog_slope,
    haar_average_iqfi,
    integrate_iqfi,
    integrate_qfi_band,
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

# battery and acceptance checks read the far tail; the default factor of 40
# is fine for single spectra but near-coincident pulses in random trains
# need the asymptote read further out
BATTERY_CFG_KW = dict(tail_start_factor=240.0, max_panels=40000)


class ConfigError(Exception):
    pass


# -- config file ---------------------------------------------------------------

_CONFIG_KEYS = {
    "protocol": str, "t": float, "b": str, "zeta": float, "phi": float,
    "g": float, "m": int, "omega_min": float, "omega_max": float,
    "points": int, "rel_tol": float, "seed": int, "jobs": int, "out": str,
    "format": str, "times": str, "spacing": float, "n": int, "alpha": float,
    "beta": float, "flips": str, "samples": int, "draws": int,
    "t_list": str, "slope_window": str, "ode_tol": float,
    "max_panels": int, "tail_factor": float,
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.MissingSectionHeaderError:
        try:
            cp.read_string("[iqfi-lab]\n" + text)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error in {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}")

    out = {}
    sections = list(cp.sections())
    for sec in sections:
        for key, raw in cp.items(sec):
            norm = key.strip().lower().replace("-", "_")
            if norm not in _CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            conv = _CONFIG_KEYS[norm]
            try:
                out[norm] = conv(raw.strip())
            except ValueError:
                raise ConfigError(
                    f"bad value for {key!r} in {path}: {raw.strip()!r}")
    return out


def _resolve(args, key: str, default, conv=None):
    """Flag value if given, else config value, else default."""
    val = getattr(args, key, None)
    if val is None:
        val = args._config.get(key.lower())
    if val is None:
        return default
    return conv(val) if conv is not None else val


def _float_list(text) -> list:
    if isinstance(text, (list, tuple)):
        return [float(x) for x in text]
    parts = [p for p in str(text).replace(";", ",").split(",") if p.strip()]
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")


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
    return json.dumps(obj, indent=2) + "\n"


def _atomic_write(path: str, text: str) -> None:
    path = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".iqfi-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


# -- protocol construction -----------------------------------------------------


def _build_signal(args) -> SignalParams:
    b_raw = _resolve(args, "B", "0.0")
    b_list = _float_list(b_raw)
    if len(b_list) != 1:
        raise ConfigError("this command takes a single --B value")
    try:
        return SignalParams(
            B=b_list[0],
            omega=0.0,
            phi=_resolve(args, "phi", 0.0, float),
            zeta=_resolve(args, "zeta", 1.0, float),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


def _default_pi_times(T: float) -> list:
    n = int(math.floor(T))
    ts = [float(k) for k in range(1, n + 1) if k < T]
    return ts if ts else [T / 2.0]


def _duration(args, default: float) -> float:
    """--T, checked before the pulse-time and segment defaults derive from it."""
    T = _resolve(args, "T", default, float)
    if not (math.isfinite(T) and T > 0.0):
        raise ConfigError(f"--T must be positive and finite, got {T}")
    return T


def _build_protocol(args):
    name = _resolve(args, "protocol", "ramsey", str)
    if name not in PROTOCOL_NAMES:
        raise ConfigError(
            f"unknown protocol {name!r}; choose from {', '.join(PROTOCOL_NAMES)}")
    T = _duration(args, 4.0)
    alpha = _resolve(args, "alpha", math.pi / 2.0, float)
    beta = _resolve(args, "beta", 0.0, float)
    state = (alpha, beta)
    try:
        if name == "ramsey":
            return make_ramsey(T, initial_state=state)
        if name == "pi-train":
            times_raw = _resolve(args, "times", None)
            times = _float_list(times_raw) if times_raw is not None \
                else _default_pi_times(T)
            return make_pi_train(times, T, initial_state=state)
        if name == "pi2-train":
            spacing = _resolve(args, "spacing", 0.5, float)
            return make_pi2_train(spacing, T, initial_state=state)
        if name == "trotter-gx":
            g = _resolve(args, "g", math.pi / 2.0, float)
            m = _resolve(args, "m", max(1, int(round(2 * T))), int)
            return make_trotterized_gx(T, m=m, g=g, initial_state=state)
        if name == "gx":
            g = _resolve(args, "g", math.pi / 2.0, float)
            return TransverseDrive(g=g, total_time=T)
        # ghz
        n = _resolve(args, "n", 2, int)
        times_raw = _resolve(args, "times", None)
        times = tuple(_float_list(times_raw)) if times_raw is not None \
            else (0.0, T)
        flips_raw = _resolve(args, "flips", None)
        flips = None
        if flips_raw is not None:
            flips = tuple(bool(int(x)) for x in _float_list(flips_raw))
        return GhzProtocol(n=n, times=times, flips=flips)
    except ValueError as exc:
        raise ConfigError(f"bad protocol parameters: {exc}")


def _quad_cfg(args) -> QuadratureConfig:
    rel = _resolve(args, "rel_tol", 1e-6, float)
    tf = _resolve(args, "tail_factor", 40.0, float)
    mp = _resolve(args, "max_panels", 8192, int)
    try:
        return QuadratureConfig(rel_tol=rel, tail_start_factor=tf,
                                max_panels=mp)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _grid(args, protocol, signal) -> np.ndarray:
    lo = _resolve(args, "omega_min", 0.0, float)
    hi = _resolve(args, "omega_max", None, float)
    if hi is None:
        hi = 8.0 * _feature_scale(protocol, signal, signal.B)
    points = _resolve(args, "points", 513, int)
    if points < 2 or hi <= lo or lo < 0.0:
        raise ConfigError("need 0 <= omega-min < omega-max and points >= 2")
    return np.linspace(lo, hi, points)


# -- commands ------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    signal = _build_signal(args)
    protocol = _build_protocol(args)
    omegas = _grid(args, protocol, signal)
    ode_tol = _resolve(args, "ode_tol", 1e-9, float)
    values = qfi_vs_omega(protocol, signal, omegas=omegas, ode_tol=ode_tol)
    fmt = _resolve(args, "format", "csv", str)
    out = _resolve(args, "out", None, str)
    if fmt == "json":
        text = _json_text({
            "schema": SCHEMA_TAG.lstrip("# "),
            "omega": [float(w) for w in omegas],
            "J": [float(v) for v in values],
        })
    elif fmt == "csv":
        text = _csv_text("omega,J", zip(omegas.tolist(), values.tolist()))
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    _emit(text, out)
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
        floor = rwa_iqfi_lower_bound(T=T, B=signal.B, g=protocol.g, zeta=z)
        reports.append(BoundReport(
            name="resonance_band_floor", kind="lower_bound", measured=k,
            reference=floor, satisfied=k >= floor,
            margin=(k - floor) / max(abs(floor), 1e-300)))
    return reports


def cmd_iqfi(args) -> int:
    signal = _build_signal(args)
    protocol = _build_protocol(args)
    cfg = _quad_cfg(args)
    ode_tol = _resolve(args, "ode_tol", 1e-9, float)
    spectrum = integrate_iqfi(protocol, signal, cfg=cfg, ode_tol=ode_tol)
    reports = _applicable_bounds(protocol, signal, spectrum.integral,
                                 spectrum.error_estimate)
    fmt = _resolve(args, "format", "json", str)
    out = _resolve(args, "out", None, str)
    if fmt == "json":
        text = _json_text({
            "schema": SCHEMA_TAG.lstrip("# "),
            "K": spectrum.integral,
            "K_err": spectrum.error_estimate,
            "tail_start": spectrum.tail_start,
            "bounds": [r.to_dict() for r in reports],
        })
    elif fmt == "csv":
        rows = [("K", spectrum.integral), ("K_err", spectrum.error_estimate),
                ("tail_start", spectrum.tail_start)]
        rows.extend((f"margin[{r.name}]", r.margin) for r in reports)
        text = _csv_text("key,value", rows)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    _emit(text, out)
    return EXIT_OK


def _fig1_point(task):
    """One (T, B) sweep point; module-level so worker processes can pickle it."""
    T, b, g, rel_tol, ode_tol = task
    seq = make_trotterized_gx(T, m=max(1, int(round(2 * T))), g=g)
    signal = SignalParams(B=b, omega=0.0)
    try:
        cfg = QuadratureConfig(rel_tol=rel_tol, **BATTERY_CFG_KW)
        spec = integrate_iqfi(seq, signal, cfg=cfg, ode_tol=ode_tol)
        return (T, spec.integral, spec.error_estimate, False)
    except (QuadratureNonConvergence, IntegrationError):
        return (T, float("nan"), float("nan"), True)


def cmd_fig1(args) -> int:
    t_list = _float_list(_resolve(args, "t_list", "2,3,4,6,8,11,16,23,32"))
    b_list = _float_list(_resolve(args, "B", "1.0,0.01"))
    if not all(math.isfinite(T) and T > 0.0 for T in t_list):
        raise ConfigError(f"--T-list entries must be positive and finite, "
                          f"got {t_list}")
    if not all(math.isfinite(b) for b in b_list):
        raise ConfigError(f"--B values must be finite, got {b_list}")
    g = _resolve(args, "g", math.pi / 2.0, float)
    rel_tol = _resolve(args, "rel_tol", 1e-6, float)
    ode_tol = _resolve(args, "ode_tol", 1e-9, float)
    window = _float_list(_resolve(args, "slope_window", "8,32"))
    if len(window) != 2:
        raise ConfigError("--slope-window needs exactly two numbers")
    jobs = _jobs(args)
    out = _resolve(args, "out", "fig1.csv", str)

    for b in b_list:
        tasks = [(T, b, g, rel_tol, ode_tol) for T in t_list]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                points = list(pool.map(_fig1_point, tasks))
        else:
            points = [_fig1_point(t) for t in tasks]
        good = [(T, k) for T, k, _, failed in points if not failed]
        slope = fit_loglog_slope([t for t, _ in good], [k for _, k in good],
                                 (window[0], window[1]))
        rows = [(T, k, err, slope) for T, k, err, _failed in points]
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
    signal = _build_signal_default_b(args, 1.0)
    ode_tol = _resolve(args, "ode_tol", 1e-9, float)
    out = _resolve(args, "out", "fig2", str)

    protocols = [
        ("ramsey", make_ramsey(T)),
        ("pi-train", make_pi_train(_default_pi_times(T), T)),
        ("pi2-train", make_pi2_train(0.5, T)),
        ("gx", TransverseDrive(g=g, total_time=T)),
    ]
    lo = _resolve(args, "omega_min", 0.0, float)
    hi = _resolve(args, "omega_max", max(4.0 * g, 8.0 * math.pi / T), float)
    points = _resolve(args, "points", 601, int)
    if points < 2 or hi <= lo or lo < 0.0:
        raise ConfigError("need 0 <= omega-min < omega-max and points >= 2")
    omegas = np.linspace(lo, hi, points)
    for tag, protocol in protocols:
        values = qfi_vs_omega(protocol, signal, omegas=omegas, ode_tol=ode_tol)
        text = _csv_text("omega,J", zip(omegas.tolist(), values.tolist()),
                         comments=[f"protocol={tag} T={_fmt(T)} "
                                   f"zeta_B={_fmt(signal.zeta * signal.B)}"])
        _emit(text, _suffixed(out, tag))
    return EXIT_OK


def _build_signal_default_b(args, default_b: float) -> SignalParams:
    b_raw = _resolve(args, "B", None)
    b = _float_list(b_raw)[0] if b_raw is not None else default_b
    try:
        return SignalParams(B=b, omega=0.0,
                            phi=_resolve(args, "phi", 0.0, float),
                            zeta=_resolve(args, "zeta", 1.0, float))
    except ValueError as exc:
        raise ConfigError(str(exc))


# -- bound battery -------------------------------------------------------------


def _haar_trace_mean(seq, signal, cfg) -> float:
    """Exact initial-state average of K on the integrator's node set."""
    pilot, weights = _integrate_protocol(seq, signal, signal.B, cfg,
                                         ode_tol=1e-9)
    om = pilot.omegas
    P, W = discrete_propagators(seq, signal, signal.B, om)
    A = np.einsum("nij,nik->njk", W.conj(), W)
    M = np.einsum("nij,nik->njk", W.conj(), P)
    tr_a = np.einsum("njj->n", A).real
    tr_m = np.einsum("njj->n", M)
    tr_m2 = np.einsum("nij,nji->n", M, M)
    mean_j = 4.0 * (tr_a / 2.0 + (tr_m * tr_m + tr_m2).real / 6.0)
    hi = pilot.tail_start
    lo = hi / 10.0
    mask = om >= lo
    x = (om[mask] - lo) / (hi - lo)
    tw = weights[mask] * np.sin(math.pi * x) ** 2
    c = float(np.dot(tw, om[mask] ** 2 * mean_j[mask]) / np.sum(tw))
    return float(np.dot(weights, mean_j)) + c / hi


def run_bound_battery(seed: int, draws: int = 10,
                      cfg: QuadratureConfig = None) -> list:
    """Randomized regression battery over every closed form and cap."""
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

    worst_rel, worst_k = 0.0, z2pi * T
    for _ in range(draws):
        seq = random_pulse_sequence(rng, T, max_pulses=16, kind="pi_xy",
                                    equator=True)
        k = integrate_iqfi(seq, sig, cfg=cfg).integral
        rel = abs(k - z2pi * T) / (z2pi * T)
        if rel > worst_rel:
            worst_rel, worst_k = rel, k
    reports.append(report_equality(
        f"pi_train_invariance_worst_of_{draws}", worst_k, z2pi * T,
        tolerance=0.01))

    r = haar_average_iqfi(make_pi_train([1.0, 2.0, 3.0], T), sig, cfg=cfg)
    reports.append(report_equality(
        "haar_pi_train", r.value, (2.0 / 3.0) * z2pi * T, tolerance=0.01))

    seq = random_pulse_sequence(rng, T, max_pulses=6)
    sig_mc = SignalParams(B=0.5, omega=0.0, phi=0.3)
    mc = haar_average_iqfi(seq, sig_mc, cfg=cfg)
    exact = _haar_trace_mean(seq, sig_mc, cfg)
    tol = 4.0 * mc.stderr / max(abs(exact), 1e-300)
    reports.append(report_equality(
        "haar_mc_vs_trace_formula", mc.value, exact, tolerance=tol))

    worst = None
    for _ in range(draws):
        Td = float(rng.uniform(0.5, 4.0))
        b = float(rng.uniform(0.0, 0.1 / Td))
        seq = random_pulse_sequence(rng, Td, max_pulses=8)
        spec = integrate_iqfi(seq, SignalParams(B=b, omega=0.0), cfg=cfg)
        rep = report_bound("small_field_cap", spec.integral,
                           b0_linear_bound(Td, b),
                           slack=spec.error_estimate)
        if worst is None or rep.margin < worst.margin:
            worst = rep
    reports.append(BoundReport(
        name=f"small_field_cap_worst_of_{draws}", kind=worst.kind,
        measured=worst.measured, reference=worst.reference,
        satisfied=worst.satisfied, margin=worst.margin,
        tolerance=worst.tolerance))

    worst = None
    for _ in range(draws):
        Td = float(rng.uniform(0.5, 4.0))
        seq = random_pulse_sequence(rng, Td, max_pulses=8)
        spec = integrate_iqfi(seq, SignalParams(B=1.0, omega=0.0), cfg=cfg)
        rep = report_bound("segment_count_cap", spec.integral,
                           n_pulse_bound(seq.segment_count(), Td),
                           slack=spec.error_estimate)
        if worst is None or rep.margin < worst.margin:
            worst = rep
    reports.append(BoundReport(
        name=f"segment_count_cap_worst_of_{draws}", kind=worst.kind,
        measured=worst.measured, reference=worst.reference,
        satisfied=worst.satisfied, margin=worst.margin,
        tolerance=worst.tolerance))

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
                              g, 3.0 * g, ode_tol=1e-9)
    floor = rwa_iqfi_lower_bound(T=8.0, B=1.0, g=g)
    reports.append(BoundReport(
        name="resonance_band_floor", kind="lower_bound",
        measured=band.integral, reference=floor,
        satisfied=band.integral >= floor,
        margin=(band.integral - floor) / floor))
    return reports


def cmd_bounds_check(args) -> int:
    seed = _resolve(args, "seed", DEFAULT_HAAR_SEED, int)
    draws = _resolve(args, "draws", 10, int)
    reports = run_bound_battery(seed, draws=draws)
    fmt = _resolve(args, "format", "json", str)
    out = _resolve(args, "out", None, str)
    if fmt == "json":
        text = _json_text([r.to_dict() for r in reports])
    elif fmt == "csv":
        rows = [(r.name, r.kind, r.measured, r.reference, r.satisfied,
                 r.margin, r.tolerance) for r in reports]
        text = _csv_text("name,kind,measured,reference,satisfied,margin,tolerance",
                         rows)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    _emit(text, out)
    if not all(r.satisfied for r in reports):
        return EXIT_BOUND
    return EXIT_OK


def cmd_haar(args) -> int:
    signal = _build_signal(args)
    protocol = _build_protocol(args)
    if not isinstance(protocol, PulseSequence):
        raise ConfigError("haar requires a pulse-sequence protocol")
    cfg = _quad_cfg(args)
    samples = _resolve(args, "samples", DEFAULT_HAAR_SAMPLES, int)
    seed = _resolve(args, "seed", DEFAULT_HAAR_SEED, int)
    r = haar_average_iqfi(protocol, signal, cfg=cfg, samples=samples,
                          seed=seed)
    fmt = _resolve(args, "format", "json", str)
    out = _resolve(args, "out", None, str)
    payload = {"schema": SCHEMA_TAG.lstrip("# "), "K_avg": r.value,
               "stderr": r.stderr, "method": r.method, "samples": r.samples}
    if fmt == "json":
        text = _json_text(payload)
    elif fmt == "csv":
        text = _csv_text("key,value", list(payload.items())[1:])
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    _emit(text, out)
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------------


def _jobs(args) -> int:
    jobs = _resolve(args, "jobs", None, int)
    if jobs is None:
        env = os.environ.get("IQFI_LAB_THREADS", "").strip()
        jobs = int(env) if env else 1
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    return jobs


def _add_common(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--config", help="INI-style config file; flags override")
    ap.add_argument("--protocol", choices=PROTOCOL_NAMES,
                    help="protocol family (default ramsey)")
    ap.add_argument("--T", type=float, help="total duration (default 4)")
    ap.add_argument("--B", help="field value; fig1 takes a comma list")
    ap.add_argument("--zeta", type=float, help="field-to-frequency factor (default 1)")
    ap.add_argument("--phi", type=float, help="signal phase offset (default 0)")
    ap.add_argument("--g", type=float, help="drive rate (default pi/2)")
    ap.add_argument("--m", type=int, help="trotter segment count (default 2T)")
    ap.add_argument("--times", help="comma list: pulse times / ghz boundaries")
    ap.add_argument("--spacing", type=float, help="pi/2-train spacing (default 0.5)")
    ap.add_argument("--n", type=int, help="ghz qubit count (default 2)")
    ap.add_argument("--alpha", type=float, help="initial polar angle (default pi/2)")
    ap.add_argument("--beta", type=float, help="initial azimuth (default 0)")
    ap.add_argument("--flips", help="ghz collective flips per interior boundary, 0/1 list")
    ap.add_argument("--omega-min", dest="omega_min", type=float)
    ap.add_argument("--omega-max", dest="omega_max", type=float)
    ap.add_argument("--points", type=int, help="grid size (default 513)")
    ap.add_argument("--rel-tol", dest="rel_tol", type=float,
                    help="integration relative tolerance (default 1e-6)")
    ap.add_argument("--tail-factor", dest="tail_factor", type=float,
                    help="where the asymptotic tail model starts, in units "
                         "of the protocol's highest intrinsic frequency "
                         "(default 40)")
    ap.add_argument("--max-panels", dest="max_panels", type=int,
                    help="integration panel budget (default 8192)")
    ap.add_argument("--ode-tol", dest="ode_tol", type=float,
                    help="continuous-evolution tolerance (default 1e-9)")
    ap.add_argument("--seed", type=int, help="rng seed (default 1905)")
    ap.add_argument("--jobs", type=int,
                    help="worker processes; env IQFI_LAB_THREADS as fallback")
    ap.add_argument("--out", help="output path ('-' = stdout)")
    ap.add_argument("--format", choices=("csv", "json"), help="output format")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="iqfi-lab",
        description="Broadband sensing toolkit: QFI spectra, integrated "
                    "sensitivity, figure data, and bound checks.")
    sub = ap.add_subparsers(dest="command", required=True)
    specs = [
        ("spectrum", cmd_spectrum, "J(B|omega) on a frequency grid"),
        ("iqfi", cmd_iqfi, "integrated QFI with error estimate and bounds"),
        ("fig1", cmd_fig1, "K vs T sweep for the trotterized drive"),
        ("fig2", cmd_fig2, "spectra of the four standard protocols"),
        ("bounds-check", cmd_bounds_check, "randomized bound battery"),
        ("haar", cmd_haar, "initial-state averaged integrated QFI"),
    ]
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "fig1":
            p.add_argument("--T-list", dest="t_list",
                           help="comma list of durations (default 2..32)")
            p.add_argument("--slope-window", dest="slope_window",
                           help="T window for the log-log fit (default 8,32)")
        if name == "bounds-check":
            p.add_argument("--draws", type=int,
                           help="random draws per battery item (default 10)")
        if name == "haar":
            p.add_argument("--samples", type=int,
                           help="monte carlo sample count (default 4096)")
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args._config = _load_config(args.config) if args.config else {}
    except ConfigError as exc:
        print(f"iqfi-lab: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"iqfi-lab: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureNonConvergence, IntegrationError) as exc:
        print(f"iqfi-lab: integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
