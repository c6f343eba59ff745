"""Command line front end: spectra, integrals, figure data, bound battery.

Which bound holds where is bounds.applicable's, and the battery is
battery.run_bound_battery's; here they are only called.

Each command accepts --config, --out and only the flags it reads (see
build_parser); any other flag is an argparse error.  Every default is
written once, in the parser; one that follows from other settings is None
there and worked out in code.  A --config file (flat INI-style key =
value, dashes or underscores) is read as flags: each key that names one
of the command's flags becomes --flag=value, placed before the command
line's own words, so an explicit flag wins.  One file may hold the keys
of every command's flags.  A command works out its output targets before
it computes: one text goes to --out, or to stdout when --out is '-' or
absent; several go to <stem>-<tag><ext>, and --out - with several is an
error.  One writer, _write, writes every file to a temporary name before
it renames any, so a run that fails writes no file.

build_parser builds the parser of every command once per process, and
main parses every argv with it.

Exit codes: 0 ok, 2 bad flags or config, a number out of range or too
little memory, 3 integration failure, 4 bound violation (bounds-check
only).  Every layer signals a failure by its exception type alone:
ValueError (bad input), OverflowError and MemoryError give 2,
IntegrationError (QuadratureNonConvergence among them) 3; main alone maps
them to exit codes.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .battery import BATTERY_CFG_KW, BATTERY_SEED, run_bound_battery
from .bounds import applicable
from .evolution import ODE_TOL, IntegrationError, feature_scale, qfi_vs_omega
from .iqfi import (
    QuadratureConfig,
    fit_loglog_slope,
    haar_average_iqfi,
    integrate_iqfi,
    sweep_iqfi_vs_T,
)
from .protocol import (
    GhzProtocol,
    TransverseDrive,
    make_pi2_train,
    make_pi_train,
    make_ramsey,
    make_trotterized_gx,
)
from .signal_core import SignalParams

SCHEMA_TAG = "# iqfi-lab v1"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_BOUND = 4

PROTOCOL_NAMES = ("ramsey", "pi-train", "pi2-train", "trotter-gx", "gx", "ghz")


# -- config file ---------------------------------------------------------------

def _config_words(path: str, flags) -> list:
    """The --flag=value words of the config file's keys that name one of
    flags.  Every key must name some command's flag, and its value must
    pass that flag's type."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
        # items() interpolates: a lone '%' in a value is an error too
        items = [item for sec in cp.sections() for item in cp.items(sec)]
    except configparser.Error as exc:  # its text spans lines; ours does not
        raise ValueError(f"config parse error in {path}: "
                         f"{' '.join(str(exc).split())}")

    words = []
    for key, raw in items:
        flag = _CONFIG_KEYS.get(key.strip().lower().replace("-", "_"))
        if flag is None:
            raise ValueError(f"unknown config key {key!r} in {path}")
        value = raw.strip()
        try:
            _FLAGS[flag].get("type", str)(value)
        except ValueError:
            raise ValueError(f"bad value for {key!r} in {path}: {value!r}")
        if flag in flags:
            # one word, so that a value such as -0.5 is no option
            words.append(f"{flag}={value}")
    return words


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


def _targets(args, tags=("",)) -> list:
    """Where each tagged output goes, None for stdout: one goes to --out, or
    to stdout if that is '-' or absent; several go to <stem>-<tag><ext>,
    ext .csv if it has none."""
    out = args.out
    if out == "":  # an empty stem made files named -ramsey.csv, ...
        raise ValueError("--out is empty; give a path, or - for stdout")
    if len(tags) == 1:
        return [None if out in (None, "-") else out]
    if out in (None, "-"):
        raise ValueError(f"--out - takes one output, not {len(tags)}; "
                         f"give a file stem")
    stem, ext = os.path.splitext(out)
    return [f"{stem}-{tag}{ext or '.csv'}" for tag in tags]


def _write(targets: list, texts: list) -> None:
    """The one writer, called once with all texts of a command and their
    _targets.  Files are written all or nothing: every temp file is written
    before any is renamed, and a failure removes them all."""
    if targets == [None]:
        sys.stdout.write(texts[0])
        return
    temps = []
    try:
        for path, text in zip(targets, texts):
            path = os.path.abspath(path)
            if os.path.isdir(path):
                raise ValueError(f"cannot write {path}: it is a directory")
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       prefix=".iqfi-")
            temps.append((tmp, path))
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for tmp, path in temps:
            os.replace(tmp, path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}")
    finally:
        for tmp, _ in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _write_formatted(args, payload, header: str, rows) -> None:
    """Write payload as JSON or header and rows as CSV, as --format says."""
    text = _json_text(payload) if args.format == "json" \
        else _csv_text(header, rows)
    _write(_targets(args), [text])


# -- protocol construction -----------------------------------------------------


def _build_signal(args) -> SignalParams:
    b_list = _float_list(args.B)
    if len(b_list) != 1:
        raise ValueError("this command takes a single --B value")
    return SignalParams(B=b_list[0], omega=0.0, phi=args.phi, zeta=args.zeta)


def _positive(flag: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{flag} must be positive and finite, got {value}")
    return value


def _build_protocol(args, name=None, T=None):
    """The protocol of the command's flags; name and T, if given, stand for
    --protocol and --T.  Flags the command lacks are at their defaults."""
    name = name or args.protocol
    if T is None:  # checked before the pulse-time and segment defaults
        T = _positive("--T", 4.0 if args.T is None else args.T)
    state = (args.alpha, args.beta)
    try:
        if name == "ramsey":
            protocol = make_ramsey(T, initial_state=state)
        elif name == "pi-train":
            times = None if args.times is None else _float_list(args.times)
            protocol = make_pi_train(times, T, initial_state=state)
        elif name == "pi2-train":
            protocol = make_pi2_train(args.spacing, T, initial_state=state)
        elif name == "trotter-gx":
            m = max(1, int(round(2 * T))) if args.m is None else args.m
            protocol = make_trotterized_gx(T, m=m, g=args.g,
                                           initial_state=state)
        elif name == "gx":
            protocol = TransverseDrive(g=args.g, total_time=T)
        else:  # ghz
            times = (0.0, T) if args.times is None \
                else tuple(_float_list(args.times))
            flips = None if args.flips is None \
                else tuple(_float_list(args.flips))
            protocol = GhzProtocol(n=args.n, times=times, flips=flips)
            # --times fix a register's duration; a --T besides must agree
            if args.times is not None and args.T is not None \
                    and protocol.total_time != T:
                raise ValueError(f"--times end at {protocol.total_time}, "
                                 f"not at --T {T}")
    except ValueError as exc:
        raise ValueError(f"bad protocol parameters: {exc}")
    return protocol


def _quad_cfg(args) -> QuadratureConfig:
    return QuadratureConfig(rel_tol=args.rel_tol,
                            tail_start_factor=args.tail_factor,
                            max_panels=args.max_panels)


def _grid(args, default_hi) -> np.ndarray:
    """--points frequencies from --omega-min to --omega-max, whose absence
    default_hi() stands for."""
    lo, hi = args.omega_min, args.omega_max
    hi = default_hi() if hi is None else hi
    # one chained comparison, so that a NaN edge fails it too
    if args.points < 2 or not 0.0 <= lo < hi < math.inf:
        raise ValueError("need finite 0 <= omega-min < omega-max and "
                         "points >= 2")
    return np.linspace(lo, hi, args.points)


# -- commands ------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    signal = _build_signal(args)
    protocol = _build_protocol(args)
    omegas = _grid(args, lambda: 8.0 * feature_scale(protocol, signal))
    values = qfi_vs_omega(protocol, signal, omegas=omegas,
                          ode_tol=_positive("--ode-tol", args.ode_tol))
    _write_formatted(args, {"schema": SCHEMA_TAG.lstrip("# "),
                            "omega": [float(w) for w in omegas],
                            "J": [float(v) for v in values]},
                     "omega,J", zip(omegas.tolist(), values.tolist()))
    return EXIT_OK


def cmd_iqfi(args) -> int:
    signal = _build_signal(args)
    protocol = _build_protocol(args)
    spectrum = integrate_iqfi(protocol, signal, cfg=_quad_cfg(args),
                              ode_tol=_positive("--ode-tol", args.ode_tol))
    reports = applicable(protocol, signal, spectrum.integral,
                         spectrum.error_estimate)
    values = {"K": spectrum.integral, "K_err": spectrum.error_estimate,
              "tail_start": spectrum.tail_start, "method": spectrum.method}
    _write_formatted(args, {"schema": SCHEMA_TAG.lstrip("# "), **values,
                            "bounds": [r.to_dict() for r in reports]},
                     "key,value",
                     [*values.items(),
                      *((f"margin[{r.name}]", r.margin) for r in reports)])
    return EXIT_OK


def cmd_fig1(args) -> int:
    t_list = _float_list(args.T_list)
    b_list = _float_list(args.B)
    # an empty list (",") would write files without rows, or no file
    if not t_list or not all(math.isfinite(T) and T > 0.0 for T in t_list):
        raise ValueError(f"--T-list entries must be positive and finite, "
                         f"got {t_list}")
    if not b_list or not all(math.isfinite(b) for b in b_list):
        raise ValueError(f"--B values must be finite, got {b_list}")
    if not math.isfinite(args.g):
        raise ValueError(f"--g must be finite, got {args.g}")
    cfg = QuadratureConfig(**BATTERY_CFG_KW, rel_tol=args.rel_tol)
    window = _float_list(args.slope_window)
    # one chained comparison, so that a NaN edge fails it too
    if len(window) != 2 or not -math.inf < window[0] < window[1] < math.inf:
        raise ValueError(f"--slope-window needs two finite numbers lo < hi, "
                         f"got {window}")
    targets = _targets(args, [f"B{_fmt(b)}" for b in b_list])
    # after _targets, so that an empty --out reports itself first
    inside = {T for T in t_list if window[0] <= T <= window[1]}
    if len(inside) < 2:
        raise ValueError(f"--slope-window [{_fmt(window[0])},"
                         f"{_fmt(window[1])}] needs two distinct --T-list "
                         f"durations, got {len(inside)}")

    family = functools.partial(_build_protocol, args, "trotter-gx")
    texts = []
    for b in b_list:
        points = sweep_iqfi_vs_T(family, t_list, SignalParams(B=b, omega=0.0),
                                 cfg=cfg)
        slope = fit_loglog_slope([p.T for p in points], [p.K for p in points],
                                 window)
        rows = [(p.T, p.K, p.K_err, slope) for p in points]
        texts.append(_csv_text(
            "T,K,K_err,slope_window", rows,
            comments=[f"B={_fmt(b)} g={_fmt(args.g)} m=2T slope fitted on "
                      f"[{_fmt(window[0])},{_fmt(window[1])}]"]))
    _write(targets, texts)
    return EXIT_OK


def cmd_fig2(args) -> int:
    tags = ("ramsey", "pi-train", "pi2-train", "gx")
    targets = _targets(args, tags)
    T = _positive("--T", args.T)
    signal = _build_signal(args)
    ode_tol = _positive("--ode-tol", args.ode_tol)
    protocols = [_build_protocol(args, tag, T) for tag in tags]
    omegas = _grid(args, lambda: max(4.0 * args.g, 8.0 * math.pi / T))
    texts = []
    for tag, protocol in zip(tags, protocols):
        values = qfi_vs_omega(protocol, signal, omegas=omegas,
                              ode_tol=ode_tol)
        texts.append(_csv_text(
            "omega,J", zip(omegas.tolist(), values.tolist()),
            comments=[f"protocol={tag} T={_fmt(T)} "
                      f"zeta_B={_fmt(signal.zeta * signal.B)}"]))
    _write(targets, texts)
    return EXIT_OK


def cmd_bounds_check(args) -> int:
    reports = [r.to_dict() for r in run_bound_battery(args.seed,
                                                      draws=args.draws)]
    _write_formatted(args, reports, ",".join(reports[0]),
                     [r.values() for r in reports])
    return EXIT_OK if all(r["satisfied"] for r in reports) else EXIT_BOUND


def cmd_haar(args) -> int:
    signal = _build_signal(args)
    r = haar_average_iqfi(_build_protocol(args), signal, cfg=_quad_cfg(args))
    values = {"K_avg": r.value, "stderr": r.stderr, "method": r.method,
              "samples": r.samples}
    _write_formatted(args, {"schema": SCHEMA_TAG.lstrip("# "), **values},
                     "key,value", values.items())
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------------


# add_argument keywords of every flag but --config; a default of None is
# worked out in code
_FLAGS = {
    "--protocol": dict(choices=PROTOCOL_NAMES, default="ramsey",
                       help="protocol family"),
    "--T": dict(type=float, help="total duration (default 4, or the end of "
                                 "a ghz --times list)"),
    "--B": dict(default="0", help="field value"),
    "--zeta": dict(type=float, default=1.0, help="field-to-frequency factor"),
    "--phi": dict(type=float, default=0.0, help="signal phase offset"),
    "--g": dict(type=float, default=math.pi / 2.0, help="drive rate"),
    "--m": dict(type=int, help="trotter segment count (default 2T)"),
    "--times": dict(help="comma list: pulse times / ghz boundaries"),
    "--spacing": dict(type=float, default=0.5, help="pi/2-train spacing"),
    "--n": dict(type=int, default=2, help="ghz qubit count"),
    "--alpha": dict(type=float, default=math.pi / 2.0,
                    help="initial polar angle"),
    "--beta": dict(type=float, default=0.0, help="initial azimuth"),
    "--flips": dict(help="ghz collective flips per interior boundary, "
                         "0/1 list"),
    "--omega-min": dict(type=float, default=0.0, help="grid start"),
    "--omega-max": dict(type=float, help="grid end (default 8 times the "
                                         "protocol's highest frequency)"),
    "--points": dict(type=int, default=513, help="grid size"),
    "--rel-tol": dict(type=float, default=QuadratureConfig.rel_tol,
                      help="relative error budget of the panels; K_err "
                           "adds the tail's bound on top"),
    "--tail-factor": dict(type=float,
                          default=QuadratureConfig.tail_start_factor,
                          help="where the closed-form tail starts, in units "
                               "of the protocol's highest intrinsic "
                               "frequency"),
    "--max-panels": dict(type=int, default=QuadratureConfig.max_panels,
                         help="integration panel budget"),
    "--ode-tol": dict(type=float, default=ODE_TOL,
                      help="error target of a continuous drive's state and "
                           "field derivative"),
    "--T-list": dict(default="2,3,4,6,8,11,16,23,32",
                     help="comma list of durations"),
    "--slope-window": dict(default="8,32",
                           help="T window for the log-log fit"),
    "--draws": dict(type=int, default=10,
                    help="random draws per battery item"),
    "--seed": dict(type=int, default=BATTERY_SEED, help="battery rng seed"),
    "--format": dict(choices=("csv", "json"), default="json",
                     help="output format"),
    "--out": dict(help="output path ('-' = stdout)"),
}
# config keys: the flags' names without dashes, in lower case
_CONFIG_KEYS = {flag.lstrip("-").replace("-", "_").lower(): flag
                for flag in _FLAGS}
# the top parser's defaults, by the flags' dest
_DEFAULTS = {flag[2:].replace("-", "_"): kw.get("default")
             for flag, kw in _FLAGS.items()}
_SIGNAL = ("--B", "--zeta", "--phi")
_PULSES = ("--protocol", "--T", "--g", "--m", "--times", "--spacing")
# haar reads neither the initial state, which the average replaces, nor a
# register's qubits and flips, as it takes pulse sequences only
_PROTOCOL = _PULSES + ("--n", "--alpha", "--beta", "--flips")
_GRID = ("--omega-min", "--omega-max", "--points")
_QUADRATURE = ("--rel-tol", "--tail-factor", "--max-panels")
# name: function, help, the flags it reads besides --config and --out, and
# the add_argument keywords of those whose keywords differ from _FLAGS'
_COMMANDS = {
    "spectrum": (cmd_spectrum, "J(B|omega) on a frequency grid",
                 _SIGNAL + _PROTOCOL + _GRID + ("--ode-tol", "--format"),
                 {"--format": dict(_FLAGS["--format"], default="csv")}),
    "iqfi": (cmd_iqfi, "integrated QFI with error estimate and bounds",
             _SIGNAL + _PROTOCOL + _QUADRATURE + ("--ode-tol", "--format"),
             {}),
    "fig1": (cmd_fig1, "K vs T sweep for the trotterized drive",
             ("--B", "--g", "--rel-tol", "--T-list", "--slope-window"),
             {"--B": dict(_FLAGS["--B"], default="1.0,0.01",
                          help="comma list of field values, one output "
                               "each"),
              "--out": dict(_FLAGS["--out"], default="fig1.csv",
                            help="output path; with several fields, one "
                                 "file per field")}),
    "fig2": (cmd_fig2, "spectra of the four standard protocols",
             ("--T", "--g") + _SIGNAL + _GRID + ("--ode-tol",),
             {"--B": dict(_FLAGS["--B"], default="1"),
              "--T": dict(_FLAGS["--T"], default=8.0, help="total duration"),
              "--omega-max": dict(_FLAGS["--omega-max"],
                                  help="grid end (default max(4g, 8 pi/T))"),
              "--points": dict(_FLAGS["--points"], default=601),
              "--out": dict(_FLAGS["--out"], default="fig2",
                            help="output stem; one file per protocol")}),
    "bounds-check": (cmd_bounds_check, "randomized bound battery",
                     ("--draws", "--seed", "--format"), {}),
    "haar": (cmd_haar, "initial-state averaged integrated QFI",
             _SIGNAL + _PULSES + _QUADRATURE + ("--format",), {}),
}


class _Help(argparse.HelpFormatter):
    """Ends the help of a flag with its default, unless that is None."""

    def _get_help_string(self, action):
        if action.default is None or action.default == argparse.SUPPRESS:
            return action.help
        return action.help + " (default %(default)s)"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Every command's subparser with the flags it reads, built once per
    process; nothing may change it after.  The top parser's defaults hold
    every flag's, so a command reads the flags it lacks at them."""
    ap = argparse.ArgumentParser(
        prog="iqfi-lab",
        description="Broadband sensing toolkit: QFI spectra, integrated "
                    "sensitivity, figure data, and bound checks.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        fn, help_text, flags, overrides = _COMMANDS[name]
        # exact names only: a prefix would let fig1's --T mean --T-list
        p = sub.add_parser(name, help=help_text, allow_abbrev=False,
                           formatter_class=_Help)
        p.add_argument("--config", help="INI-style config file, read as "
                                        "flags before the given ones")
        for flag in flags + ("--out",):
            p.add_argument(flag, **overrides.get(flag, _FLAGS[flag]))
        p.set_defaults(func=fn)
    ap.set_defaults(**_DEFAULTS)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's words go first, so that the given flags win
            at = argv.index(args.command) + 1
            flags = _COMMANDS[args.command][2] + ("--out",)
            args = parser.parse_args(
                argv[:at] + _config_words(args.config, flags) + argv[at:])
        return args.func(args)
    except ValueError as exc:  # bad input, from any layer
        print(f"iqfi-lab: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:  # math on a number beyond the floats
        print(f"iqfi-lab: a number is out of range: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an array larger than the memory
        print(f"iqfi-lab: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:  # QuadratureNonConvergence too
        print(f"iqfi-lab: integration failed: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
