"""Command-line surface: formats, config files, defaults, exit codes, outputs."""

import argparse
import ast
import json
import math
import os
import re
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import iqfi_lab.cli
import iqfi_lab.evolution
from iqfi_lab.battery import BATTERY_CFG_KW
from iqfi_lab.cli import SCHEMA_TAG, build_parser, main
from iqfi_lab.evolution import ODE_TOL
from iqfi_lab.iqfi import QuadratureConfig, fit_loglog_slope, integrate_iqfi
from iqfi_lab.protocol import make_trotterized_gx
from iqfi_lab.signal_core import SignalParams

TAG = SCHEMA_TAG  # "# iqfi-lab v1"

SIGNAL = ("--B", "--zeta", "--phi")
PULSES = ("--protocol", "--T", "--g", "--m", "--times", "--spacing")
PROTOCOL = PULSES + ("--n", "--alpha", "--beta", "--flips")
GRID = ("--omega-min", "--omega-max", "--points")
QUADRATURE = ("--rel-tol", "--tail-factor", "--max-panels")
# the flags each command reads, besides --config and --out
ACCEPTED = {
    "spectrum": SIGNAL + PROTOCOL + GRID + ("--ode-tol", "--format"),
    "iqfi": SIGNAL + PROTOCOL + QUADRATURE + ("--ode-tol", "--format"),
    # the average replaces the initial state, and a register is no pulse
    # sequence: haar reads neither --alpha, --beta nor --n, --flips
    "haar": SIGNAL + PULSES + QUADRATURE + ("--format",),
    "fig2": ("--T", "--g") + SIGNAL + GRID + ("--ode-tol",),
    "fig1": ("--B", "--g", "--rel-tol", "--T-list", "--slope-window"),
    "bounds-check": ("--draws", "--seed", "--format"),
}
# flags that several commands read; each command that does not read one
# must reject it rather than ignore it.  No command reads --jobs any more:
# fig1's sweep sizes its thread pool to the machine
SHARED = SIGNAL + PROTOCOL + GRID + QUADRATURE + ("--ode-tol", "--jobs",
                                                  "--format")
REJECTED = [(command, flag) for command, flags in ACCEPTED.items()
            for flag in SHARED if flag not in flags]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_csv_stdout(capsys):
    code, out, _ = run(capsys, "spectrum", "--protocol", "ramsey", "--T", "4",
                       "--B", "0", "--points", "33")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == TAG
    assert lines[1] == "omega,J"
    data = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
    assert len(data) == 33
    oms = [d[0] for d in data]
    assert oms == sorted(oms) and oms[0] == 0.0
    assert all(j >= 0.0 for _, j in data)
    # DC point of a Ramsey spectrum is 4 T^2
    assert data[0][1] == pytest.approx(64.0, rel=1e-12)


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--protocol", "ramsey", "--T", "2",
                       "--B", "0", "--points", "9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "iqfi-lab v1"
    assert len(doc["omega"]) == len(doc["J"]) == 9


def test_iqfi_json_with_bounds(capsys):
    code, out, _ = run(capsys, "iqfi", "--protocol", "ramsey", "--T", "4",
                       "--B", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == pytest.approx(8.0 * math.pi, rel=1e-3)
    assert doc["K_err"] >= 0.0
    names = {b["name"] for b in doc["bounds"]}
    assert {"segment_count_cap", "small_field_cap"} <= names
    assert all(b["satisfied"] for b in doc["bounds"])


@pytest.mark.parametrize("zeta", ["1e-170", "1e-320"])
def test_iqfi_drive_at_a_tiny_coupling(zeta, capsys):
    # (zeta B)^2 underflowed in the resonance floor: a ZeroDivisionError
    # traceback, exit 1.  K underflows too, and a floor of 0 is no row.  A
    # subnormal zeta must not put the drive's error target out of reach
    code, out, _ = run(capsys, "iqfi", "--protocol", "gx", "--T", "4",
                       "--B", "1", "--zeta", zeta)
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == 0.0 and doc["bounds"] == []


def test_iqfi_small_field_cap_at_a_huge_coupling(capsys):
    # zeta^4 overflowed in the cap: "a number is out of range", exit 2
    code, out, _ = run(capsys, "iqfi", "--protocol", "ramsey", "--T", "4",
                       "--B", "1e-101", "--zeta", "1e100", "--format", "csv")
    assert code == 0
    kv = dict(ln.split(",", 1) for ln in out.strip().splitlines()[2:])
    assert float(kv["K"]) == pytest.approx(8.0 * math.pi * 1e200, rel=1e-3)
    assert float(kv["margin[small_field_cap]"]) == pytest.approx(
        16.0 / 21.0, rel=1e-12)


def test_iqfi_drive_in_another_unit_of_zeta(capsys, monkeypatch):
    # the drive's error target was absolute in dpsi/dB, which grows with
    # zeta, and out of reach at zeta = 1e5: exit 3.  Per unit of zeta, the
    # splitting takes the same steps at zeta*B = 1 whatever zeta is
    node_steps = []
    split = iqfi_lab.evolution._split_steps

    def counted(pieces, counts, om, phi):
        node_steps[-1] += len(om) * int(counts.sum())
        return split(pieces, counts, om, phi)

    monkeypatch.setattr(iqfi_lab.evolution, "_split_steps", counted)
    ks = []
    for zeta, B in (("1", "1"), ("1e5", "1e-5")):
        node_steps.append(0)
        code, out, _ = run(capsys, "iqfi", "--protocol", "gx", "--T", "4",
                           "--zeta", zeta, "--B", B)
        assert code == 0
        ks.append(json.loads(out))
    assert abs(ks[1]["K"] / 1e10 - ks[0]["K"]) <= ks[0]["K_err"]
    assert node_steps[0] == node_steps[1] > 0


def test_iqfi_caps_not_reported_off_phase(capsys):
    # the caps only apply at flat signal phase; a tilted Ramsey legitimately
    # exceeds them, so no cap report should be attached
    code, out, _ = run(capsys, "iqfi", "--protocol", "ramsey", "--T", "4",
                       "--B", "0", "--phi", "2.356")
    assert code == 0
    doc = json.loads(out)
    assert doc["bounds"] == []
    assert doc["K"] > 8.0 * math.pi


def test_iqfi_csv(capsys):
    code, out, _ = run(capsys, "iqfi", "--protocol", "ramsey", "--T", "4",
                       "--B", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == TAG
    assert lines[1] == "key,value"
    kv = dict(ln.split(",", 1) for ln in lines[2:])
    assert float(kv["K"]) == pytest.approx(8.0 * math.pi, rel=1e-3)


def test_iqfi_ghz_equality_report(capsys):
    code, out, _ = run(capsys, "iqfi", "--protocol", "ghz", "--n", "2",
                       "--T", "4", "--B", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["K"] == pytest.approx(32.0 * math.pi, rel=1e-2)
    rep = {b["name"]: b for b in doc["bounds"]}["ghz_entangled_value"]
    assert rep["kind"] == "equality" and rep["satisfied"]


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("protocol = ramsey\nt = 2\nb = 0\n")
    code, out, _ = run(capsys, "iqfi", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["K"] == pytest.approx(4.0 * math.pi, rel=1e-3)
    # explicit flag wins over the file
    code, out, _ = run(capsys, "iqfi", "--config", str(cfg), "--T", "8")
    assert code == 0
    assert json.loads(out)["K"] == pytest.approx(16.0 * math.pi, rel=1e-3)


def test_config_with_section_header(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[iqfi-lab]\nprotocol = ramsey\nt = 2\nb = 0\n")
    code, out, _ = run(capsys, "iqfi", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["K"] == pytest.approx(4.0 * math.pi, rel=1e-3)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("protocol = ramsey\nwavelength = 7\n")
    code, _, err = run(capsys, "iqfi", "--config", str(cfg))
    assert code == 2
    assert "wavelength" in err
    # fig1 sizes its thread pool to the machine; jobs is no key of it
    cfg.write_text("jobs = 2\n")
    code, out, err = run(capsys, "fig1", "--config", str(cfg),
                         "--out", str(tmp_path / "f.csv"))
    assert code == 2 and out == "" and "unknown config key 'jobs'" in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("text", ["# keys\nT = 4\nT = 5\n", "x\n",
                                  "[a]\nT = 1\n[a]\n", "[]\nT = 1\n",
                                  # an interpolation traceback, exit 1
                                  "out = a%b.json\n"])
def test_config_parse_error_exits_2_with_one_line(text, tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    code, out, err = run(capsys, "iqfi", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("iqfi-lab: config parse error") and \
        err.count("\n") == 1


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "iqfi", "--config", str(tmp_path / "nope.ini"))
    assert code == 2 and "nope.ini" in err


def test_undecodable_config_file_names_the_file(tmp_path, capsys):
    # the codec's message alone named no file
    cfg = tmp_path / "c.ini"
    cfg.write_bytes(b"\xfft = 2\n")
    code, out, err = run(capsys, "iqfi", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"iqfi-lab: cannot read config {cfg}: 'utf-8' "
                          "codec can't decode byte 0xff") and \
        err.count("\n") == 1


def test_config_values_keep_their_checks(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    # iqfi has no --points, but the key's value is still checked
    cfg.write_text("points = x\n")
    code, out, err = run(capsys, "iqfi", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"iqfi-lab: bad value for 'points' in {cfg}: 'x'\n"


@pytest.mark.parametrize("text", ["protocol = foo\n", "format = xml\n"])
def test_config_value_outside_the_choices_exits_2(text, tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["iqfi", "--config", str(cfg)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice" in captured.err


def test_config_value_is_read_as_one_word(tmp_path, capsys):
    # a value that starts with '-' is no option
    cfg = tmp_path / "c.ini"
    cfg.write_text("b = -0.5\nprotocol = pi-train\n")
    got = run(capsys, "iqfi", "--config", str(cfg))
    assert got[0] == 0
    assert got == run(capsys, "iqfi", "--protocol", "pi-train", "--B=-0.5")
    cfg.write_text("b = -inf\n")
    code, out, err = run(capsys, "iqfi", "--config", str(cfg))
    assert code == 2 and out == "" and "finite" in err


def test_module_entry_reads_sys_argv(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("protocol = ramsey\nt = 2\nb = 0\n")
    argv = ["iqfi", "--config", str(cfg), "--T", "8"]
    code, out, _ = run(capsys, *argv)
    src = str(Path(iqfi_lab.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "iqfi_lab.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
    assert json.loads(out)["K"] == pytest.approx(16.0 * math.pi, rel=1e-3)


def test_bad_phase_exits_2(capsys):
    code, _, err = run(capsys, "iqfi", "--protocol", "ramsey", "--T", "2",
                       "--B", "0", "--phi", "7.0")
    assert code == 2 and "phi" in err


@pytest.mark.parametrize("flags", [
    ("iqfi", "--B", "nan"), ("iqfi", "--B", "inf"), ("iqfi", "--zeta", "inf"),
    ("iqfi", "--zeta", "nan"), ("iqfi", "--T", "nan"), ("iqfi", "--T", "inf"),
    ("iqfi", "--protocol", "pi-train", "--T", "inf"),
    ("iqfi", "--protocol", "trotter-gx", "--T", "nan"),
    ("iqfi", "--protocol", "pi-train", "--T", "4", "--times", "1,nan"),
    ("iqfi", "--protocol", "ghz", "--times", "0,1,inf"),
    ("iqfi", "--protocol", "pi-train", "--T", "2", "--alpha", "nan"),
    ("iqfi", "--protocol", "pi-train", "--T", "2", "--beta", "inf"),
    ("spectrum", "--omega-max", "nan"), ("spectrum", "--omega-max", "inf"),
    ("spectrum", "--omega-min", "nan", "--omega-max", "1"),
    ("fig2", "--T", "2", "--omega-max", "nan"),
    ("fig2", "--T", "2", "--omega-min", "nan"),
    ("iqfi", "--rel-tol", "nan"), ("iqfi", "--tail-factor", "nan"),
    ("iqfi", "--tail-factor", "inf"), ("haar", "--rel-tol", "nan"),
    ("fig2", "--g", "nan"),
])
def test_non_finite_input_exits_2(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)  # fig2 writes to the working directory
    code, out, err = run(capsys, *flags)
    assert code == 2 and out == "" and "finite" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [("iqfi", "--B", "abc"),
                                   ("fig1", "--T-list", "2,x")])
def test_list_flag_with_a_word_that_is_no_number_exits_2(tmp_path, monkeypatch,
                                                         capsys, flags):
    monkeypatch.chdir(tmp_path)  # fig1 writes to the working directory
    code, out, err = run(capsys, *flags)
    assert code == 2 and out == "" and "comma-separated numbers" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("protocol", ["trotter-gx", "gx"])
def test_spectrum_nan_drive_rate_exits_2(capsys, protocol):
    # a NaN angle passes every sign test; the checks at construction must
    # still catch it
    code, out, err = run(capsys, "spectrum", "--protocol", protocol,
                         "--g", "nan", "--T", "2", "--points", "3",
                         "--omega-max", "1")
    assert code == 2 and out == ""
    assert err.startswith("iqfi-lab: bad protocol parameters")


@pytest.mark.parametrize("command", ["spectrum", "iqfi"])
@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_bad_ode_tol_exits_2(capsys, command, tol):
    grid = ("--points", "2", "--omega-max", "1") if command == "spectrum" \
        else ()
    code, out, err = run(capsys, command, "--protocol", "gx", "--T", "1",
                         *grid, "--ode-tol", tol)
    assert code == 2 and out == "" and "--ode-tol" in err


def test_ode_tol_default_is_the_library_default(capsys):
    argv = ("iqfi", "--protocol", "gx", "--T", "1", "--B", "0.2")
    assert run(capsys, *argv) == run(capsys, *argv, "--ode-tol",
                                     repr(ODE_TOL))
    with pytest.raises(SystemExit):
        main(["iqfi", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"field derivative (default {ODE_TOL:g})" in help_text


def test_drive_floor_reported_only_where_it_bounds(capsys):
    # rwa_iqfi_lower_bound is 0 at B = 0; a row there would carry a margin
    # of K/1e-300
    code, out, _ = run(capsys, "iqfi", "--protocol", "gx", "--T", "1",
                       "--B", "0")
    assert code == 0 and json.loads(out)["bounds"] == []
    for b in ("1", "-1"):
        code, out, _ = run(capsys, "iqfi", "--protocol", "gx", "--T", "1",
                           "--B", b)
        rep = {r["name"]: r for r in json.loads(out)["bounds"]}
        assert code == 0 and rep["resonance_band_floor"]["reference"] > 0.0


@pytest.mark.parametrize("flags", [("--B", "1,nan"), ("--T-list", "2,inf"),
                                   ("--g", "nan"),
                                   ("--slope-window", "nan,inf"),
                                   # empty lists wrote row-less files, or none
                                   ("--T-list", ","), ("--B", ",")])
def test_fig1_non_finite_input_exits_2(tmp_path, capsys, flags):
    code, out, err = run(capsys, "fig1", "--out", str(tmp_path / "f.csv"),
                         *flags)
    assert code == 2 and out == "" and "finite" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("t_list", ["2", "2,2", "2,8"])
def test_fig1_window_of_fewer_than_two_durations_exits_2(
        t_list, tmp_path, monkeypatch, capsys):
    # wrote a slope column of nan, exit 0
    def compute(*args, **kwargs):
        raise AssertionError("computed a sweep with no slope to fit")
    monkeypatch.setattr(iqfi_lab.cli, "sweep_iqfi_vs_T", compute)
    argv = ("fig1", "--B", "1", "--T-list", t_list, "--slope-window", "2,3")
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "f.csv"))
    assert code == 2 and out == "" and not list(tmp_path.iterdir())
    assert err == ("iqfi-lab: --slope-window [2.0,3.0] needs two distinct "
                   "--T-list durations, got 1\n")
    # an empty --out is reported first
    code, _, err = run(capsys, *argv, "--out", "")
    assert code == 2 and err.startswith("iqfi-lab: --out is empty")


def test_bad_protocol_choice_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["iqfi", "--protocol", "spiral"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_panel_budget_exhaustion_exits_3(capsys):
    # a pi/2 train in a field: Ramsey's K would be a closed form, with no
    # panels
    code, _, err = run(capsys, "iqfi", "--protocol", "pi2-train", "--T", "4",
                       "--B", "0.3", "--max-panels", "8")
    assert code == 3
    assert "integration failed" in err


def test_iqfi_reports_its_method(capsys):
    # a pi/2 train: a field moves its axis off +-z
    for b, method in (("0", "closed_form"), ("0.3", "quadrature")):
        code, out, _ = run(capsys, "iqfi", "--protocol", "pi2-train", "--T",
                           "4", "--B", b)
        assert code == 0 and json.loads(out)["method"] == method


@pytest.mark.parametrize("flags", [("--protocol", "trotter-gx", "--g", "nan"),
                                   ("--protocol", "pi-train", "--times", "5"),
                                   # a flip is 0 or 1, not read as a truth value
                                   ("--protocol", "ghz", "--times", "0,1,2",
                                    "--flips", "7"),
                                   ("--protocol", "ghz", "--times", "0,1,2",
                                    "--flips", "0.5")])
def test_bad_sequence_at_zero_field_exits_2(capsys, flags):
    # B = 0 takes the closed form; bad input is still refused
    code, out, err = run(capsys, "iqfi", *flags, "--T", "4", "--B", "0")
    assert code == 2 and out == ""
    assert err.startswith("iqfi-lab: bad protocol parameters")


def test_register_times_must_end_at_the_given_duration(tmp_path, capsys):
    # --T used to be ignored: K came out for T = 2
    code, out, err = run(capsys, "iqfi", "--protocol", "ghz", "--times",
                         "0,1,2", "--T", "4", "--B", "0")
    assert code == 2 and out == ""
    assert err.startswith("iqfi-lab: bad protocol parameters: --times end")
    config = tmp_path / "c.ini"
    config.write_text("T = 4\n")
    code, out, err = run(capsys, "iqfi", "--config", str(config),
                         "--protocol", "ghz", "--times", "0,1,2")
    assert code == 2 and out == ""
    assert err.startswith("iqfi-lab: bad protocol parameters")
    # without --T, or with a --T that agrees, the times fix the duration
    for extra in ((), ("--T", "2")):
        code, out, _ = run(capsys, "iqfi", "--protocol", "ghz", "--times",
                           "0,1,2", "--B", "0", *extra)
        assert code == 0
        assert json.loads(out)["K"] == pytest.approx(
            2.0 * math.pi * 4.0 * 2.0, rel=1e-12)


@pytest.mark.parametrize("argv, code", [
    # wrote nan and exited 0
    (("spectrum", "--protocol", "ramsey", "--T", "4", "--omega-max", "1e308",
      "--points", "3"), 2),
    # OverflowError tracebacks, exit 1
    (("iqfi", "--protocol", "pi2-train", "--T", "4", "--B", "1e200",
      "--zeta", "1e200"), 2),
    (("iqfi", "--protocol", "ramsey", "--T", "1e300", "--B", "0"), 2),
    # a ValueError from np.arange, exit 1: the splitting's step count
    (("spectrum", "--protocol", "gx", "--T", "4", "--B", "1e300",
      "--points", "3"), 3),
    # n*zeta*B of the register overflows inside the library: ValueError
    # tracebacks, exit 1
    (("iqfi", "--protocol", "ghz", "--n", "1000", "--B", "1e306", "--times",
      "0,4"), 2),
    (("spectrum", "--protocol", "ghz", "--n", "1000", "--B", "1e306",
      "--times", "0,4"), 2),
    # printed "K": Infinity and "K_err": NaN, exit 0
    (("iqfi", "--protocol", "ghz", "--n", "3", "--times", "0,1e307", "--B",
      "0"), 2),
    # a tail start Omega beyond the floats: RuntimeWarnings, then exit 2
    # through int(ceil(inf)); for ramsey "tail_start": Infinity, exit 0
    (("iqfi", "--protocol", "gx", "--T", "4", "--B", "1e307"), 2),
    (("haar", "--protocol", "pi-train", "--B", "1e307"), 2),
    (("iqfi", "--protocol", "ramsey", "--T", "4", "--B", "1e307"), 2),
    # more base panels than the budget: a 300-digit count, RuntimeWarnings
    (("iqfi", "--protocol", "trotter-gx", "--T", "4", "--B", "1e300"), 3),
    (("iqfi", "--protocol", "pi-train", "--B", "1e306"), 3),
    # an --out that cannot be written: OSError tracebacks, exit 1
    (("iqfi", "--out", "{tmp}/missing/k.json"), 2),
    (("iqfi", "--out", "{tmp}/dir"), 2),
    # the files of the fields, or protocols, before the one that failed
    # were left behind: fig1-B1.0.csv; fig2-ramsey.csv and two more
    (("fig1", "--B", "1,1e307", "--T-list", "2,3", "--slope-window", "1,3"),
     2),
    (("fig2", "--ode-tol", "1e-30"), 3),
    # several outputs to stdout: files named --ramsey.csv, --B1.0.csv, ...
    (("fig2", "--out", "-"), 2),
    (("fig1", "--out", "-", "--T-list", "2,4", "--slope-window", "2,4"), 2),
    # an empty --out: fig2 wrote -ramsey.csv and three more files, exit 0
    (("fig2", "--out", ""), 2),
    (("fig2", "--out="), 2),
    (("fig1", "--out", "", "--T-list", "2"), 2),
    (("iqfi", "--out", ""), 2),
    # printed K_avg,inf and exited 0
    (("haar", "--protocol", "pi-train", "--zeta", "1e154", "--B", "0",
      "--format", "csv"), 2),
    # RuntimeWarnings and a CSV of nan, exit 0
    (("spectrum", "--protocol", "ramsey", "--T", "1e200", "--B", "0",
      "--points", "3"), 2),
    # a subnormal duration: "overflow encountered in divide", then exit 2
    (("iqfi", "--protocol", "gx", "--T", "1e-320", "--B", "1"), 2),
    (("spectrum", "--protocol", "gx", "--T", "1e-320", "--B", "1"), 2),
    # the tail's error bound beyond the floats: a RuntimeWarning, then exit 2
    (("iqfi", "--protocol", "pi2-train", "--B", "0.5", "--tail-factor",
      "1e-200"), 2),
    (("haar", "--protocol", "pi2-train", "--B", "0.5", "--tail-factor",
      "1e-200"), 2),
    # wrote a row of nan, exit 0
    (("fig1", "--B", "1", "--T-list", "2,2000", "--slope-window", "2,2000"),
     3),
    # zeta*B*Theta beyond the floats: numpy RuntimeWarnings from the
    # propagation before the line
    (("fig2", "--B", "1e308"), 2),
    (("fig2", "--zeta", "1e308"), 2),
    (("spectrum", "--zeta", "1e308", "--times", "1e308"), 2),
])
def test_out_of_range_numbers_exit_with_one_line(argv, code, capsys, tmp_path,
                                                 monkeypatch):
    (tmp_path / "dir").mkdir()
    monkeypatch.chdir(tmp_path)
    got, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert got == code and out == ""
    assert err.startswith("iqfi-lab: ") and err.count("\n") == 1
    if argv[0] == "fig1" and code == 3:
        assert err.startswith("iqfi-lab: integration failed: T = 2000: ")
    # no output file, and no temp file left behind
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []
    assert [p.name for p in tmp_path.parent.iterdir()
            if p.name.startswith(".iqfi-")] == []


def test_empty_out_in_a_config_exits_2(tmp_path, monkeypatch, capsys):
    # the config line "out =" is the word --out=, an empty stem
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.ini").write_text("out =\n")
    code, out, err = run(capsys, "fig2", "--config", "c.ini")
    assert code == 2 and out == ""
    assert err == "iqfi-lab: --out is empty; give a path, or - for stdout\n"
    assert [p.name for p in tmp_path.iterdir()] == ["c.ini"]


def test_several_files_are_written_all_or_nothing(tmp_path, capsys):
    # p-ramsey.csv and p-pi-train.csv were renamed before the directory
    # that has the third file's name stopped the run
    (tmp_path / "p-pi2-train.csv").mkdir()
    code, out, err = run(capsys, "fig2", "--T", "4", "--points", "5",
                         "--out", str(tmp_path / "p"))
    assert code == 2 and out == "" and "is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["p-pi2-train.csv"]


@pytest.mark.parametrize("command, outputs", [("fig1", 2), ("fig2", 4)])
def test_several_outputs_to_stdout_are_refused_before_any_work(
        command, outputs, tmp_path, monkeypatch, capsys):
    def compute(*args, **kwargs):
        raise AssertionError("computed before --out - was refused")
    monkeypatch.setattr(iqfi_lab.cli, "sweep_iqfi_vs_T", compute)
    monkeypatch.setattr(iqfi_lab.cli, "qfi_vs_omega", compute)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "--out", "-")
    assert code == 2 and out == "" and not list(tmp_path.iterdir())
    assert err == (f"iqfi-lab: --out - takes one output, not {outputs}; "
                   f"give a file stem\n")


@pytest.mark.parametrize("argv", [
    ("spectrum", "--points", "100000000000"),
    ("iqfi", "--protocol", "trotter-gx", "--T", "4", "--B", "1",
     "--max-panels", "100000000000", "--tail-factor", "1e9"),
])
def test_allocation_beyond_memory_exits_2(argv, tmp_path):
    # _ArrayMemoryError tracebacks, exit 1.  An address-space limit fails
    # the allocation whatever the host's overcommit policy, before any page
    # of it is touched
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
            "from iqfi_lab.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(iqfi_lab.cli.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("iqfi-lab: out of memory: ")
    assert proc.stderr.count("\n") == 1 and not list(tmp_path.iterdir())


def test_output_files_are_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["spectrum", "--protocol", "pi-train", "--times", "1,3", "--T", "4",
            "--B", "0.5", "--points", "65"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(TAG.encode())


def test_fig1_rows_match_serial_integrals(tmp_path, capsys):
    # each row is K of the m = 2T trotterized drive at fig1's quadrature
    # config, whatever the number of threads that integrated it
    out = tmp_path / "f.csv"
    assert main(["fig1", "--T-list", "2,4", "--B", "0.01", "--slope-window",
                 "2,4", "--rel-tol", "1e-4", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == TAG
    header_at = lines.index("T,K,K_err,slope_window")
    rows = [tuple(map(float, ln.split(","))) for ln in lines[header_at + 1:]]
    cfg = QuadratureConfig(**BATTERY_CFG_KW, rel_tol=1e-4)
    specs = [integrate_iqfi(make_trotterized_gx(T, m=2 * int(T),
                                                g=math.pi / 2.0),
                            SignalParams(B=0.01, omega=0.0), cfg)
             for T in (2.0, 4.0)]
    slope = fit_loglog_slope([2.0, 4.0], [s.integral for s in specs],
                             (2.0, 4.0))
    # repr-formatted floats read back bit-exact
    assert rows == [(T, s.integral, s.error_estimate, slope)
                    for T, s in zip((2.0, 4.0), specs)]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_fig1_single_field_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ("fig1", "--B", "1", "--T-list", "2,4", "--slope-window", "2,4",
            "--rel-tol", "1e-4")
    code, out, err = run(capsys, *argv, "--out", "-")
    assert code == 0 and err == "" and not list(tmp_path.iterdir())
    assert out.startswith(TAG) and "T,K,K_err,slope_window" in out
    code, _, _ = run(capsys, *argv, "--out", "one.csv")
    assert code == 0 and (tmp_path / "one.csv").read_text() == out


def test_fig1_multiple_fields_write_suffixed_files(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code = main(["fig1", "--T-list", "2,4", "--B", "0.0,0.01",
                 "--slope-window", "2,4", "--rel-tol", "1e-4",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "curves-B0.0.csv").exists()
    assert (tmp_path / "curves-B0.01.csv").exists()


def test_fig2_writes_four_spectra(tmp_path, capsys):
    out = tmp_path / "panel"
    code = main(["fig2", "--T", "4", "--B", "1", "--points", "41",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    for tag in ("ramsey", "pi-train", "pi2-train", "gx"):
        path = tmp_path / f"panel-{tag}.csv"
        assert path.exists(), tag
        lines = path.read_text().strip().splitlines()
        assert lines[0] == TAG
        assert any(ln == "omega,J" for ln in lines[1:3])


def test_fig2_help_shows_the_parser_defaults(capsys):
    args = build_parser().parse_args(["fig2"])
    assert (args.T, args.points) == (8.0, 601)
    with pytest.raises(SystemExit):
        main(["fig2", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "total duration (default 8.0)" in help_text
    assert "grid size (default 601)" in help_text


def test_fig2_bad_duration_exits_2(tmp_path, monkeypatch, capsys):
    # 0.5 does not divide 3.3, so the pi/2 train cannot be built
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "fig2", "--T", "3.3")
    assert code == 2 and out == ""
    assert "spacing 0.5 must divide total_time 3.3" in err
    assert not list(tmp_path.iterdir())


def test_fig2_refuses_a_long_train_before_building_one(tmp_path,
                                                       monkeypatch, capsys):
    # the pi train's 999,999 pulses were built, for about 20 s, before the
    # pi/2 train's 2,000,000 were refused
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, "fig2", "--T", "1e6")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert err == ("iqfi-lab: bad protocol parameters: 2000000 pulses are "
                   "more than the 1048576 a train may hold\n")
    assert not list(tmp_path.iterdir())


def test_fig2_takes_a_single_field(tmp_path, capsys):
    code, out, err = run(capsys, "fig2", "--T", "2", "--B", "1,2",
                         "--points", "5", "--out", str(tmp_path / "p"))
    assert code == 2 and out == "" and "single --B" in err
    assert not list(tmp_path.iterdir())


def test_haar_closed_form(capsys):
    code, out, _ = run(capsys, "haar", "--protocol", "pi-train",
                       "--times", "1,2,3", "--T", "4", "--B", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "closed_form"
    assert doc["K_avg"] == pytest.approx(16.0 * math.pi / 3.0, rel=1e-12)


def test_haar_output_is_byte_deterministic(capsys):
    argv = ("haar", "--protocol", "pi-train", "--times", "1,2,3", "--T", "4",
            "--B", "0", "--phi", "0.7")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    doc1 = json.loads(out1)
    assert (doc1["method"], doc1["stderr"], doc1["samples"]) == \
        ("closed_form", 0.0, 0)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_haar_has_no_samples_flag(capsys):
    # the average is exact; a sample count would be silently meaningless
    with pytest.raises(SystemExit) as exc:
        main(["haar", "--samples", "8"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_haar_rejects_continuous_protocol(capsys):
    code, _, err = run(capsys, "haar", "--protocol", "gx", "--T", "4",
                       "--B", "1")
    assert code == 2 and "pulse-sequence" in err


def test_bounds_check_passes(capsys):
    code, out, _ = run(capsys, "bounds-check", "--draws", "2",
                       "--seed", "1905")
    assert code == 0
    reports = json.loads(out)
    names = {r["name"] for r in reports}
    assert {"ramsey_flat_phase", "haar_pi_train", "haar_exact_vs_six_states",
            "segment_count_cap_worst_of_2", "small_field_cap_worst_of_2",
            "resonance_band_floor"} <= names
    assert all(r["satisfied"] for r in reports)


@pytest.mark.parametrize("argv", [
    ("bounds-check", "--draws", "0"),
    ("bounds-check", "--draws", "-3"),
    ("bounds-check", "--seed", "-1"),
    ("bounds-check", "--draws", "1", "--seed", "-2"),
])
def test_counts_below_one_exit_2(argv, capsys, tmp_path, monkeypatch):
    # --draws 0 used to end in an AttributeError traceback: the
    # worst-of-draws loops never ran; --seed -1 in numpy's ValueError
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    least = ">= 0" if "--seed" in argv else ">= 1"  # a seed may be 0
    assert code == 2 and out == "" and least in err
    assert list(tmp_path.iterdir()) == []


def test_each_command_accepts_exactly_its_flags(capsys):
    total = 0
    for command, flags in ACCEPTED.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"^\s+(--[\w-]+)", capsys.readouterr().out,
                                re.M))
        assert listed == {"--config", "--out", *flags}, command
        total += len(listed)
    assert total == 78 and len(REJECTED) == 70


@pytest.mark.parametrize("command, flag", REJECTED)
def test_flag_a_command_does_not_read_exits_2(tmp_path, monkeypatch, capsys,
                                               command, flag):
    monkeypatch.chdir(tmp_path)  # fig1 and fig2 write to the working directory
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err
    assert not list(tmp_path.iterdir())


def test_one_config_file_serves_every_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "all.ini"
    cfg.write_text("points = 5\ndraws = 1\nrel_tol = 1e-4\nzeta = 2\n")
    code, out, _ = run(capsys, "iqfi", "--config", str(cfg), "--T", "4",
                       "--B", "0")
    assert code == 0
    # zeta = 2 scales the Ramsey K = 2 pi zeta^2 T by 4
    assert json.loads(out)["K"] == pytest.approx(32.0 * math.pi, rel=1e-3)
    fig1 = ("fig1", "--T-list", "2,4", "--B", "0.01", "--slope-window", "2,4")
    code, _, _ = run(capsys, *fig1, "--config", str(cfg), "--out", "f.csv")
    assert code == 0
    # fig1 has no --tail-factor, so it reads no tail_factor key either
    other = tmp_path / "other.ini"
    other.write_text(cfg.read_text() + "tail_factor = 2\n")
    code, _, _ = run(capsys, *fig1, "--config", str(other), "--out", "g.csv")
    assert code == 0
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "g.csv").read_bytes()
    code, out, _ = run(capsys, "bounds-check", "--config", str(cfg))
    assert code == 0
    assert "pi_train_invariance_worst_of_1" in {r["name"]
                                                for r in json.loads(out)}
    # the accepted keys are the union of every command's flags
    keys = {flag.lstrip("-").replace("-", "_").lower()
            for flags in ACCEPTED.values() for flag in flags + ("--out",)}
    assert set(iqfi_lab.cli._CONFIG_KEYS) == keys
    assert len(keys) == 26


# words whose help or usage error main must print as the full parser does
PARSER_EXITS = [["--help"], [], ["no-such-command"]] + [
    [command, *words] for command, flags in ACCEPTED.items()
    for words in (["--help"], ["-h"], ["--bogus"], ["--out"],
                  ["--g" if "--g" in flags else "--draws", "abc"],
                  *([["--protocol", "nope"]] if "--protocol" in flags else []),
                  *([["--format", "xml"]] if "--format" in flags else []))]


def _exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_help_and_usage_errors_are_the_full_parsers(monkeypatch, capsys,
                                                    columns, argv):
    """main exits 0 on a help and 2 on a usage error, at any width; the
    golden cases of tests/golden/ pin the text."""
    monkeypatch.setenv("COLUMNS", columns)  # argparse wraps to it
    code, _, _ = _exit(capsys, main, argv)
    assert code == (0 if {"--help", "-h"} & set(argv) else 2)


@pytest.mark.parametrize("command", ACCEPTED)
def test_an_unknown_flag_is_the_commands_usage_error(tmp_path, capsys,
                                                     command):
    """A word that the command does not take shows the command's usage,
    with or without a --config file, and not the top parser's, which
    lists only the commands; a word before the command is the top
    parser's."""
    cfg = tmp_path / "c.ini"
    cfg.write_text("")
    for argv in ([command, "--bogus"],
                 [command, "--config", str(cfg), "--bogus", "--out", "-"]):
        code, out, err = _exit(capsys, main, argv)
        assert code == 2 and out == ""
        assert err.startswith(f"usage: iqfi-lab {command} [-h] "
                              "[--config CONFIG]")
        assert err.splitlines()[-1] == (f"iqfi-lab {command}: error: "
                                        "unrecognized arguments: --bogus")
    code, _, err = _exit(capsys, main, ["--bogus", command])
    assert code == 2 and err.startswith("usage: iqfi-lab [-h] {spectrum,")
    assert err.splitlines()[-1] == ("iqfi-lab: error: unrecognized "
                                    "arguments: --bogus")


def _main_namespace(monkeypatch, argv):
    """The namespace that main runs its command on; the command itself is
    not run."""
    seen = []

    def spy():
        parser = build_parser()

        def record(words):
            # the class's method: a spy of an earlier call may still be set
            args = argparse.ArgumentParser.parse_args(parser, words)
            seen.append(dict(vars(args)))
            return argparse.Namespace(**{**vars(args), "func": lambda a: 0})

        # through monkeypatch, so that the cached parser is restored
        monkeypatch.setattr(parser, "parse_args", record)
        return parser

    monkeypatch.setattr(iqfi_lab.cli, "build_parser", spy)
    assert main(argv) == 0
    return seen[-1]


@pytest.mark.parametrize("command", ACCEPTED)
def test_main_parses_as_the_full_parser(tmp_path, monkeypatch, command):
    """Every flag of a command away from its default, given in a --config
    file: main's namespace is the full parser's of those flags on the
    command line, func and the flags the command does not read included."""
    defaults = vars(build_parser().parse_args([command]))
    dests = {flag: flag[2:].replace("-", "_")
             for flag in ACCEPTED[command] + ("--out",)}
    values = {}
    for flag, dest in dests.items():
        if flag in ("--protocol", "--format"):  # the flags with choices
            values[flag] = {"ramsey": "pi-train", "csv": "json",
                            "json": "csv"}[defaults[dest]]
        elif isinstance(defaults[dest], (int, float)):
            values[flag] = str(defaults[dest] + 3)
        else:  # a string flag, or a number whose default is None
            values[flag] = "7"
    words = [f"{flag}={value}" for flag, value in values.items()]
    full = vars(build_parser().parse_args([command, *words]))
    assert all(full[dest] != defaults[dest] for dest in dests.values())
    cfg = tmp_path / "all.ini"
    cfg.write_text("".join(f"{flag[2:]} = {value}\n"
                           for flag, value in values.items()))
    argv = [command, "--config", str(cfg)]
    assert _main_namespace(monkeypatch, argv) == {**full, "config": str(cfg)}


def test_main_builds_the_parser_once(monkeypatch, capsys):
    build_parser.cache_clear()
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    code, out, _ = run(capsys, "haar", "--protocol", "pi-train", "--T", "1",
                       "--B", "0")
    assert code == 0 and json.loads(out)["K_avg"] > 0.0
    code, out, _ = run(capsys, "iqfi", "--protocol", "ramsey", "--T", "1",
                       "--B", "0")
    assert code == 0 and json.loads(out)["K"] > 0.0
    with pytest.raises(SystemExit):
        main(["--help"])
    assert sorted(added) == sorted(ACCEPTED)


def test_a_config_run_leaves_the_parser_as_it_was(tmp_path, capsys):
    build_parser.cache_clear()
    # every run of the process parses with the parser that the --config
    # run re-parsed its words with
    first = run(capsys, "iqfi")
    cfg = tmp_path / "c.ini"
    cfg.write_text("protocol = pi-train\nt = 2\nb = 0.5\nformat = csv\n")
    configured = run(capsys, "iqfi", "--config", str(cfg))
    assert first[0] == configured[0] == 0 and configured != first
    assert run(capsys, "iqfi") == first


def test_cli_imports_no_private_names():
    """The CLI is a client of the library's public surface only."""
    tree = ast.parse(Path(iqfi_lab.cli.__file__).read_text())
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        if node.level > 0 or (node.module or "").startswith("iqfi_lab")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def _reads(node, local=frozenset()) -> set:
    """The names and attributes that node reads, less the names that an
    enclosing function binds itself (a parameter or an assignment)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        local = local | {x.arg for x in (*a.posonlyargs, *a.args,
                                         *a.kwonlyargs, a.vararg, a.kwarg)
                         if x} | {n.id for n in ast.walk(node)
                                  if isinstance(n, ast.Name)
                                  and isinstance(n.ctx, ast.Store)}
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
            and node.id not in local:
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= _reads(child, local)
    return found


def _bench_reads(tree) -> set:
    """The names that the code of tree takes from iqfi_lab: imported by
    name, or read as an attribute of a module bound by an import."""
    used, bound = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").startswith("iqfi_lab"):
            used.update(alias.name for alias in node.names)
            if node.module == "iqfi_lab":  # a name there may be a module
                bound.update(alias.asname or alias.name
                             for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name for alias in node.names
                         if alias.name.startswith("iqfi_lab"))
    return used | {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in bound}


def test_every_published_name_is_reached():
    """Each name of the modules' __all__ lists is used by package code
    outside its own definition, or by the benchmark (perfbench/) through
    an iqfi_lab import.  A reference that only the tests call belongs in
    tests/oracles.py."""
    src = Path(iqfi_lab.cli.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    used = set()
    for path in sorted(src.glob("*.py")):
        # a def or class statement's own name is no use of it
        used |= set().union(*(_reads(stmt) - {getattr(stmt, "name", None)}
                              for stmt in ast.parse(path.read_text()).body))
    for path in sorted(bench.glob("*.py")):
        used |= _bench_reads(ast.parse(path.read_text()))
    modules = (iqfi_lab.signal_core, iqfi_lab.protocol, iqfi_lab.evolution,
               iqfi_lab.iqfi, iqfi_lab.bounds)
    assert [name for module in modules for name in module.__all__
            if name not in used] == []


def test_package_publishes_its_modules_all():
    """Each public name is declared once, in its module's __all__, and
    iqfi_lab publishes exactly the union of those lists."""
    modules = (iqfi_lab.signal_core, iqfi_lab.protocol, iqfi_lab.evolution,
               iqfi_lab.iqfi, iqfi_lab.bounds)
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    public = {name for name, value in vars(iqfi_lab).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(iqfi_lab, name) is getattr(module, name)


def test_cli_holds_no_bound_logic():
    """Which bound holds where is bounds.applicable's, and the battery is
    battery.py's; the CLI only calls them."""
    tree = ast.parse(Path(iqfi_lab.cli.__file__).read_text())
    imported = {node.module: sorted(alias.name for alias in node.names)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported["bounds"] == ["applicable"]
    assert imported["battery"] == ["BATTERY_CFG_KW", "BATTERY_SEED",
                                   "run_bound_battery"]
    called = [node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert [name for name in called if name.startswith("report_")] == []
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert defined.isdisjoint({"run_bound_battery", "_worst_of",
                               "_applicable_bounds"})
    assert "PAULI_STATES" not in {node.id for node in ast.walk(tree)
                                  if isinstance(node, ast.Name)}
    items = ("ramsey_", "pi_train_invariance", "haar_pi_train",
             "haar_exact", "small_field", "segment_count", "ghz_",
             "resonance_band")
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert [s for s in strings if any(item in s for item in items)] == []


def test_only_main_maps_exceptions_to_exit_codes():
    """Bad input is a ValueError in every layer: the CLI has no exception
    type of its own, and a handler outside main only re-raises."""
    tree = ast.parse(Path(iqfi_lab.cli.__file__).read_text())
    assert not [node.name for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and "Error" in node.name]
    main_fn = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main_fn)}
    outside = [node for node in ast.walk(tree)
               if isinstance(node, ast.ExceptHandler)
               and id(node) not in in_main]
    assert outside  # _config_words, _write, ... re-raise with context
    assert [node.lineno for node in outside
            if not any(isinstance(n, ast.Raise) for n in node.body)] == []
    assert "ConfigError" not in vars(iqfi_lab.cli)


def test_sweep_runs_on_threads_only():
    """One sweep path: no process pool in the package, and the thread pool
    is imported only when a sweep runs, so the CLI's start-up is unchanged."""
    src = Path(iqfi_lab.cli.__file__).parent
    found = [(path.name, word) for path in sorted(src.rglob("*.py"))
             for word in ("multiprocessing", "ProcessPoolExecutor")
             if word in path.read_text()]
    assert found == []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src.parent), os.environ.get("PYTHONPATH")])))
    code = ("import sys, iqfi_lab.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency: the tail's sine and cosine
    # integrals are numpy closed forms, and so is the rotating-frame
    # propagator of tests/oracles.py
    src = str(Path(iqfi_lab.cli.__file__).parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    code = ("import sys, iqfi_lab.cli\n"
            "from iqfi_lab import *\n"
            "from oracles import rwa_qfi, rwa_state\n"
            "sig = SignalParams(B=0.3, omega=0.0, phi=0.2)\n"
            "train = make_pi_train([0.5, 1.2], 2.0)\n"
            "for p in (train, GhzProtocol(n=2, times=(0.0, 1.0)),\n"
            "          TransverseDrive(g=1.0, total_time=0.5)):\n"
            "    integrate_iqfi(p, sig)\n"
            "haar_average_iqfi(train, sig)\n"
            "rwa_qfi([0.5, 2.0], 0.3, 1.0, 4.0), rwa_state(2.0, 0.3, 1.0, 4.0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_no_module_imports_scipy():
    src = Path(iqfi_lab.cli.__file__).parents[1]
    found = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names
                      if n.split(".")[0] == "scipy"]
    assert found == []
