"""Command-line surface: formats, config precedence, exit codes, outputs."""

import json
import math

import numpy as np
import pytest

from iqfi_lab.cli import SCHEMA_TAG, main

TAG = SCHEMA_TAG  # "# iqfi-lab v1"


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


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "iqfi", "--config", str(tmp_path / "nope.ini"))
    assert code == 2 and "nope.ini" in err


def test_bad_phase_exits_2(capsys):
    code, _, err = run(capsys, "iqfi", "--protocol", "ramsey", "--T", "2",
                       "--B", "0", "--phi", "7.0")
    assert code == 2 and "phi" in err


@pytest.mark.parametrize("flags", [
    ("--B", "nan"), ("--B", "inf"), ("--zeta", "inf"), ("--zeta", "nan"),
    ("--T", "nan"), ("--T", "inf"),
    ("--protocol", "pi-train", "--T", "inf"),
    ("--protocol", "trotter-gx", "--T", "nan"),
    ("--protocol", "pi-train", "--T", "4", "--times", "1,nan"),
    ("--protocol", "ghz", "--times", "0,1,inf"),
])
def test_non_finite_input_exits_2(capsys, flags):
    code, out, err = run(capsys, "iqfi", *flags)
    assert code == 2 and out == "" and "finite" in err


@pytest.mark.parametrize("flags", [("--B", "1,nan"), ("--T-list", "2,inf")])
def test_fig1_non_finite_input_exits_2(tmp_path, capsys, flags):
    code, out, err = run(capsys, "fig1", "--out", str(tmp_path / "f.csv"),
                         *flags)
    assert code == 2 and out == "" and "finite" in err
    assert not list(tmp_path.iterdir())


def test_bad_protocol_choice_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["iqfi", "--protocol", "spiral"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_panel_budget_exhaustion_exits_3(capsys):
    code, _, err = run(capsys, "iqfi", "--protocol", "ramsey", "--T", "4",
                       "--B", "0", "--max-panels", "8")
    assert code == 3
    assert "integration failed" in err


def test_output_files_are_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["spectrum", "--protocol", "pi-train", "--times", "1,3", "--T", "4",
            "--B", "0.5", "--points", "65"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(TAG.encode())


def test_fig1_serial_and_parallel_agree(tmp_path, capsys):
    common = ["fig1", "--T-list", "2,4", "--B", "0.01", "--slope-window",
              "2,4", "--rel-tol", "1e-4"]
    f1, f2 = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(common + ["--jobs", "1", "--out", str(f1)]) == 0
    assert main(common + ["--jobs", "2", "--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    lines = f1.read_text().strip().splitlines()
    assert lines[0] == TAG
    header_at = next(i for i, ln in enumerate(lines) if ln == "T,K,K_err,slope_window")
    rows = [ln.split(",") for ln in lines[header_at + 1:]]
    assert len(rows) == 2
    # fitted slope is repeated on every row
    assert rows[0][3] == rows[1][3]
    assert float(rows[0][3]) == pytest.approx(1.0, abs=0.05)


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


def test_haar_closed_form(capsys):
    code, out, _ = run(capsys, "haar", "--protocol", "pi-train",
                       "--times", "1,2,3", "--T", "4", "--B", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "closed_form"
    assert doc["K_avg"] == pytest.approx(16.0 * math.pi / 3.0, rel=1e-12)


def test_haar_monte_carlo_seeded(capsys):
    argv = ("haar", "--protocol", "pi-train", "--times", "1,2,3", "--T", "4",
            "--B", "0", "--phi", "0.7", "--samples", "256")
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    doc1 = json.loads(out1)
    assert doc1["method"] == "monte_carlo" and doc1["samples"] == 256
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    _, out3, _ = run(capsys, *argv, "--seed", "3")
    assert json.loads(out3)["K_avg"] != doc1["K_avg"]


def test_haar_rejects_continuous_protocol(capsys):
    code, _, err = run(capsys, "haar", "--protocol", "gx", "--T", "4",
                       "--B", "1")
    assert code == 2 and "pulse-sequence" in err


def test_bounds_check_passes(capsys):
    code, out, _ = run(capsys, "bounds-check", "--draws", "2")
    assert code == 0
    reports = json.loads(out)
    names = {r["name"] for r in reports}
    assert {"ramsey_flat_phase", "haar_pi_train",
            "segment_count_cap_worst_of_2", "small_field_cap_worst_of_2",
            "resonance_band_floor"} <= names
    assert all(r["satisfied"] for r in reports)


def test_env_thread_count_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("IQFI_LAB_THREADS", "2")
    out = tmp_path / "env.csv"
    code = main(["fig1", "--T-list", "2,4", "--B", "0.01", "--slope-window",
                 "2,4", "--rel-tol", "1e-4", "--out", str(out)])
    capsys.readouterr()
    assert code == 0 and out.exists()

    monkeypatch.setenv("IQFI_LAB_THREADS", "0")
    code = main(["fig1", "--T-list", "2", "--B", "0.01", "--slope-window",
                 "2,4", "--out", str(tmp_path / "z.csv")])
    capsys.readouterr()
    assert code == 2
