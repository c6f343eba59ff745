"""The command line's output contract: each case of make_golden.CASES,
run in-process, gives the stdout, files, exit code and last stderr line
committed in tests/golden/.  Bytes must match under the Python and numpy
named in the manifest; elsewhere numbers may move in their last bits."""

import json

import pytest

from make_golden import (CASES, GOLDEN, committed, drift, environment,
                         k_values, run_case, same_numbers)

MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
BYTES = environment() == {k: MANIFEST[k] for k in ("python", "numpy")}
# argparse's help is its Python's text, with no number to compare alone:
# under another Python only the exit code and last stderr line are
HELP = {name for name, (argv, _) in CASES.items() if "--help" in argv}


def test_manifest_holds_every_case():
    assert list(MANIFEST["cases"]) == list(CASES)
    for name, (argv, config) in CASES.items():
        assert MANIFEST["cases"][name]["argv"] == argv
        assert MANIFEST["cases"][name]["config"] == config


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    want = committed(name)
    got = run_case(*CASES[name], tmp_path)
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    assert sorted(got["outputs"]) == sorted(want["outputs"])
    for output, data in want["outputs"].items():
        if BYTES:
            assert got["outputs"][output] == data, output
        elif name not in HELP:
            assert same_numbers(got["outputs"][output], data) is None, output


def test_numbers_may_move_only_in_their_last_bits():
    want = (GOLDEN / "bounds-check-csv" / "stdout").read_bytes()
    row = want.decode().split("\n")[2].split(",")
    assert row[0] == "ramsey_flat_phase"  # measured, reference, margin
    measured = float(row[2])

    def moved(value):
        return want.replace(row[2].encode(), repr(value).encode(), 1)
    assert same_numbers(want, want) is None
    assert same_numbers(moved(measured * (1.0 + 1e-14)), want) is None
    assert same_numbers(moved(measured * (1.0 + 1e-9)), want) is not None
    assert same_numbers(want.replace(b"true", b"false", 1), want) is not None
    # an error estimate is measured against the K beside it
    k_file = (GOLDEN / "iqfi-ramsey-B0" / "stdout").read_bytes()
    err = next(ln for ln in k_file.decode().split("\n")
               if ln.startswith("K_err,")).split(",")[1]
    assert same_numbers(k_file.replace(err.encode(), repr(
        float(err) * 1.001).encode()), k_file) is None


@pytest.mark.parametrize("name, rows", [("iqfi-gx-B0.7", 1), ("fig1", 4)])
def test_k_may_drift_only_within_its_error_bars(name, rows):
    want = committed(name)
    ks = k_values(want["outputs"])
    assert len(ks) == rows
    k, k_err = next(iter(ks.values()))
    text = repr(k).encode()
    assert sum(data.count(text) for data in want["outputs"].values()) == 1

    def moved(by, **record):
        outputs = {output: data.replace(text, repr(k + by).encode())
                   for output, data in want["outputs"].items()}
        return drift(name, {**want, "outputs": outputs, **record}, want)
    lines, failed = moved(0.0)
    assert len(lines) == rows and not failed
    # the bound is the old plus the new K_err
    lines, failed = moved(0.99 * 2 * k_err)
    assert len(lines) == rows + 1 and not failed
    assert lines[-1].endswith(" changed")
    assert moved(1.01 * 2 * k_err)[1]
    assert moved(-1.01 * 2 * k_err)[1]
    assert moved(0.0, exit=3)[1]
    assert moved(0.0, stderr="iqfi-lab: a new last line")[1]
    # a K that is gone fails too
    assert drift(name, {**want, "outputs": {}}, want)[1]
