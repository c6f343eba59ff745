"""The committed output contract of the command line: cases, runner, and
the script that regenerates tests/golden/.

    PYTHONPATH=src python tests/make_golden.py
    PYTHONPATH=src python tests/make_golden.py --drift

Each case runs cli.main in-process, in an empty working directory.  What
it prints on stdout and every file it writes go to
tests/golden/<case>/, byte for byte; its exit code and the last line of
its stderr go to tests/golden/manifest.json, under a header that names
the Python and numpy that made them.  tests/test_golden.py runs the cases
again and compares: bytes under that Python and numpy, numbers to
1e-12 of their record elsewhere (see same_numbers).  Regenerate only for
a change that moves a number on purpose, and say so in CHANGES.md.

--drift writes nothing: it runs every case against its committed record
and prints the table of K moves (see drift), for such a change to show
that each K moved by less than its old plus its new K_err.  It exits 1
if one did not, or if an exit code or a last stderr line changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from iqfi_lab.cli import PROTOCOL_NAMES, main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = "c.ini"  # a case's config file, written beside its outputs

# name: (argv, config text or None).  The iqfi cases run at T = 2, where
# the continuous drive integrates in a third of a second
CASES = {
    "bounds-check-json": (["bounds-check", "--draws", "2"], None),
    "bounds-check-csv": (["bounds-check", "--draws", "2", "--format", "csv"],
                         None),
    **{f"iqfi-{p}-B{b}": (["iqfi", "--protocol", p, "--T", "2", "--B", b,
                           "--format", "csv"], None)
       for p in PROTOCOL_NAMES for b in ("0", "0.7")},
    "haar": (["haar"], None),
    "spectrum": (["spectrum", "--points", "9"], None),
    "fig2": (["fig2", "--points", "9"], None),
    "fig1": (["fig1", "--T-list", "2,4", "--slope-window", "2,4"], None),
    # an empty --out exits 2 and writes nothing
    "fig2-empty-out": (["fig2", "--points", "9", "--out", ""], None),
    "iqfi-empty-out": (["iqfi", "--out", ""], None),
    "fig2-config-empty-out": (["fig2", "--config", CONFIG], "out =\n"),
    # a config file is read as flags: a section header, keys with a dash
    # and with an underscore, and a command-line flag that wins (--T)
    "iqfi-config": (["iqfi", "--config", CONFIG, "--T", "2", "--format",
                     "csv"], "[run]\nprotocol = pi2-train\nrel-tol = 1e-5\n"
                             "b = 0.7\nt = 4\n"),
    "spectrum-config": (["spectrum", "--config", CONFIG],
                        "points = 5\nomega_max = 3\n"),
    # commands at their defaults: every number comes from the parser
    "iqfi-defaults": (["iqfi"], None),
    "spectrum-defaults": (["spectrum"], None),
    "fig2-defaults": (["fig2"], None),
    "bounds-check-defaults": (["bounds-check"], None),
    # a train of more pulses than the cap is refused before any is built
    "iqfi-pi2-train-too-many-pulses": (["iqfi", "--protocol", "pi2-train",
                                        "--spacing", "1e-300", "--T", "1"],
                                       None),
    "iqfi-trotter-gx-too-many-pulses": (["iqfi", "--protocol", "trotter-gx",
                                         "--T", "1e12"], None),
    "iqfi-pi-train-too-many-pulses": (["iqfi", "--protocol", "pi-train",
                                       "--T", "1e12"], None),
    # a train with no pulse, a register with no duration and a Haar
    # average of a drive are refused
    "iqfi-pi2-train-no-pulse": (["iqfi", "--protocol", "pi2-train", "--T",
                                 "1e-10"], None),
    "iqfi-ghz-no-duration": (["iqfi", "--protocol", "ghz", "--times", "0,0"],
                             None),
    "haar-gx": (["haar", "--protocol", "gx"], None),
    # the help of the program and of each command, and a usage error:
    # argparse prints them and exits before main's own handling
    "help": (["--help"], None),
    **{f"{command}-help": ([command, "--help"], None)
       for command in ("spectrum", "iqfi", "fig1", "fig2", "bounds-check",
                       "haar")},
    "iqfi-bogus": (["iqfi", "--bogus"], None),
}


def environment() -> dict:
    """The Python (major.minor) and numpy under which bytes must match."""
    return {"python": "%d.%d" % sys.version_info[:2],
            "numpy": np.__version__}


def run_case(argv, config, cwd: Path) -> dict:
    """Exit code, last stderr line and outputs ({name: bytes}; stdout as
    'stdout') of main(argv) run in the empty directory cwd, on a terminal
    80 columns wide, to which argparse wraps its help."""
    if config is not None:
        (cwd / CONFIG).write_text(config)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              mock.patch.dict(os.environ, COLUMNS="80")):
            code = main(list(argv))
    except SystemExit as exc:  # argparse's help and usage errors
        code = exc.code
    finally:
        os.chdir(here)
    outputs = {"stdout": out.getvalue().encode()} if out.getvalue() else {}
    outputs.update((p.name, p.read_bytes()) for p in sorted(cwd.iterdir())
                   if p.name != CONFIG)
    lines = err.getvalue().splitlines()
    return {"exit": code, "stderr": lines[-1] if lines else "",
            "outputs": outputs}


def _numbers(node, found: list) -> None:
    """Append (value, record) for each number under a parsed JSON node;
    a record is the innermost object or array that holds the number."""
    items = node.values() if isinstance(node, dict) else node
    for item in items:
        if isinstance(item, (dict, list)):
            _numbers(item, found)
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            found.append((float(item), id(node)))


def _cells(text: str) -> tuple:
    """(skeleton, [(value, record)]) of a CSV or JSON text: the skeleton
    is the text with each number replaced by a marker."""
    if text.startswith(("[", "{")):
        doc = json.loads(text)
        found = []
        _numbers(doc, found)

        def strip(node):
            if isinstance(node, dict):
                return {k: strip(v) for k, v in node.items()}
            if isinstance(node, list):
                return [strip(v) for v in node]
            return node if isinstance(node, (str, bool)) or node is None \
                else "<number>"
        return json.dumps(strip(doc)), found
    lines = text.split("\n")
    # a key,value file is one record; any other row is a record of its own
    whole = "key,value" in lines
    skeleton, found = [], []
    for i, line in enumerate(lines):
        if line.startswith("#"):
            skeleton.append(line)
            continue
        cells = []
        for cell in line.split(","):
            try:
                found.append((float(cell), 0 if whole else i))
                cells.append("<number>")
            except ValueError:
                cells.append(cell)
        skeleton.append(",".join(cells))
    return "\n".join(skeleton), found


def same_numbers(got: bytes, want: bytes, rel: float = 1e-12):
    """None if got and want differ only in numbers, each by at most rel
    times the largest magnitude in its record (a CSV row, a whole
    key,value file, or a JSON object or array), so that an error estimate
    or a margin is measured against the K beside it; else what differs."""
    (sk_got, got_n), (sk_want, want_n) = (_cells(t.decode())
                                          for t in (got, want))
    if sk_got != sk_want:
        return "the text around the numbers differs"
    scale = {}
    for (a, rec), (b, _) in zip(got_n, want_n):
        if math.isfinite(a) and math.isfinite(b):
            scale[rec] = max(scale.get(rec, 0.0), abs(a), abs(b))
    for (a, rec), (b, _) in zip(got_n, want_n):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        if not abs(a - b) <= rel * scale.get(rec, 0.0):
            return f"{a!r} against {b!r}"
    return None


def committed(name: str) -> dict:
    """The record of case name in tests/golden/, in run_case's form."""
    record = json.loads((GOLDEN / "manifest.json").read_text())["cases"][name]
    folder = GOLDEN / name
    outputs = {p.name: p.read_bytes() for p in sorted(folder.iterdir())} \
        if folder.is_dir() else {}
    return {"exit": record["exit"], "stderr": record["stderr"],
            "outputs": outputs}


def k_values(outputs: dict) -> dict:
    """{row: (K, K_err)} of a case's outputs: the K and K_err of a JSON
    object or of a key,value CSV (row: the output's name), and each row of
    a T,K,K_err CSV (row: the output's name and T)."""
    found = {}
    for output, data in outputs.items():
        text = data.decode()
        if text.startswith("{"):
            doc = json.loads(text)
            if "K" in doc:
                found[output] = (doc["K"], doc["K_err"])
            continue
        rows = [line.split(",") for line in text.split("\n")
                if line and not line.startswith("#")]
        if rows and rows[0] == ["key", "value"]:
            kv = dict(rows[1:])
            if "K" in kv:
                found[output] = (float(kv["K"]), float(kv["K_err"]))
        elif rows and rows[0][:3] == ["T", "K", "K_err"]:
            found.update((f"{output} T={r[0]}", (float(r[1]), float(r[2])))
                         for r in rows[1:])
    return found


def drift(name: str, got: dict, want: dict) -> tuple:
    """(lines, failed): case name's rows of the K-drift table, got against
    its record want (both in run_case's form).  A row is case, row, old K,
    new K, |new - old| and the bound old K_err + new K_err.  It fails when
    a K moved beyond its bound or is missing from either side, or when
    the exit code or the last stderr line changed; any other changed
    output is listed after a '#' without failing."""
    lines, failed = [], False
    for key in ("exit", "stderr"):
        if got[key] != want[key]:
            lines.append(f"# {name}: {key} {want[key]!r} -> {got[key]!r}")
            failed = True
    old, new = k_values(want["outputs"]), k_values(got["outputs"])
    for row in {**old, **new}:
        if row not in old or row not in new:
            lines.append(f"# {name}: {row}: K only in the "
                         f"{'new' if row in new else 'old'} output")
            failed = True
            continue
        (k0, e0), (k1, e1) = old[row], new[row]
        moved, bound = abs(k1 - k0), e0 + e1
        lines.append(f"{name},{row},{k0!r},{k1!r},{moved:.3g},{bound:.3g}")
        failed |= not moved <= bound
    for output in sorted(want["outputs"].keys() | got["outputs"].keys()):
        if want["outputs"].get(output) != got["outputs"].get(output):
            lines.append(f"# {name}: {output} changed")
    return lines, failed


def drift_table() -> int:
    """Print the K-drift table of every case against tests/golden/; 1 if
    it fails, else 0."""
    print("case,row,K_old,K_new,moved,bound")
    failed = False
    for name, (argv, config) in CASES.items():
        try:
            want = committed(name)
        except KeyError:
            print(f"# {name}: a new case, with no record")
            continue
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(argv, config, Path(tmp))
        lines, bad = drift(name, got, want)
        for line in lines:
            print(line)
        failed |= bad
    print("# K moved beyond old + new K_err, or an exit code or last stderr "
          "line changed" if failed else "# every K within its bound")
    return int(failed)


def regenerate() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    manifest = {**environment(), "cases": {}}
    for name, (argv, config) in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(argv, config, Path(tmp))
        for output, data in got.pop("outputs").items():
            (GOLDEN / name).mkdir(exist_ok=True)
            (GOLDEN / name / output).write_bytes(data)
        manifest["cases"][name] = {"argv": argv, "config": config, **got}
    cases = manifest.pop("cases")
    # one line per case
    (GOLDEN / "manifest.json").write_text(
        json.dumps(manifest)[:-1] + ', "cases": {\n'
        + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                     for k, v in cases.items()) + "\n}}\n")


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--drift"]):
        sys.exit("usage: make_golden.py [--drift]")
    sys.exit(drift_table() if sys.argv[1:] else regenerate())
