"""The committed output contract of the command line: cases, runner, and
the script that regenerates tests/golden/.

    PYTHONPATH=src python tests/make_golden.py

Each case runs cli.main in-process, in an empty working directory.  What
it prints on stdout and every file it writes go to
tests/golden/<case>/, byte for byte; its exit code and the last line of
its stderr go to tests/golden/manifest.json, under a header that names
the Python and numpy that made them.  tests/test_golden.py runs the cases
again and compares: bytes under that Python and numpy, numbers to
1e-12 of their record elsewhere (see same_numbers).  Regenerate only for
a change that moves a number on purpose, and say so in CHANGES.md.
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
    # a train of more pulses than the cap is refused before any is built
    "iqfi-pi2-train-too-many-pulses": (["iqfi", "--protocol", "pi2-train",
                                        "--spacing", "1e-300", "--T", "1"],
                                       None),
    "iqfi-trotter-gx-too-many-pulses": (["iqfi", "--protocol", "trotter-gx",
                                         "--T", "1e12"], None),
    "iqfi-pi-train-too-many-pulses": (["iqfi", "--protocol", "pi-train",
                                       "--T", "1e12"], None),
}


def environment() -> dict:
    """The Python (major.minor) and numpy under which bytes must match."""
    return {"python": "%d.%d" % sys.version_info[:2],
            "numpy": np.__version__}


def run_case(argv, config, cwd: Path) -> dict:
    """Exit code, last stderr line and outputs ({name: bytes}; stdout as
    'stdout') of main(argv) run in the empty directory cwd."""
    if config is not None:
        (cwd / CONFIG).write_text(config)
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
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
    regenerate()
