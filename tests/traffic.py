"""Which statements of the package the benchmark and the commands run.

    python tests/traffic.py

Line-traces every case of the four benchmark workloads once (the inputs
of perfbench/workloads.py at seed 31, warm-up included; nothing is timed
or checked), then each command at its defaults: iqfi, iqfi --protocol gx,
haar, spectrum, fig1, fig2 and bounds-check, in an empty temporary
directory.  The package is imported under the trace, so its module-level
statements count too.  For each module of src/iqfi_lab it prints the
statements that never ran, raise statements counted apart, and then
lists them.  It reads perfbench/ and changes nothing there; its output
is a report, with no threshold.  A docstring is no statement.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "iqfi_lab"
BENCH = ROOT / "perfbench"
SEED = 31
COMMANDS = (["iqfi"], ["iqfi", "--protocol", "gx"], ["haar"], ["spectrum"],
            ["fig1"], ["fig2"], ["bounds-check"])


def statements(source: str) -> dict:
    """{line: is a raise} of the first line of every statement of source,
    docstrings left out."""
    tree = ast.parse(source)
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}
    return {node.lineno: isinstance(node, ast.Raise)
            for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in docs}


def trace_lines(run) -> dict:
    """{file name: set of lines} of the package that run() executes, in
    this thread and in every thread it starts."""
    ran = collections.defaultdict(set)
    package = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {Path(name).name: lines for name, lines in ran.items()}


def run_all() -> None:
    """The workloads' cases at SEED, then the commands at their defaults."""
    sys.path[:0] = [str(BENCH)]
    import run as bench  # perfbench/run.py, which imports the package

    workloads = bench.load_program()
    for name in bench.WORKLOAD_NAMES:
        wl, cases = bench.build(workloads, name, SEED)
        wl.warmup()
        for case in cases:
            case.call()
    from iqfi_lab.cli import main

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    raise RuntimeError(f"{' '.join(argv)} exited {code}")
        finally:
            os.chdir(here)


def main() -> int:
    ran = trace_lines(run_all)
    rows, missed = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        stmts = statements(source)
        lines = ran.get(path.name, set())
        never = sorted(line for line in stmts if line not in lines)
        raises = sum(stmts[line] for line in never)
        rows.append((path.name, len(stmts), len(never) - raises, raises))
        text = source.split("\n")
        missed += [f"{path.name}:{line}{'  [raise]' if stmts[line] else ''}"
                   f"  {text[line - 1].strip()}" for line in never]
    print(f"# statements that never ran: the benchmark's workloads at seed "
          f"{SEED}, then {len(COMMANDS)} commands at their defaults")
    print(f"{'module':16} {'stmts':>5} {'other':>5} {'raise':>5}")
    for name, n, other, raises in rows:
        print(f"{name:16} {n:5d} {other:5d} {raises:5d}")
    print(f"{'total':16} {sum(r[1] for r in rows):5d} "
          f"{sum(r[2] for r in rows):5d} {sum(r[3] for r in rows):5d}")
    print("# never ran")
    print("\n".join(missed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
