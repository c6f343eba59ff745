"""A seeded fuzzer of the command line.

Each case is an argv drawn at a fixed seed: a command, the flags that keep
its run short, and one to three of its own flags (--config and --out
among them), each with a value from POOL, or for --protocol and --format
from their choices too.  The argv runs in process, in an empty directory,
and must keep four rules:

- it exits 0, 2, 3 or 4;
- on exit 2 or 3, stderr holds exactly one line, unless argparse refused
  the words: its usage error prints the usage first and ends with an
  "error:" line;
- on exit 0, no number in stdout or in a file it wrote is NaN or
  infinite; numbers are parsed, so a word such as resonance_band_floor is
  no NaN;
- it finishes within LIMIT_S seconds.

pytest turns a numpy RuntimeWarning into an error, so a warning printed
on the way to an exit code fails the first rule.
"""

import json
import math
import random
import time

import pytest

from iqfi_lab.cli import _COMMANDS, _FLAGS, PROTOCOL_NAMES, main

SEED = 21
COUNT = 200
LIMIT_S = 5.0
POOL = ("0", "-1", "1", "0.5", "2.5", "7", "1e6", "1e308", "1e-320", "-0.0",
        "nan", "inf", "-inf", "abc", "", "3,4")
# a duration of 1e6 builds a pi train of a million pulses, which takes
# seconds: for --T and --T-list, the pool's long T is capped at 64
LONG_T = {"1e6": "64"}
DURATIONS = ("--T", "--T-list")
# flags that keep each command's run short; the drawn flags come after
# them, so a drawn value wins
BASE = {"spectrum": ["--points", "5"], "iqfi": [], "haar": [],
        "fig1": ["--T-list", "2,3", "--slope-window", "2,3"],
        "fig2": ["--points", "5", "--T", "2"],
        "bounds-check": ["--draws", "1"]}


def _value(rng, flag):
    value = rng.choice(POOL + tuple(_FLAGS.get(flag, {}).get("choices", ())))
    return LONG_T.get(value, value) if flag in DURATIONS else value


def _argvs():
    rng = random.Random(SEED)
    argvs = []
    for _ in range(COUNT):
        command = rng.choice(sorted(_COMMANDS))
        flags = _COMMANDS[command][2] + ("--config", "--out")
        argv = [command, *BASE[command]]
        if "--protocol" in flags:
            argv += ["--protocol", rng.choice(PROTOCOL_NAMES)]
        for flag in rng.sample(flags, rng.randint(1, 3)):
            argv.append(f"{flag}={_value(rng, flag)}")
        argvs.append(argv)
    return argvs


def _numbers(text):
    """Every number of an output text: the numbers of a JSON document, or
    each comma-separated field of a CSV row that parses as a float."""
    if text.lstrip().startswith(("{", "[")):
        found = []

        def walk(x):
            if isinstance(x, dict):
                x = list(x.values())
            if isinstance(x, list):
                for y in x:
                    walk(y)
            elif isinstance(x, (int, float)) and not isinstance(x, bool):
                found.append(float(x))
        walk(json.loads(text, parse_constant=float))
        return found
    found = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        for field in line.split(","):
            try:
                found.append(float(field))
            except ValueError:
                pass
    return found


ARGVS = _argvs()


@pytest.mark.parametrize("argv", ARGVS, ids=[" ".join(a) for a in ARGVS])
def test_an_argv_exits_cleanly(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    try:
        code, usage = main(argv), False
    except SystemExit as exc:  # argparse's usage error, or --help
        code, usage = exc.code, True
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    if usage:
        assert code == 2 and ": error: " in err.splitlines()[-1], err
    elif code in (2, 3):
        assert err.startswith("iqfi-lab: ") and err.count("\n") == 1, err
    if code == 0:
        texts = [out] + [p.read_text() for p in tmp_path.rglob("*")
                         if p.is_file()]
        bad = [x for text in texts for x in _numbers(text)
               if not math.isfinite(x)]
        assert bad == []
    assert elapsed < LIMIT_S
