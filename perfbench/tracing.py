"""Spans at the program's layer boundaries, recorded from outside.

`Tracer.install` wraps the program's public functions wherever a caller
looks them up (every module attribute of iqfi_lab that holds the function),
so calls between the program's own modules are seen as well as the
benchmark's.  Each span has a name, start, end, parent and case id; spans
live in memory and are written out once, at the end.  Only calls made while
a case is running are recorded.
"""

from __future__ import annotations

import functools
import json
import os
import re
import statistics
import subprocess
import sys
import time

import numpy as np

# (span name, module the function is defined in, attribute)
BOUNDARIES = (
    ("qfi_vs_omega", "iqfi_lab.evolution", "qfi_vs_omega"),
    ("discrete_propagators", "iqfi_lab.evolution", "discrete_propagators"),
    ("integrate_iqfi", "iqfi_lab.iqfi", "integrate_iqfi"),
    ("integrate_qfi_band", "iqfi_lab.iqfi", "integrate_qfi_band"),
    ("haar_average_iqfi", "iqfi_lab.iqfi", "haar_average_iqfi"),
    ("cli.main", "iqfi_lab.cli", "main"),
)
INTEGRATIONS = ("integrate_iqfi", "integrate_qfi_band")
CONTINUOUS = ("TransverseDrive", "PiecewiseGenerator")
IMPORT_LAYERS = ("signal_core", "protocol", "evolution", "iqfi", "bounds", "cli")


def _nodes(args, kwargs):
    omegas = kwargs.get("omegas", args[3] if len(args) > 3 else None)
    if omegas is None:
        return 1
    return int(np.size(omegas))


def _segments(seq) -> int:
    edges = np.concatenate(([0.0], [p.time for p in seq.pulses], [seq.total_time]))
    return int(np.count_nonzero(np.diff(edges) > 0.0))


def _describe(name, args, kwargs, result) -> dict:
    """Counts taken at the boundary from the call's inputs and output."""
    if name == "qfi_vs_omega":
        proto = args[0]
        info = {"nodes": _nodes(args, kwargs), "kind": type(proto).__name__}
        if info["kind"] == "GhzProtocol":
            info["theta_evals"] = info["nodes"] * (len(proto.times) - 1)
        return info
    if name == "discrete_propagators":
        seq = args[0]
        nodes = _nodes(args, kwargs)
        return {"nodes": nodes, "pulses": len(seq.pulses),
                "theta_evals": nodes * _segments(seq)}
    if name in INTEGRATIONS:
        info = {"kept": int(result.omegas.size), "kind": type(args[0]).__name__}
        if name == "integrate_iqfi" and result.integral != 0.0:
            info["tail_share"] = result.tail_coefficient / result.tail_start / result.integral
        return info
    if name == "haar_average_iqfi":
        return {"samples": int(result.samples), "method": result.method}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, case, info]
        self.case = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.case is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.case, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            span[5] = _describe(name, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every boundary that exists; a missing one records no span."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "iqfi_lab" or n.startswith("iqfi_lab.")}
        for name, home, attr in BOUNDARIES:
            fn = getattr(modules.get(home), attr, None)
            if fn is None:
                continue
            traced = self._wrap(name, fn)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
                        self._patched.append((mod, key, fn))

    def uninstall(self):
        for mod, key, fn in reversed(self._patched):
            setattr(mod, key, fn)
        self._patched.clear()

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump([{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                        "case": s[4], **s[5]} for s in self.spans], fh)


def layer_metrics(spans, solve_s: float, rounds: int, expected) -> dict:
    """Per-layer values from the spans of the timed cases.

    Shares are of `solve_s`, the traced seconds of all rounds; counts are
    per round.  `expected` names the boundaries the workload must cross; a
    metric whose boundary recorded no span is None (missing) there, and 0
    elsewhere.
    """
    expected = set(expected)
    if expected & set(INTEGRATIONS):
        expected.add("integration")
    dur = [s[2] - s[1] for s in spans]
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)

    def self_time(i):
        return dur[i] - sum(dur[c] for c in children[i])

    def pick(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    seen = {s[0] for s in spans}
    qvo = pick("qfi_vs_omega")
    drive = [i for i in qvo if spans[i][5].get("kind") in CONTINUOUS]
    if drive:
        seen.add("qfi_vs_omega:continuous")
    if seen & set(INTEGRATIONS):
        seen.add("integration")

    out = {}

    def put(metric, boundary, value):
        if boundary in seen:
            out[metric] = value
        else:
            out[metric] = None if boundary in expected else 0.0

    dprop = pick("discrete_propagators")
    integ = [i for i, s in enumerate(spans) if s[0] in INTEGRATIONS]
    haar = pick("haar_average_iqfi")
    mains = pick("cli.main")

    d_time = sum(dur[i] for i in dprop)
    node_pulses = sum(spans[i][5].get("nodes", 0) * spans[i][5].get("pulses", 0) for i in dprop)
    put("evolution.discrete_share", "discrete_propagators", d_time / solve_s)
    put("evolution.node_pulses", "discrete_propagators", node_pulses / rounds)
    put("evolution.node_pulses_per_s", "discrete_propagators",
        node_pulses / d_time if d_time > 0 else 0.0)

    drive_time = sum(dur[i] for i in drive)
    put("evolution.drive_share", "qfi_vs_omega:continuous", drive_time / solve_s)
    put("evolution.drive_nodes_per_s", "qfi_vs_omega:continuous",
        sum(spans[i][5].get("nodes", 0) for i in drive) / drive_time if drive_time > 0 else 0.0)

    # nodes: every qfi_vs_omega call, plus propagator passes made directly
    # on a node set (the Haar Monte Carlo), not through qfi_vs_omega
    direct = [i for i in dprop
              if spans[i][3] is None or spans[spans[i][3]][0] != "qfi_vs_omega"]
    put("evolution.nodes", "qfi_vs_omega",
        sum(spans[i][5].get("nodes", 0) for i in qvo + direct) / rounds)
    put("signal_core.theta_evals", "qfi_vs_omega",
        sum(spans[i][5].get("theta_evals", 0) for i in dprop + qvo) / rounds)

    put("iqfi.calls", "integration", len(integ) / rounds)
    put("iqfi.self_share", "integration", sum(self_time(i) for i in integ) / solve_s)
    # a continuous evaluator splits one batched evaluation into frequency
    # chunks, so refinements are counted on pulse and GHZ protocols only
    refine = 0
    evaluated = 0
    for i in integ:
        calls = [c for c in children[i] if spans[c][0] == "qfi_vs_omega"]
        evaluated += sum(spans[c][5].get("nodes", 0) for c in calls)
        if spans[i][5].get("kind") not in CONTINUOUS:
            refine += max(0, len(calls) - 1)
    put("iqfi.refine_calls", "integration", refine / rounds)
    put("iqfi.retained_ratio", "integration",
        sum(spans[i][5].get("kept", 0) for i in integ) / evaluated if evaluated else 0.0)
    shares = [spans[i][5]["tail_share"] for i in integ if "tail_share" in spans[i][5]]
    put("iqfi.tail_k_share", "integrate_iqfi", float(np.mean(shares)) if shares else 0.0)

    put("iqfi.haar_self_share", "haar_average_iqfi",
        sum(self_time(i) for i in haar) / solve_s)
    put("iqfi.haar_samples", "haar_average_iqfi",
        sum(spans[i][5].get("samples", 0) for i in haar) / rounds)
    put("cli.self_share", "cli.main", sum(self_time(i) for i in mains) / solve_s)
    return out


_UNITS = {"node_pulses": "count", "nodes": "count", "theta_evals": "count",
          "calls": "count", "refine_calls": "count", "haar_samples": "count",
          "node_pulses_per_s": "1/s", "drive_nodes_per_s": "1/s",
          "retained_ratio": "ratio", "solve_ref": "ref", "import_s": "s"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric; every other one is a share."""
    return _UNITS.get(metric.split(".", 1)[1], "share")


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)")


def import_times(root: str, env: dict, repeats: int = 3) -> dict:
    """Seconds of import attributed to each program module, from
    `python -X importtime` in fresh processes (median of `repeats`).

    A module's figure is the self time of every import it triggers that no
    other program module triggered first: numpy lands on signal_core, the
    first module to import it, and scipy.linalg on bounds.
    """
    runs = {layer: [] for layer in IMPORT_LAYERS}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import iqfi_lab.cli"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing iqfi_lab failed:\n{proc.stderr[-2000:]}")
        entries = [(len(m.group(3)), m.group(4), int(m.group(1)))
                   for m in map(_IMPORT_LINE.match, proc.stderr.splitlines()) if m]
        totals = {}
        stack = []  # (depth, owning program module); parents print after children
        for depth, name, self_us in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            owner = name if name.startswith("iqfi_lab") else (stack[-1][1] if stack else None)
            totals[owner] = totals.get(owner, 0) + self_us
            stack.append((depth, owner))
        for layer in IMPORT_LAYERS:
            runs[layer].append(totals.get(f"iqfi_lab.{layer}", 0) * 1e-6)
    return {f"{layer}.import_s": statistics.median(v) for layer, v in runs.items()}
