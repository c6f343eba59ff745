"""What the traced benchmark run reads of the program.

perfbench/tracing.py wraps qfi_vs_omega, discrete_propagators,
integrate_iqfi, integrate_qfi_band, haar_average_iqfi and cli.main, takes
the protocol as each call's first positional argument, and reads
HaarResult.samples and .method and QfiSpectrum.omegas, .integral,
.tail_coefficient and .tail_start.  Here each wrapped function is called
once under the tracer, and the per-layer metrics are formed from the spans.
"""

import importlib.util
import json
import math
import pathlib
import time

import numpy as np

import iqfi_lab.cli
import iqfi_lab.evolution
import iqfi_lab.iqfi
from iqfi_lab.protocol import (TransverseDrive, make_pi2_train, make_pi_train,
                               random_pulse_sequence)
from iqfi_lab.signal_core import SignalParams

TRACING = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
           / "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _calls(capsys):
    """One call of each wrapped function, looked up where the tracer puts
    it, the module attribute."""
    iqfi, evolution = iqfi_lab.iqfi, iqfi_lab.evolution
    su2 = random_pulse_sequence(np.random.default_rng(4), 2.0, max_pulses=3,
                                kind="su2")
    flat, field = (SignalParams(B=0.0, omega=0.0),
                   SignalParams(B=0.3, omega=0.0, phi=0.4))
    haar_flat = iqfi.haar_average_iqfi(su2, flat, samples=64)
    haar_field = iqfi.haar_average_iqfi(su2, field, samples=64)
    assert (haar_flat.method, haar_field.method) == ("closed_form",
                                                     "trace_formula")
    closed = iqfi.integrate_iqfi(make_pi_train([1.0, 2.0], 3.0), flat)
    assert closed.method == "closed_form"
    quad = iqfi.integrate_iqfi(make_pi2_train(0.5, 2.0), field)
    assert quad.method == "quadrature"
    band = iqfi.integrate_qfi_band(su2, field, 0.5, 4.0)
    assert math.isinf(band.tail_start)
    drive = evolution.qfi_vs_omega(TransverseDrive(g=1.0, total_time=1.0),
                                   field, omegas=np.linspace(0.0, 3.0, 4))
    assert drive.shape == (4,)
    code = iqfi_lab.cli.main(["haar", "--protocol", "pi-train", "--T", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert {"K_avg", "stderr"} <= set(json.loads(out))


def test_traced_calls_give_every_layer_metric(capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.case = "0:contract"
        start = time.perf_counter()
        _calls(capsys)
        solve_s = time.perf_counter() - start
    finally:
        tracer.case = None
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert names == {name for name, _, _ in tracing.BOUNDARIES}
    metrics = tracing.layer_metrics(tracer.spans, solve_s, 1, names)
    assert None not in metrics.values()
    assert all(math.isfinite(v) for v in metrics.values())
    # every frequency evaluated by an integration is kept in its spectrum
    assert metrics["iqfi.retained_ratio"] == 1.0
    assert metrics["iqfi.haar_samples"] == 0.0
    assert metrics["evolution.drive_nodes_per_s"] > 0.0
