"""Randomized regression battery over every closed form and cap of bounds.

The battery integrates, so it lives apart from bounds, whose functions
call no evolution or quadrature code.  Its caps, the GHZ value and the
drive's floor are the reports of bounds.applicable, picked by name, so
each is checked on the domain stated there.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .bounds import BoundReport, applicable, ramsey_closed_form, report_equality
from .iqfi import (QuadratureConfig, haar_average_iqfi, integrate_iqfi,
                   integrate_qfi_band)
from .protocol import (GhzProtocol, PulseSequence, TransverseDrive,
                       make_pi_train, make_ramsey, random_pulse_sequence)
from .signal_core import SignalParams

# battery and acceptance checks start the closed-form tail further out than
# the default factor of 40: it is exact for pulse trains at B = 0, but at
# B != 0 its error bound falls as 1/factor^2
BATTERY_CFG_KW = dict(tail_start_factor=240.0, max_panels=40000)
BATTERY_SEED = 1905
# Bloch angles (alpha, beta) of the six Pauli eigenstates; the mean of K
# over them is the exact Haar average, since J has degree 2 in psi0, psi0*
PAULI_STATES = ((0.0, 0.0), (math.pi, 0.0), (math.pi / 2.0, 0.0),
                (math.pi / 2.0, math.pi), (math.pi / 2.0, math.pi / 2.0),
                (math.pi / 2.0, 1.5 * math.pi))


def _worst_of(draws: int, draw) -> BoundReport:
    """The report of least margin over `draws` calls of draw(), in order,
    the first on ties; its name gains the suffix _worst_of_<draws>."""
    worst = min((draw() for _ in range(draws)), key=lambda r: r.margin)
    return replace(worst, name=f"{worst.name}_worst_of_{draws}")


def _applicable(name: str, protocol, signal, spectrum) -> BoundReport:
    """The report called name that bounds.applicable gives for the K and
    K error of spectrum."""
    return {r.name: r for r in applicable(protocol, signal, spectrum.integral,
                                          spectrum.error_estimate)}[name]


def run_bound_battery(seed: int = BATTERY_SEED, draws: int = 10) -> list:
    """Randomized regression battery over every closed form and cap, at
    the quadrature config BATTERY_CFG_KW."""
    if draws < 1:  # each worst-of-draws item needs a draw
        raise ValueError(f"--draws must be >= 1, got {draws}")
    if seed < 0:  # numpy's generators take no negative seed
        raise ValueError(f"--seed must be >= 0, got {seed}")
    cfg = QuadratureConfig(**BATTERY_CFG_KW)
    rng = np.random.default_rng(seed)
    reports = []
    z2pi = 2.0 * math.pi

    T = 4.0
    for name, phi in (("flat", 0.0), ("tilted", 0.75 * math.pi)):
        k = integrate_iqfi(make_ramsey(T), SignalParams(B=0.1, omega=0.0,
                                                        phi=phi),
                           cfg=cfg).integral
        reports.append(report_equality(f"ramsey_{name}_phase", k,
                                       ramsey_closed_form(T, phi=phi),
                                       tolerance=0.005))
    sig = SignalParams(B=0.1, omega=0.0)

    def pi_train():
        seq = random_pulse_sequence(rng, T, max_pulses=16, kind="pi_xy",
                                    equator=True)
        return report_equality("pi_train_invariance",
                               integrate_iqfi(seq, sig, cfg=cfg).integral,
                               z2pi * T, tolerance=0.01)
    reports.append(_worst_of(draws, pi_train))

    r = haar_average_iqfi(make_pi_train([1.0, 2.0, 3.0], T), sig, cfg=cfg)
    reports.append(report_equality(
        "haar_pi_train", r.value, (2.0 / 3.0) * z2pi * T, tolerance=0.01))

    seq = random_pulse_sequence(rng, T, max_pulses=6)
    sig_tilted = SignalParams(B=0.5, omega=0.0, phi=0.3)
    exact = haar_average_iqfi(seq, sig_tilted, cfg=cfg).value
    six = math.fsum(integrate_iqfi(PulseSequence(seq.pulses, T, state),
                                   sig_tilted, cfg=cfg).integral
                    for state in PAULI_STATES) / len(PAULI_STATES)
    reports.append(report_equality(
        "haar_exact_vs_six_states", exact, six, tolerance=1e-9))

    def random_cap(name, field):
        # the draws: a duration, then field(duration), then the sequence
        Td = float(rng.uniform(0.5, 4.0))
        sig_b = SignalParams(B=field(Td), omega=0.0)
        seq = random_pulse_sequence(rng, Td, max_pulses=8)
        return _applicable(name, seq, sig_b,
                           integrate_iqfi(seq, sig_b, cfg=cfg))
    # zeta*B*T <= 0.1, inside the small-field cap's domain
    reports.append(_worst_of(draws, lambda: random_cap(
        "small_field_cap", lambda Td: float(rng.uniform(0.0, 0.1 / Td)))))
    reports.append(_worst_of(draws, lambda: random_cap(
        "segment_count_cap", lambda Td: 1.0)))

    sig_0 = SignalParams(B=0.0, omega=0.0)
    for n in (2, 3):
        proto = GhzProtocol(n=n, times=(0.0, T))
        rep = _applicable("ghz_entangled_value", proto, sig_0,
                          integrate_iqfi(proto, sig_0, cfg=cfg))
        reports.append(replace(rep, name=f"ghz_n{n}_entangled_value"))

    # the band integral as K: the floor integrates the resonance band only
    g = math.pi / 2.0
    drive = TransverseDrive(g=g, total_time=8.0)
    sig_1 = SignalParams(B=1.0, omega=0.0)
    reports.append(_applicable("resonance_band_floor", drive, sig_1,
                               integrate_qfi_band(drive, sig_1, g, 3.0 * g)))
    return reports
