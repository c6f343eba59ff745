"""Release gate: the twelve headline results at their stated tolerances.

Each check is one test and prints one PASS/FAIL line with the measured
figure (visible under pytest -s, or on failure).  Tolerances are fixed
here on purpose; loosening them to go green defeats the point.
"""

import math

import numpy as np
import pytest

from iqfi_lab.bounds import (
    b0_linear_bound,
    n_pulse_bound,
    rwa_iqfi_lower_bound,
    rwa_qfi,
)
from iqfi_lab.evolution import qfi_fd_oracle, qfi_vs_omega
from iqfi_lab.iqfi import (
    QuadratureConfig,
    fit_loglog_slope,
    haar_average_iqfi,
    integrate_iqfi,
    integrate_qfi_band,
    sweep_iqfi_vs_T,
)
from iqfi_lab.iqfi import _cos_tail, _integrate_adaptive
from iqfi_lab.protocol import (
    GhzProtocol,
    TransverseDrive,
    make_pi_train,
    make_ramsey,
    make_trotterized_gx,
    random_pulse_sequence,
)
from iqfi_lab.signal_core import SignalParams, theta

TWO_PI = 2.0 * math.pi
# wide tail window: the bias floor of the default config would eat the
# margins checked here
ACC_CFG = QuadratureConfig(tail_start_factor=240.0, max_panels=40000)
FLAT = SignalParams(B=0.0, omega=0.0)


def _verdict(label: str, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    print(line)
    assert ok, line


def test_acceptance_01_free_precession_integral():
    worst = 0.0
    for T in (1.0, 2.0, 4.0, 8.0):
        for zb in (0.0, 0.1):
            sig = SignalParams(B=zb, omega=0.0)
            k = integrate_iqfi(make_ramsey(T), sig, cfg=ACC_CFG).integral
            worst = max(worst, abs(k - TWO_PI * T) / (TWO_PI * T))
        sig = SignalParams(B=0.0, omega=0.0, phi=0.75 * math.pi)
        k = integrate_iqfi(make_ramsey(T), sig, cfg=ACC_CFG).integral
        want = 2.0 * T * (math.pi + math.log(4.0))
        worst = max(worst, abs(k - want) / want)
    _verdict("free-precession integral", worst <= 5e-3,
             f"worst rel err {worst:.2e} (tol 5.0e-03)")


def test_acceptance_02_train_placement_invariance():
    rng = np.random.default_rng(1907)
    T = 4.0
    worst = 0.0
    for _ in range(50):
        seq = random_pulse_sequence(rng, T, max_pulses=31, kind="pi_xy",
                                    equator=True)
        k = integrate_iqfi(seq, FLAT, cfg=ACC_CFG).integral
        worst = max(worst, abs(k - TWO_PI * T) / (TWO_PI * T))
    _verdict("train placement invariance", worst <= 1e-2,
             f"worst rel err {worst:.2e} over 50 draws (tol 1.0e-02)")


def test_acceptance_03_haar_average():
    T = 4.0
    res = haar_average_iqfi(make_pi_train([1.0, 2.0, 3.0], T), FLAT)
    want = 4.0 * math.pi * T / 3.0
    rel = abs(res.value - want) / want
    ok = res.method == "closed_form" and rel <= 1e-2
    _verdict("haar average", ok,
             f"K_avg {res.value:.6f} vs {want:.6f}, rel {rel:.2e} "
             f"({res.method}; tol 1.0e-02)")


def test_acceptance_04_cross_spectral_identity():
    # the panel engine at the default config on the raw kernel
    # sin(omega t1) sin(omega t0)/omega^2, with its exact tail (cosine
    # tails at t1 -+ t0), so Omega need not wait for the kernel to settle
    cfg = QuadratureConfig()
    rng = np.random.default_rng(1908)
    worst = 0.0
    for _ in range(20):
        t1 = float(rng.uniform(0.2, 6.0))
        t0 = float(rng.uniform(0.2, 6.0))
        omega_max = cfg.tail_start_factor / min(t1, t0)
        g = _cos_tail(np.array([t1 - t0, t1 + t0]), 0.0, omega_max)
        num = _integrate_adaptive(
            lambda om: t1 * t0 * np.sinc(om * t1 / math.pi)
            * np.sinc(om * t0 / math.pi),
            0.0, omega_max, TWO_PI / max(t1, t0), cfg,
            lambda: (0.5 * float(g[0] - g[1]), 0.0)).integral
        ref = 0.5 * math.pi * min(t1, t0)
        worst = max(worst, abs(num - ref) / ref)
    _verdict("cross-spectral identity", worst <= 1e-3,
             f"worst rel err {worst:.2e} over 20 pairs (tol 1.0e-03)")


def test_acceptance_05_derivative_oracle_equivalence():
    rng = np.random.default_rng(1909)
    worst = 0.0
    for _ in range(100):
        T = float(rng.uniform(0.5, 6.0))
        seq = random_pulse_sequence(rng, T, max_pulses=16)
        B = float(rng.uniform(-2.0, 2.0))
        phi = float(rng.uniform(0.0, TWO_PI))
        om = np.linspace(0.0, 20.0 / T, 32)
        sig = SignalParams(B=B, omega=0.0, phi=phi)
        j = qfi_vs_omega(seq, sig, omegas=om)
        ref = qfi_fd_oracle(seq, sig, omegas=om)
        scale = max(np.max(np.abs(ref)), 1e-12)
        worst = max(worst, float(np.max(np.abs(j - ref))) / scale)
    _verdict("derivative-state vs finite differences", worst <= 1e-6,
             f"worst scaled err {worst:.2e} over 100 protocols x 32 "
             f"frequencies (tol 1.0e-06)")


def test_acceptance_06_perturbative_cap():
    rng = np.random.default_rng(1910)
    worst_margin = math.inf
    for _ in range(30):
        T = float(rng.uniform(0.5, 5.0))
        seq = random_pulse_sequence(rng, T, max_pulses=8)
        B = 0.1 * float(rng.uniform(0.0, 1.0)) / T
        # flat signal phase: the cap's domain (a tilted phase lifts even a
        # single segment past 2 pi zeta^2 T)
        sig = SignalParams(B=B, omega=0.0)
        spec = integrate_iqfi(seq, sig, cfg=ACC_CFG)
        bound = b0_linear_bound(T, B)
        margin = bound - (spec.integral - spec.error_estimate)
        worst_margin = min(worst_margin, margin / bound)
    _verdict("weak-field cap", worst_margin >= 0.0,
             f"worst rel margin {worst_margin:+.2e} over 30 draws")


def test_acceptance_07_segment_count_cap():
    rng = np.random.default_rng(1911)
    worst_margin = math.inf
    for _ in range(50):
        T = float(rng.uniform(0.5, 4.0))
        seq = random_pulse_sequence(rng, T, max_pulses=7)
        n_seg = seq.segment_count()
        assert n_seg <= 8
        sig = SignalParams(B=1.0, omega=0.0)
        spec = integrate_iqfi(seq, sig, cfg=ACC_CFG)
        bound = n_pulse_bound(n_seg, T)
        margin = bound - (spec.integral - spec.error_estimate)
        worst_margin = min(worst_margin, margin / bound)
    _verdict("segment-count cap", worst_margin >= 0.0,
             f"worst rel margin {worst_margin:+.2e} over 50 draws")


def test_acceptance_08_crossover_slopes():
    g = 0.5 * math.pi
    Ts = [8.0, 11.0, 16.0, 23.0, 32.0]
    fam = lambda T: make_trotterized_gx(T, m=max(1, int(round(2 * T))), g=g)

    def slope(b):
        points = sweep_iqfi_vs_T(fam, Ts, SignalParams(B=b, omega=0.0),
                                 cfg=ACC_CFG)
        return fit_loglog_slope([p.T for p in points], [p.K for p in points])
    strong, weak = slope(1.0), slope(0.01)
    ok = 1.7 <= strong <= 2.1 and 0.9 <= weak <= 1.15
    _verdict("duration-scaling crossover", ok,
             f"slope {strong:.4f} at strong field (need [1.7, 2.1]), "
             f"{weak:.4f} at weak field (need [0.9, 1.15])")


def _tensor_pair_qfi(times, flips, sig):
    """Dense two-qubit evolution, differentiated by the product rule."""
    zsum = np.diag([2.0, 0.0, 0.0, -2.0])
    xx = np.fliplr(np.eye(4))
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    dpsi = np.zeros_like(psi)
    for i in range(len(times) - 1):
        th = theta(times[i], times[i + 1], sig.omega, sig.phi)
        u = np.diag(np.exp(-1j * sig.zeta * sig.B * th * np.diag(zsum)))
        dpsi = u @ dpsi + (-1j * sig.zeta * th) * (zsum @ (u @ psi))
        psi = u @ psi
        if flips is not None and i < len(flips) and flips[i]:
            psi, dpsi = xx @ psi, xx @ dpsi
    ov = np.vdot(dpsi, psi)
    return float(4.0 * (np.vdot(dpsi, dpsi).real + (ov * ov).real))


def test_acceptance_09_entangled_register_scaling():
    T = 4.0
    worst = 0.0
    for n in (1, 2, 3, 4):
        proto = GhzProtocol(n=n, times=(0.0, T))
        k = integrate_iqfi(proto, FLAT, cfg=ACC_CFG).integral
        want = TWO_PI * n * n * T
        worst = max(worst, abs(k - want) / want)
    scaling_ok = worst <= 1e-2

    rng = np.random.default_rng(1912)
    worst_j = 0.0
    for _ in range(5):
        m = int(rng.integers(1, 5))
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, T, m))])
        flips = tuple(bool(rng.integers(2)) for _ in range(m - 1)) if m > 1 \
            else None
        B = float(rng.uniform(-1.0, 1.0))
        for om in np.linspace(0.0, 3.0, 7):
            sig = SignalParams(B=B, omega=float(om),
                               phi=float(rng.uniform(0.0, TWO_PI)))
            j = qfi_vs_omega(GhzProtocol(n=2, times=tuple(times), flips=flips),
                             sig)[0]
            ref = _tensor_pair_qfi(times, flips, sig)
            worst_j = max(worst_j, abs(j - ref) / max(abs(ref), 1e-2))
    oracle_ok = worst_j <= 1e-10
    _verdict("entangled-register scaling", scaling_ok and oracle_ok,
             f"worst rel err {worst:.2e} for n in 1..4 (tol 1.0e-02); "
             f"pair-register tensor oracle worst {worst_j:.2e} (tol 1.0e-10)")


def test_acceptance_10_driven_protocol_reference_model():
    g, T = 0.5 * math.pi, 8.0
    drive = TransverseDrive(g=g, total_time=T)
    sig = SignalParams(B=1.0, omega=0.0)
    om = np.linspace(1.5, 4.8, 67)
    j = qfi_vs_omega(drive, sig, omegas=om, ode_tol=1e-9)
    peak = float(np.max(j))
    ref_peak = rwa_qfi(2.0 * g, 1.0, g, T)
    peak_ok = abs(peak - ref_peak) / ref_peak <= 0.10

    band = integrate_qfi_band(drive, sig, g, 3.0 * g).integral
    floor = rwa_iqfi_lower_bound(T, 1.0, g)
    band_ok = band >= floor
    _verdict("driven-protocol reference model", peak_ok and band_ok,
             f"peak {peak:.4f} vs {ref_peak:.4f} "
             f"({abs(peak - ref_peak) / ref_peak:.1%}, tol 10%); "
             f"band {band:.4f} >= floor {floor:.4f}")


def test_acceptance_11_spectral_peak_locations():
    g, T = 0.5 * math.pi, 8.0
    om_r = np.linspace(0.0, 8.0 * math.pi / T, 257)
    j_r = qfi_vs_omega(make_ramsey(T), SignalParams(B=1.0, omega=0.0),
                       omegas=om_r)
    ramsey_peak = float(om_r[int(np.argmax(j_r))])

    om_g = np.linspace(0.0, 4.0 * g, 161)
    j_g = qfi_vs_omega(TransverseDrive(g=g, total_time=T),
                       SignalParams(B=1.0, omega=0.0), omegas=om_g,
                       ode_tol=1e-9)
    drive_peak = float(om_g[int(np.argmax(j_g))])
    ok = ramsey_peak == 0.0 and 1.8 * g <= drive_peak <= 2.2 * g
    _verdict("spectral peak locations", ok,
             f"free-precession argmax {ramsey_peak:.4f} (need 0); "
             f"driven argmax {drive_peak / g:.3f} g (need [1.8, 2.2] g)")


def test_acceptance_12_splitting_convergence():
    g, T = 0.5 * math.pi, 4.0
    sig_b = 1.0
    om = np.array([0.4, 1.1, 2.0 * g, 4.2, 5.5])
    ref = qfi_vs_omega(TransverseDrive(g=g, total_time=T),
                       SignalParams(B=sig_b, omega=0.0), omegas=om,
                       ode_tol=1e-11)
    ms = np.array([64, 128, 256, 512])
    errs = []
    for m in ms:
        j = qfi_vs_omega(make_trotterized_gx(T, m=int(m), g=g),
                         SignalParams(B=sig_b, omega=0.0), omegas=om)
        errs.append(float(np.max(np.abs(j - ref))))
    errs = np.array(errs)
    monotone = bool(np.all(np.diff(errs) < 0.0))
    slope = float(np.polyfit(np.log(ms), np.log(errs), 1)[0])
    ok = monotone and slope <= -0.95
    _verdict("splitting convergence", ok,
             f"errors {[f'{e:.2e}' for e in errs]} over m in {ms.tolist()}, "
             f"slope {slope:.3f} (need <= -0.95)")
