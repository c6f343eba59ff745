"""Closed forms, caps, and the driven-protocol reference model."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import iqfi_lab.bounds
from iqfi_lab.bounds import (
    applicable,
    b0_linear_bound,
    ghz_scaling,
    n_pulse_bound,
    pi_train_closed_form,
    pi_train_qfi,
    ramsey_closed_form,
    report_bound,
    report_equality,
    rwa_iqfi_lower_bound,
    rwa_qfi,
    rwa_state,
)
from iqfi_lab.protocol import (GhzProtocol, PiecewiseGenerator,
                               TransverseDrive, make_pi_train, make_ramsey)
from iqfi_lab.signal_core import SignalParams, theta


def test_ramsey_closed_form_values():
    T = 4.0
    assert ramsey_closed_form(T) == pytest.approx(2.0 * math.pi * T, rel=1e-14)
    assert ramsey_closed_form(T, phi=0.25 * math.pi) == pytest.approx(
        2.0 * T * (math.pi - math.log(4.0)), rel=1e-14)
    assert ramsey_closed_form(T, phi=0.75 * math.pi) == pytest.approx(
        2.0 * T * (math.pi + math.log(4.0)), rel=1e-14)
    assert ramsey_closed_form(T, zeta=3.0) == pytest.approx(
        9.0 * 2.0 * math.pi * T, rel=1e-14)


def test_ramsey_phase_average_is_flat_value():
    # the phase-odd part integrates away over a uniform phase ensemble
    T = 5.0
    phis = (np.arange(64) + 0.5) * 2.0 * math.pi / 64
    mean = np.mean([ramsey_closed_form(T, phi=p) for p in phis])
    assert mean == pytest.approx(2.0 * math.pi * T, rel=1e-12)


def test_pi_train_closed_form():
    T = 4.0
    assert pi_train_closed_form(0.0, T, 0.0) == 0.0
    assert pi_train_closed_form(0.0, T, 0.5 * math.pi) == pytest.approx(
        2.0 * math.pi * T, rel=1e-14)
    a = 1.0
    assert pi_train_closed_form(0.0, T, a) == pytest.approx(
        2.0 * math.pi * T * math.sin(a) ** 2, rel=1e-14)
    # start offset shifts the elapsed time, not the rate
    assert pi_train_closed_form(1.0, 5.0, a) == pytest.approx(
        pi_train_closed_form(0.0, 4.0, a), rel=1e-14)


def test_pi_train_qfi_signed_kernel():
    # independent reduction: J = 4 zeta^2 sin^2(alpha) (sum_k s_k Theta_k)^2
    times = [0.0, 0.9, 2.2, 4.0]
    alpha, zeta = 1.1, 1.3
    for om in (0.0, 0.8, 3.7):
        acc, sign = 0.0, 1.0
        for a, b in zip(times[:-1], times[1:]):
            acc += sign * theta(a, b, om)
            sign = -sign
        want = 4.0 * zeta ** 2 * math.sin(alpha) ** 2 * acc * acc
        got = pi_train_qfi(np.array([om]), times, alpha=alpha, zeta=zeta)[0]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-300)
    # symmetric echo cancels the DC response completely
    assert pi_train_qfi(np.array([0.0]), [0.0, 2.0, 4.0])[0] == 0.0
    # a scalar omega gives a float
    one = pi_train_qfi(0.8, times, alpha=alpha, zeta=zeta)
    assert type(one) is float
    assert one == pi_train_qfi(np.array([0.8]), times, alpha=alpha,
                               zeta=zeta)[0]


def test_small_field_cap_value():
    assert b0_linear_bound(1.0, 0.1) == pytest.approx(
        2.0 * math.pi * 1.2, rel=1e-14)
    assert b0_linear_bound(2.0, 0.0) == pytest.approx(
        4.0 * math.pi, rel=1e-14)


def test_segment_cap_value():
    assert n_pulse_bound(8, 4.0) == pytest.approx(64.0 * math.pi, rel=1e-14)
    assert n_pulse_bound(1, 4.0) == pytest.approx(8.0 * math.pi, rel=1e-14)
    with pytest.raises(ValueError, match="N must be >= 1"):
        n_pulse_bound(0, 4.0)


def test_ghz_scaling_pair():
    ent, sep = ghz_scaling(3, 2.0)
    assert ent == pytest.approx(36.0 * math.pi, rel=1e-14)
    assert sep == pytest.approx(12.0 * math.pi, rel=1e-14)
    e1, s1 = ghz_scaling(1, 2.0)
    assert e1 == s1 == pytest.approx(4.0 * math.pi, rel=1e-14)
    with pytest.raises(ValueError, match="n must be >= 1"):
        ghz_scaling(0, 2.0)


def test_rwa_state_is_normalized():
    for om in (0.0, 2.0, 5.0):
        psi = rwa_state(om, 0.7, 1.2, 3.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_rwa_closed_form_matches_expm_frechet():
    # the reference differentiates exp(-i H T) through scipy's Frechet
    # derivative of the matrix exponential, per omega
    from scipy.linalg import expm_frechet

    psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)

    def reference(omegas, B, g, T, zeta):
        out = []
        for w in omegas:
            u, d = zeta * B, w - 2.0 * g
            h = 0.5 * np.array([[u, -d], [-d, -u]], dtype=complex)
            dh = 0.5 * zeta * np.diag([1.0, -1.0]).astype(complex)
            U, dU = expm_frechet(-1j * T * h, -1j * T * dh)
            psi, dpsi = U @ psi0, dU @ psi0
            ov = np.vdot(dpsi, psi)
            out.append(4.0 * (np.vdot(dpsi, dpsi).real + (ov * ov).real))
        return np.array(out), U @ psi0

    rng = np.random.default_rng(1857)
    for i in range(320):
        g = float(rng.uniform(-3.0, 3.0))
        T = float(rng.uniform(0.1, 20.0))
        zeta = float(rng.uniform(0.2, 3.0))
        # every fourth draw takes B = 0, 1e-9 or -1e-9 in turn
        B = (0.0, 1e-9, -1e-9)[i % 3] if i % 4 == 0 \
            else float(rng.uniform(-5.0, 5.0))
        omegas = np.concatenate(([2.0 * g, abs(2.0 * g)],
                                 rng.uniform(0.0, 10.0, 4)))
        want, psi_last = reference(omegas, B, g, T, zeta)
        got = rwa_qfi(omegas, B, g, T, zeta=zeta)
        assert np.abs(got - want).max() <= 1e-13 * want.max(), (i, got, want)
        np.testing.assert_allclose(rwa_state(omegas[-1], B, g, T, zeta=zeta),
                                   psi_last, rtol=0.0, atol=1e-13)


def test_rwa_resonance_value_independent_of_field():
    g, T = 0.5 * math.pi, 8.0
    for B in (0.05, 0.3, 1.0):
        assert rwa_qfi(2.0 * g, B, g, T) == pytest.approx(T * T, rel=1e-12)


def test_rwa_detuning_symmetry():
    g, T = 0.5 * math.pi, 8.0
    for d in (0.3, 0.9, 2.0):
        lo = rwa_qfi(2.0 * g - d, 1.0, g, T)
        hi = rwa_qfi(2.0 * g + d, 1.0, g, T)
        assert hi == pytest.approx(lo, rel=1e-10)


def test_rwa_weak_field_limit():
    g, T = 0.5 * math.pi, 8.0
    for d in (0.5, 1.3, 3.0):
        lim = 4.0 * math.sin(0.5 * d * T) ** 2 / d ** 2
        assert rwa_qfi(2.0 * g + d, 1e-8, g, T) == pytest.approx(lim, rel=1e-5)


def test_rwa_lower_bound_limits():
    T = 4.0
    # strong field: both terms tend to g, so the bound approaches 2g T^2
    assert rwa_iqfi_lower_bound(T, 200.0, 0.1) == pytest.approx(
        2.0 * 0.1 * T * T, rel=1e-5)
    # weak field: arctan saturates at pi/2
    assert rwa_iqfi_lower_bound(T, 1e-3, 50.0) == pytest.approx(
        1e-3 * 0.5 * math.pi * T * T, rel=1e-4)
    assert rwa_iqfi_lower_bound(8.0, 1.0, 0.5 * math.pi) == pytest.approx(
        93.241803027, rel=1e-9)
    assert rwa_iqfi_lower_bound(8.0, 1.0, 0.5 * math.pi, zeta=2.0) \
        == pytest.approx(rwa_iqfi_lower_bound(8.0, 2.0, 0.5 * math.pi) * 4.0,
                         rel=1e-12)
    # J is even in B, and so is the floor
    assert rwa_iqfi_lower_bound(8.0, -1.0, 0.5 * math.pi) \
        == rwa_iqfi_lower_bound(8.0, 1.0, 0.5 * math.pi)


@pytest.mark.parametrize("g,zb,T", [
    (0.5 * math.pi, 1.0, 8.0),
    (2.0, 0.5, 10.0),
    (2.0, 0.5, 14.0),
    (0.5 * math.pi, 2.0, 4.0),
])
def test_rwa_band_integral_dominates_lower_bound(g, zb, T):
    # resonance band [g, 3g].  The envelope estimate carries oscillatory
    # O(1/(zb T)) corrections, so this is a spot check at points where the
    # band integral clears the estimate, not a universal inequality.
    assert zb * T >= 5.0
    val, err = quad(lambda w: rwa_qfi(w, zb, g, T), g, 3.0 * g, limit=400)
    bound = rwa_iqfi_lower_bound(T, zb, g)
    assert val + err >= bound


def test_report_bound_semantics():
    ok = report_bound("cap", 9.0, 10.0)
    assert ok.satisfied and ok.kind == "upper_bound"
    assert ok.margin == pytest.approx(0.1)
    bad = report_bound("cap", 11.0, 10.0)
    assert not bad.satisfied and bad.margin < 0.0
    rescued = report_bound("cap", 10.05, 10.0, slack=0.1)
    assert rescued.satisfied and rescued.margin < 0.0
    assert rescued.tolerance == pytest.approx(0.01)
    d = ok.to_dict()
    assert d["name"] == "cap" and d["satisfied"] is True


def test_report_equality_semantics():
    ok = report_equality("val", 1.0005, 1.0, tolerance=1e-3)
    assert ok.satisfied and ok.kind == "equality"
    bad = report_equality("val", 1.01, 1.0, tolerance=1e-3)
    assert not bad.satisfied
    zero = report_equality("zero", 0.0, 0.0, tolerance=1e-12)
    assert zero.satisfied


def names(protocol, B=0.0, phi=0.0, zeta=1.0, k=1.0, k_err=0.0):
    return [r.name for r in applicable(
        protocol, SignalParams(B=B, omega=0.0, phi=phi, zeta=zeta), k, k_err)]


def test_applicable_caps_hold_at_phase_zero_only():
    train = make_pi_train([1.0, 3.0], 4.0)
    assert names(train) == ["segment_count_cap", "small_field_cap"]
    assert names(train, phi=1e-9) == []
    assert names(make_ramsey(4.0), phi=0.75 * math.pi) == []


def test_applicable_small_field_cap_ends_at_half():
    ramsey = make_ramsey(2.0)
    # zeta*|B|*T = 0.5 exactly, then one ulp above it
    for B in (0.25, -0.25):
        assert names(ramsey, B=B) == ["segment_count_cap", "small_field_cap"]
    assert names(ramsey, B=0.125, zeta=2.0)[1:] == ["small_field_cap"]
    above = math.nextafter(0.25, 1.0)
    assert names(ramsey, B=above) == names(ramsey, B=-above) \
        == ["segment_count_cap"]


def test_applicable_rows_carry_the_caps_and_the_slack():
    train = make_pi_train([1.0, 3.0], 4.0)
    sig = SignalParams(B=0.05, omega=0.0, zeta=1.5)
    seg, small = applicable(train, sig, 30.0, 0.2)
    assert (seg.reference, small.reference) == (
        n_pulse_bound(3, 4.0, zeta=1.5), b0_linear_bound(4.0, 0.05, zeta=1.5))
    assert seg.measured == small.measured == 30.0
    assert seg.tolerance == 0.2 / seg.reference
    assert small.tolerance == 0.2 / small.reference


def test_applicable_ghz_value_only_at_zero_field_and_phase():
    ghz = GhzProtocol(n=3, times=(0.0, 2.0))
    (rep,) = applicable(ghz, SignalParams(B=0.0, omega=0.0), 1.0, 0.0)
    assert (rep.name, rep.kind, rep.tolerance) == \
        ("ghz_entangled_value", "equality", 0.01)
    assert rep.reference == ghz_scaling(3, 2.0)[0]
    assert names(ghz, B=1e-9) == names(ghz, phi=1e-9) == []


def test_applicable_drive_has_no_floor_at_zero_field():
    drive = TransverseDrive(g=0.5 * math.pi, total_time=8.0)
    assert names(drive) == []
    for B in (1.0, -1.0):
        (rep,) = applicable(drive, SignalParams(B=B, omega=0.0), 100.0, 1.0)
        assert (rep.name, rep.kind) == ("resonance_band_floor", "lower_bound")
        assert rep.reference == rwa_iqfi_lower_bound(8.0, 1.0, 0.5 * math.pi)


def test_applicable_piecewise_generator_gets_no_row():
    h = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    ctrl = PiecewiseGenerator(pieces=((0.0, 2.0, h),), total_time=2.0)
    for B in (0.0, 1.0):
        assert names(ctrl, B=B) == []


def test_bounds_module_calls_no_evolution_or_quadrature():
    """Reference numbers come from a route apart from the measured ones."""
    tree = ast.parse(Path(iqfi_lab.bounds.__file__).read_text())
    modules = [node.module or "" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    assert [m for m in modules
            if m.split(".")[-1] in ("evolution", "iqfi", "battery")] == []
