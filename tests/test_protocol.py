"""Protocol constructors, the checks they make, and serialization."""

import ast
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import iqfi_lab
import iqfi_lab.cli
import iqfi_lab.evolution
import iqfi_lab.iqfi
from iqfi_lab.evolution import _jumps, _reduced
from iqfi_lab.protocol import (
    GhzProtocol,
    PiecewiseGenerator,
    Pulse,
    PulseSequence,
    TransverseDrive,
    bloch_state,
    make_pi2_train,
    make_pi_train,
    make_ramsey,
    make_trotterized_gx,
    random_pulse_sequence,
    sequence_from_json,
    sequence_to_json,
)
from iqfi_lab.signal_core import SignalParams

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_ramsey_constructor():
    seq = make_ramsey(1.0)
    assert len(seq.pulses) == 0
    assert seq.total_time == 1.0
    seq8 = make_ramsey(8.0)
    assert seq8.total_time == 8.0
    with pytest.raises(ValueError):
        make_ramsey(0.0)


def test_pi_train_constructor():
    seq = make_pi_train([1.0, 2.0, 3.0, 4.0], 4.0)
    assert [p.time for p in seq.pulses] == [1.0, 2.0, 3.0, 4.0]
    assert all(p.angle == math.pi for p in seq.pulses)
    # single echo and the empty (Ramsey-equivalent) train
    assert len(make_pi_train([2.0], 4.0).pulses) == 1
    assert len(make_pi_train([], 2.0).pulses) == 0
    with pytest.raises(ValueError):
        make_pi_train([3.0, 1.0], 4.0)
    with pytest.raises(ValueError):
        make_pi_train([5.0], 4.0)
    # None stands for the whole numbers inside (0, T), or T/2 if none
    for T, times in [(4.0, [1.0, 2.0, 3.0]), (3.5, [1.0, 2.0, 3.0]),
                     (1.0, [0.5]), (0.4, [0.2])]:
        assert make_pi_train(None, T).times.tolist() == times


def test_pi2_train_constructor():
    assert len(make_pi2_train(0.5, 2.0).pulses) == 4
    assert len(make_pi2_train(1.0, 4.0).pulses) == 4
    with pytest.raises(ValueError):
        make_pi2_train(3.0, 4.0)


def test_trotterized_constructor():
    seq = make_trotterized_gx(4.0, m=8, g=math.pi / 2.0)
    assert len(seq.pulses) == 8
    assert seq.pulses[0].angle == pytest.approx(math.pi / 2.0)
    with pytest.raises(ValueError):
        make_trotterized_gx(4.0, m=0, g=1.0)


def test_trotter_m_equals_T_is_a_pi_train():
    # with g = pi/2 the per-segment X angle at m = T is exactly pi
    a = make_trotterized_gx(4.0, m=4, g=math.pi / 2.0)
    b = make_pi_train([1.0, 2.0, 3.0, 4.0], 4.0)
    for pa, pb in zip(a.pulses, b.pulses):
        assert pa.time == pb.time
        np.testing.assert_allclose(pa.unitary, pb.unitary, atol=1e-15)


@pytest.mark.parametrize("count", [2 ** 20 + 1, 1e300])
def test_train_makers_refuse_too_many_pulses(count):
    # such a train was built until the process ran out of memory; the
    # refusal comes before any pulse is built
    message = f"^{re.escape(f'{count:.7g}')} pulses are more than the " \
              f"1048576 a train may hold$"
    for build in (lambda: make_pi2_train(1.0, count),
                  lambda: make_trotterized_gx(1.0, m=count, g=1.0),
                  lambda: make_pi_train(None, count + 1)):
        with pytest.raises(ValueError, match=message):
            build()


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_constructors_reject_bad_durations(bad):
    for build in (make_ramsey,
                  lambda T: make_pi_train([], T),
                  lambda T: make_pi_train(None, T),
                  lambda T: make_pi2_train(0.5, T),
                  lambda T: make_trotterized_gx(T, m=4, g=1.0),
                  lambda T: TransverseDrive(g=1.0, total_time=T)):
        with pytest.raises(ValueError, match="total_time"):
            build(bad)
    if not math.isfinite(bad):
        with pytest.raises(ValueError, match="finite"):
            make_pi_train([1.0, bad], 4.0)
        with pytest.raises(ValueError, match="finite"):
            make_pi2_train(bad, 4.0)
        with pytest.raises(ValueError, match="finite"):
            GhzProtocol(n=2, times=(0.0, 1.0, bad))


def test_constructors_pass_validate():
    # each maker builds a protocol that passes the checks at construction,
    # and rebuilding it from its own fields passes them again
    rng = np.random.default_rng(9)
    protos = [
        make_ramsey(3.0),
        make_pi_train([0.5, 2.5], 3.0),
        make_pi2_train(0.5, 3.0),
        make_trotterized_gx(3.0, m=6, g=1.1),
        random_pulse_sequence(rng, 3.0, max_pulses=10),
        TransverseDrive(g=1.0, total_time=2.0),
        # m*(T/m) and count*spacing land an ulp past T here
        make_trotterized_gx(0.1, m=11, g=1.0),
        make_trotterized_gx(0.3, m=37, g=1.0),
        make_pi2_train(0.1, 0.3),
    ]
    for p in protos:
        assert replace(p).total_time == p.total_time


def test_no_pulse_lies_past_total_time():
    # a last pulse that m*(T/m) puts past T sits at T; every other time,
    # and a last pulse at or before T, stays at k*T/m
    for T, m in [(0.1, 11), (0.3, 37), (0.9, 3), (3.3, 7)]:
        seq = make_trotterized_gx(T, m=m, g=1.0)
        assert [p.time for p in seq.pulses] == [min(k * (T / m), T)
                                                for k in range(1, m + 1)]
    assert make_trotterized_gx(0.1, m=11, g=1.0).pulses[-1].time == 0.1
    assert make_pi2_train(0.1, 0.3).pulses[-1].time == 0.3


def test_cli_runs_a_train_whose_last_pulse_was_past_T(capsys):
    from iqfi_lab.cli import main

    code = main(["iqfi", "--protocol", "trotter-gx", "--T", "0.1",
                 "--m", "11"])
    capsys.readouterr()
    assert code == 0


def test_validate_diagnostics():
    with pytest.raises(ValueError, match="outside"):
        PulseSequence(pulses=(Pulse(time=5.0, axis="x", angle=math.pi),),
                      total_time=4.0)

    with pytest.raises(ValueError, match="unitary"):
        PulseSequence(
            pulses=(Pulse(time=1.0, matrix=np.array([[1.0, 1.0], [0.0, 1.0]],
                                                    dtype=complex)),),
            total_time=4.0)

    with pytest.raises(ValueError, match="non-decreasing"):
        PulseSequence(
            pulses=(Pulse(time=2.0, axis="x", angle=1.0),
                    Pulse(time=1.0, axis="y", angle=1.0)),
            total_time=4.0)


def test_validate_accepts_no_initial_state():
    # None means J and K averaged over Haar-random initial states
    train = make_pi_train([1.0, 2.0], 3.0)
    assert PulseSequence(train.pulses, 3.0, None).initial_state is None
    with pytest.raises(ValueError, match="finite"):
        PulseSequence(train.pulses, 3.0, (math.nan, 0.0))


def test_validate_rejects_nan_pulse_angle():
    with pytest.raises(ValueError, match="angle must be finite"):
        make_trotterized_gx(2.0, m=4, g=float("nan"))


PI_X = Pulse(time=1.0, axis="x", angle=math.pi)
# (what is built, the exact message of the ValueError it raises)
INVALID = {
    "time_past_T": (lambda: PulseSequence(
        (Pulse(time=5.0, axis="x", angle=math.pi),), 4.0),
        "pulse 0: time 5.0 outside [0, 4.0]"),
    "time_before_0": (lambda: PulseSequence(
        (Pulse(time=-0.5, axis="x", angle=math.pi),), 4.0),
        "pulse 0: time -0.5 outside [0, 4.0]"),
    "time_out_of_order": (lambda: PulseSequence(
        (Pulse(time=2.0, axis="x", angle=1.0),
         Pulse(time=1.0, axis="y", angle=1.0)), 4.0),
        "pulse 1: times must be non-decreasing"),
    "time_nan": (lambda: PulseSequence(
        (PI_X, Pulse(time=math.nan, axis="x", angle=1.0)), 4.0),
        "pulse 1: time must be finite"),
    "time_inf": (lambda: make_pi_train([1.0, math.inf], 4.0),
                 "pulse 1: time must be finite"),
    "angle_nan": (lambda: PulseSequence(
        (Pulse(time=1.0, axis="x", angle=math.nan),), 4.0),
        "pulse angle must be finite, got nan"),
    "angle_inf": (lambda: PulseSequence(
        (Pulse(time=0.5, axis="x", angle=math.inf),), 4.0),
        "pulse angle must be finite, got inf"),
    "matrix_not_unitary": (lambda: PulseSequence(
        (PI_X, Pulse(time=2.0, matrix=[[1.0, 1.0], [0.0, 1.0]])), 4.0),
        "pulse 1: not unitary (defect 1.00e+00)"),
    "total_time_nan": (lambda: PulseSequence((), math.nan),
                       "total_time must be positive and finite, got nan"),
    "total_time_inf": (lambda: PulseSequence((PI_X,), math.inf),
                       "total_time must be positive and finite, got inf"),
    "total_time_zero": (lambda: make_ramsey(0.0),
                        "total_time must be positive and finite, got 0.0"),
    "total_time_negative": (lambda: make_pi_train([], -1.0),
                            "total_time must be positive and finite, got -1.0"),
    "initial_state_nan": (lambda: PulseSequence((PI_X,), 4.0, (math.nan, 0.0)),
                          "initial_state angles must be finite"),
    "initial_state_inf": (lambda: make_ramsey(2.0, (0.5, math.inf)),
                          "initial_state angles must be finite"),
    "piecewise_total_time": (lambda: PiecewiseGenerator(
        ((0.0, 1.0, SX),), math.inf),
        "total_time must be positive and finite, got inf"),
    "piecewise_empty": (lambda: PiecewiseGenerator((), 1.0),
                        "pieces must be non-empty"),
    "piecewise_gap": (lambda: PiecewiseGenerator(
        ((0.0, 1.0, SX), (1.5, 2.0, SX)), 2.0),
        "piece 1: starts at 1.5, expected 1.0"),
    "piecewise_start_nan": (lambda: PiecewiseGenerator(
        ((0.0, 1.0, SX), (math.nan, 2.0, SX)), 2.0),
        "piece 1: starts at nan, expected 1.0"),
    "piecewise_end_before_start": (lambda: PiecewiseGenerator(
        ((0.0, 1.0, SX), (1.0, 0.5, SX)), 2.0),
        "piece 1: end 0.5 before start or not finite"),
    "piecewise_end_inf": (lambda: PiecewiseGenerator(
        ((0.0, math.inf, SX),), 2.0),
        "piece 0: end inf before start or not finite"),
    "piecewise_shape": (lambda: PiecewiseGenerator(
        ((0.0, 1.0, np.eye(3)),), 1.0),
        "piece 0: generator must be 2x2"),
    "piecewise_entry_nan": (lambda: PiecewiseGenerator(
        ((0.0, 1.0, [[0.0, math.nan], [math.nan, 0.0]]),), 1.0),
        "piece 0: generator entries must be finite"),
    "piecewise_not_hermitian": (lambda: PiecewiseGenerator(
        ((0.0, 1.0, [[0.0, 1.0], [0.0, 0.0]]),), 1.0),
        "piece 0: generator not Hermitian"),
    "piecewise_short": (lambda: PiecewiseGenerator(((0.0, 1.0, SX),), 2.0),
                        "pieces end at 1.0, expected total_time 2.0"),
    "axis_unknown": (lambda: Pulse(time=1.0, axis="w", angle=1.0),
                     "unknown axis 'w'; choose x, y or z"),
    "axis_zero": (lambda: Pulse(time=1.0, axis=(0.0, 0.0, 0.0), angle=1.0),
                  "rotation axis must be a nonzero 3-vector, got "
                  "(0.0, 0.0, 0.0)"),
    "pulse_axis_and_matrix": (lambda: Pulse(time=1.0, axis="x", angle=1.0,
                                            matrix=SX),
                              "give exactly one of (axis, angle) or matrix"),
    "pulse_neither": (lambda: Pulse(time=1.0),
                      "give exactly one of (axis, angle) or matrix"),
    "pulse_matrix_3x3": (lambda: Pulse(time=1.0, matrix=np.eye(3)),
                         "pulse matrix must be 2x2"),
    "random_kind_unknown": (lambda: random_pulse_sequence(
        np.random.default_rng(0), 2.0, max_pulses=3, kind="gauss"),
        "unknown kind 'gauss'"),
    "ghz_times_decreasing": (lambda: GhzProtocol(n=2, times=(0.0, 2.0, 1.0)),
                             "times must be non-decreasing"),
    "ghz_flips_wrong_length": (lambda: GhzProtocol(
        n=2, times=(0.0, 1.0, 2.0), flips=(1, 0)),
        "flips must have one entry per interior boundary"),
    "ghz_flip_not_0_or_1": (lambda: GhzProtocol(
        n=2, times=(0.0, 1.0, 2.0), flips=(0.5,)),
        "flips must be 0 or 1, got (0.5,)"),
    "ghz_n_zero": (lambda: GhzProtocol(n=0, times=(0.0, 1.0)),
                   "n must be a whole number >= 1, got 0"),
    "ghz_n_nan": (lambda: GhzProtocol(n=math.nan, times=(0.0, 2.0)),
                  "n must be a whole number >= 1, got nan"),
    "ghz_n_inf": (lambda: GhzProtocol(n=math.inf, times=(0.0, 2.0)),
                  "n must be a whole number >= 1, got inf"),
    "ghz_n_fractional": (lambda: GhzProtocol(n=2.5, times=(0.0, 2.0)),
                         "n must be a whole number >= 1, got 2.5"),
    "ghz_no_duration": (lambda: GhzProtocol(n=2, times=(0.0, 0.0)),
                        "total_time must be positive and finite, got 0.0"),
    # a count within 1e-9 of 0 passes the divisibility check
    "pi2_train_no_pulse": (lambda: make_pi2_train(0.5, 1e-10),
                           "spacing 0.5 leaves no pulse in total_time 1e-10"),
}


@pytest.mark.parametrize("name", INVALID)
def test_invalid_protocols_raise_at_construction(name):
    # every fault the former validate() diagnosed on a built protocol; the
    # NaN angle and the pulse past T were the two sequences that the Haar
    # average's closed form at B = 0 used to accept
    build, message = INVALID[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_invalid_json_document_raises_when_it_loads():
    doc = json.loads(sequence_to_json(make_pi_train([1.0, 2.0], 4.0)))
    doc["pulses"][1]["t"] = 5.0
    with pytest.raises(ValueError, match="pulse 1: time 5.0 outside"):
        sequence_from_json(json.dumps(doc))
    # a value of the wrong kind raised AttributeError or TypeError
    seq = PulseSequence((Pulse(time=1.0, axis="x", angle=1.0),
                         Pulse(time=2.0, matrix=SX)), 4.0)
    for path, key, value, message in [
            ((), "T", None, "bad value of 'T': null"),
            ((), "pulses", None, "bad value of 'pulses': null"),
            ((), "pulses", [1], "expected a JSON object, got 1"),
            (("pulses", 1), "matrix", [[1, 2]],
             "bad value of 'matrix': [[1, 2]]"),
            (("pulses", 1), "matrix", 5, "bad value of 'matrix': 5"),
            (("initial_state",), "alpha", None,
             "bad value of 'alpha': null"),
            ((), "initial_state", 3, "expected a JSON object, got 3"),
            (("pulses", 0), "axis", 5, "bad value of 'axis': 5")]:
        doc = json.loads(sequence_to_json(seq))
        node = doc
        for step in path:
            node = node[step]
        node[key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sequence_from_json(json.dumps(doc))


def test_json_of_another_type_raises():
    with pytest.raises(ValueError, match="unsupported protocol type 'ghz'"):
        sequence_from_json('{"type": "ghz", "T": 2.0}')
    # a document that is no object raised AttributeError
    for text in ("[]", "1", "null"):
        with pytest.raises(ValueError, match="^expected a JSON object, "
                                             f"got {re.escape(text)}$"):
            sequence_from_json(text)


@pytest.mark.parametrize("path, key", [
    ((), "T"), (("pulses", 0), "t"), (("pulses", 0), "axis"),
    (("pulses", 0), "angle"), (("pulses", 1), "matrix"),
    (("initial_state",), "alpha"), (("initial_state",), "beta")])
def test_json_missing_key_raises_value_error(path, key):
    # a missing key was a bare KeyError
    seq = PulseSequence((Pulse(time=1.0, axis="x", angle=1.0),
                         Pulse(time=2.0, matrix=SX)), 4.0)
    doc = json.loads(sequence_to_json(seq))
    node = doc
    for step in path:
        node = node[step]
    del node[key]
    # a pulse without its matrix is read as a rotation, and lacks an axis
    missing = "axis" if key == "matrix" else key
    with pytest.raises(ValueError, match=f"lacks the key '{missing}'"):
        sequence_from_json(json.dumps(doc))


def test_a_built_protocol_keeps_its_own_arrays():
    # the caller's arrays and lists, edited after construction, change
    # nothing in the protocol
    m, h = SX.copy(), SX.copy()
    axis, state = [0.0, 1.0, 0.0], [0.3, 0.2]
    seq = PulseSequence((Pulse(time=1.0, matrix=m),
                         Pulse(time=2.0, axis=axis, angle=1.0)), 3.0, state)
    ctrl = PiecewiseGenerator(((0.0, 3.0, h),), 3.0)
    m[:] = 0.0
    h[0, 1] = math.nan
    axis[1], state[0] = 0.0, math.nan
    np.testing.assert_array_equal(seq.pulses[0].unitary, SX)
    np.testing.assert_array_equal(ctrl.pieces[0][2], SX)
    assert seq.pulses[1].axis == (0.0, 1.0, 0.0)
    assert seq.initial_state == (0.3, 0.2)
    flips = GhzProtocol(n=2, times=(0.0, 1.0, 2.0, 3.0), flips=(1, 0.0)).flips
    assert flips == (True, False) and all(type(f) is bool for f in flips)
    n = GhzProtocol(n=3.0, times=(0.0, 1.0)).n
    assert n == 3 and type(n) is int


def test_protocol_arrays_are_read_only():
    # zeroing the matrix of a built pulse would make its sequence invalid
    # behind the constructor's back (K = 25.13 for a 32-pulse SU(2) train)
    seq = random_pulse_sequence(np.random.default_rng(3), 2.0, max_pulses=4)
    rotation = Pulse(time=1.0, axis="y", angle=0.3)
    ctrl = PiecewiseGenerator(((0.0, 1.0, SX),), 1.0)
    arrays = {"matrix": seq.pulses[0].matrix,
              "unitary of a matrix": seq.pulses[0].unitary,
              "unitary of a rotation": rotation.unitary,
              "generator": ctrl.pieces[0][2],
              **{name: getattr(iqfi_lab.protocol, name) for name in
                 ("SIGMA_X", "SIGMA_Y", "SIGMA_Z", "IDENTITY")}}
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0.0
        assert not a.flags.writeable, name


def test_no_module_but_protocol_checks_a_protocol():
    """What makes a protocol valid is decided where it is built: the
    modules that use protocols define no protocol check and import none."""
    checks = {"validate", "_check_sequence", "_drive_pieces"}
    found = []
    for module in (iqfi_lab.evolution, iqfi_lab.iqfi, iqfi_lab.cli):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                from_protocol = (node.module or "").endswith("protocol")
                names = [a.name for a in node.names if a.name in checks or (
                    from_protocol and a.name.startswith(("_check",
                                                         "_validate")))]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name] if node.name in checks else []
            else:
                continue
            found += [(Path(module.__file__).name, n) for n in names]
    assert found == []
    assert not hasattr(iqfi_lab, "validate")


def test_pulse_unitary_axis_angle():
    p = Pulse(time=0.0, axis="x", angle=math.pi)
    # exp(-i pi X / 2) = -i X
    np.testing.assert_allclose(p.unitary, -1j * SX, atol=1e-15)


def test_ghz_protocol_segment_signs():
    # a register is the pulse sequence it is in the {|0..0>, |1..1>} plane:
    # each segment's sign is the z of that sequence's toggling frame, and
    # the coupling is n*zeta
    proto = GhzProtocol(n=3, times=(0.0, 1.0, 2.0, 3.0), flips=(True, False))
    seq, sig = _reduced(proto, SignalParams(B=0.5, omega=0.0, zeta=1.5))
    np.testing.assert_array_equal(_jumps(seq)[2],
                                  [[0, 0, 1], [0, 0, -1], [0, 0, -1]])
    assert np.array_equal(seq.boundaries(), proto.times)
    assert (sig.zeta, sig.B) == (4.5, 0.5)
    assert proto.total_time == 3.0
    with pytest.raises(ValueError):
        GhzProtocol(n=0, times=(0.0, 1.0))
    with pytest.raises(ValueError):
        GhzProtocol(n=2, times=(2.0, 1.0))


def test_piecewise_generator_validation():
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    ok = PiecewiseGenerator(pieces=((0.0, 1.0, h), (1.0, 2.0, 2.0 * h)),
                            total_time=2.0)
    assert len(ok.pieces) == 2
    with pytest.raises(ValueError, match="piece 1: starts at 1.5"):
        PiecewiseGenerator(pieces=((0.0, 1.0, h), (1.5, 2.0, h)),
                           total_time=2.0)


@pytest.mark.parametrize("bad", ["entry", "start", "end", "inf_end"])
def test_piecewise_generator_rejects_non_finite(bad):
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    pieces = [[0.0, 1.0, h], [1.0, 2.0, h]]
    if bad == "entry":
        pieces[0][2] = np.array([[0.0, math.nan], [math.nan, 0.0]])
    elif bad == "start":
        pieces[1][0] = math.nan
    elif bad == "end":
        pieces[0][1] = math.nan
    else:
        pieces[1][1] = math.inf
    with pytest.raises(ValueError, match="^piece "):
        PiecewiseGenerator(pieces=tuple(tuple(p) for p in pieces),
                           total_time=2.0)


@pytest.mark.parametrize("g", [math.nan, math.inf, -math.inf])
def test_transverse_drive_rejects_non_finite_g(g):
    with pytest.raises(ValueError, match="g must be finite"):
        TransverseDrive(g=g, total_time=2.0)


def test_bloch_state():
    np.testing.assert_allclose(bloch_state(0.0, 0.0), [1.0, 0.0], atol=1e-15)
    plus = bloch_state(math.pi / 2.0, 0.0)
    np.testing.assert_allclose(plus, [1.0 / math.sqrt(2.0)] * 2, atol=1e-15)


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(12)
    for _ in range(20):
        seq = random_pulse_sequence(rng, float(rng.uniform(1.0, 9.0)),
                                    max_pulses=6)
        back = sequence_from_json(sequence_to_json(seq))
        assert back.total_time == seq.total_time
        assert back.initial_state == seq.initial_state
        assert len(back.pulses) == len(seq.pulses)
        for a, b in zip(seq.pulses, back.pulses):
            assert a.time == b.time
            np.testing.assert_array_equal(a.unitary, b.unitary)


def test_json_round_trip_of_a_vector_axis():
    seq = PulseSequence((Pulse(time=1.0, axis=(0.0, 0.6, 0.8), angle=1.2),),
                        2.0)
    doc = json.loads(sequence_to_json(seq))
    assert doc["pulses"][0]["axis"] == [0.0, 0.6, 0.8]
    back = sequence_from_json(json.dumps(doc))
    assert back.pulses[0].axis == (0.0, 0.6, 0.8)
    np.testing.assert_array_equal(back.pulses[0].unitary,
                                  seq.pulses[0].unitary)


def test_json_fields():
    seq = make_pi_train([1.0, 2.0], 4.0)
    doc = json.loads(sequence_to_json(seq))
    assert doc["T"] == 4.0
    assert doc["initial_state"] == {"alpha": math.pi / 2.0, "beta": 0.0}
    assert [p["t"] for p in doc["pulses"]] == [1.0, 2.0]
    assert all(p["axis"] == "x" and p["angle"] == math.pi
               for p in doc["pulses"])


def test_json_round_trip_of_a_haar_sequence():
    # no definite initial state is written as null and read back as None;
    # a missing key is still |+>
    seq = replace(make_pi_train([1.0, 2.0], 4.0), initial_state=None)
    text = sequence_to_json(seq)
    assert json.loads(text)["initial_state"] is None
    back = sequence_from_json(text)
    assert back.initial_state is None
    assert [p.time for p in back.pulses] == [1.0, 2.0]
    doc = json.loads(text)
    del doc["initial_state"]
    assert sequence_from_json(json.dumps(doc)).initial_state == (
        math.pi / 2.0, 0.0)


def test_segment_count():
    # pulses at interior times split [0, T]; pulses at 0 or T add no segment
    assert make_ramsey(4.0).segment_count() == 1
    assert make_pi_train([1.0, 2.0, 3.0], 4.0).segment_count() == 4
    assert make_pi_train([1.0, 2.0, 3.0, 4.0], 4.0).segment_count() == 4
    assert make_pi_train([0.0, 2.0], 4.0).segment_count() == 2
