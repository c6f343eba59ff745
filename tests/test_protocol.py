"""Protocol constructors, validation diagnostics, and serialization."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from iqfi_lab.evolution import _reduced
from iqfi_lab.iqfi import _jumps
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
    validate,
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_constructors_reject_bad_durations(bad):
    for build in (make_ramsey,
                  lambda T: make_pi_train([], T),
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
        assert validate(p) is None


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
    bad_time = PulseSequence(
        pulses=(Pulse(time=5.0, axis="x", angle=math.pi),), total_time=4.0)
    assert "outside" in validate(bad_time)

    not_unitary = PulseSequence(
        pulses=(Pulse(time=1.0, matrix=np.array([[1.0, 1.0], [0.0, 1.0]],
                                                dtype=complex)),),
        total_time=4.0)
    assert "unitary" in validate(not_unitary)

    out_of_order = PulseSequence(
        pulses=(Pulse(time=2.0, axis="x", angle=1.0),
                Pulse(time=1.0, axis="y", angle=1.0)),
        total_time=4.0)
    assert "non-decreasing" in validate(out_of_order)


def test_validate_accepts_no_initial_state():
    # None means J and K averaged over Haar-random initial states
    train = make_pi_train([1.0, 2.0], 3.0)
    assert validate(PulseSequence(train.pulses, 3.0, None)) is None
    assert "finite" in validate(PulseSequence(train.pulses, 3.0,
                                              (math.nan, 0.0)))


def test_validate_rejects_nan_pulse_angle():
    seq = make_trotterized_gx(2.0, m=4, g=float("nan"))
    assert "unitary" in validate(seq)


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
    assert validate(ok) is None
    gap = PiecewiseGenerator(pieces=((0.0, 1.0, h), (1.5, 2.0, h)),
                             total_time=2.0)
    assert validate(gap) is not None


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
    problem = validate(PiecewiseGenerator(
        pieces=tuple(tuple(p) for p in pieces), total_time=2.0))
    assert problem is not None


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
