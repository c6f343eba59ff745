"""Protocol constructors, validation diagnostics, and serialization."""

import json
import math

import numpy as np
import pytest

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
    ]
    for p in protos:
        assert validate(p) is None


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


def test_pulse_unitary_axis_angle():
    p = Pulse(time=0.0, axis="x", angle=math.pi)
    # exp(-i pi X / 2) = -i X
    np.testing.assert_allclose(p.unitary, -1j * SX, atol=1e-15)
    assert p.flips_z()
    assert not Pulse(time=0.0, axis="z", angle=1.0).flips_z()


def test_ghz_protocol_segment_signs():
    proto = GhzProtocol(n=3, times=(0.0, 1.0, 2.0, 3.0), flips=(True, False))
    np.testing.assert_allclose(proto.segment_signs(), [1.0, -1.0, -1.0])
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


def test_segment_count():
    # pulses at interior times split [0, T]; pulses at 0 or T add no segment
    assert make_ramsey(4.0).segment_count() == 1
    assert make_pi_train([1.0, 2.0, 3.0], 4.0).segment_count() == 4
    assert make_pi_train([1.0, 2.0, 3.0, 4.0], 4.0).segment_count() == 4
    assert make_pi_train([0.0, 2.0], 4.0).segment_count() == 2
