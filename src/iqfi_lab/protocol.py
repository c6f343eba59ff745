"""Sensing protocol construction, validation and serialization.

A discrete protocol is a sequence of instantaneous pulses (2x2 unitaries)
applied at fixed times inside [0, T], with free evolution under the signal
in between.  Continuous protocols specify a drive generator added to the
signal Hamiltonian.  Entangled-register protocols are described separately
by GhzProtocol since their evolution never leaves a 2-dimensional subspace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY",
    "Pulse",
    "PulseSequence",
    "TransverseDrive",
    "PiecewiseGenerator",
    "ContinuousControl",
    "GhzProtocol",
    "bloch_state",
    "make_ramsey",
    "make_pi_train",
    "make_pi2_train",
    "make_trotterized_gx",
    "validate",
    "random_pulse_sequence",
    "sequence_to_json",
    "sequence_from_json",
]


def bloch_state(alpha: float, beta: float) -> np.ndarray:
    """State vector cos(alpha/2)|0> + exp(i*beta) sin(alpha/2)|1>."""
    return np.array(
        [math.cos(alpha / 2.0), np.exp(1j * beta) * math.sin(alpha / 2.0)],
        dtype=complex,
    )


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """SU(2) rotation exp(-i*angle/2 * n.sigma) about unit vector n."""
    if isinstance(axis, str):
        axis = _AXES[axis.lower()]
    n = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise ValueError("rotation axis must be nonzero")
    n = n / norm
    gen = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    half = 0.5 * angle
    return math.cos(half) * IDENTITY - 1j * math.sin(half) * gen


def _check_total_time(total_time: float) -> None:
    if not (math.isfinite(total_time) and total_time > 0.0):
        raise ValueError(
            f"total_time must be positive and finite, got {total_time}")


@dataclass(frozen=True, eq=False)
class Pulse:
    """Instantaneous unitary at lab time `time`.

    Either (axis, angle) for a rotation, or an explicit 2x2 matrix.
    """

    time: float
    axis: Optional[object] = None
    angle: Optional[float] = None
    matrix: Optional[np.ndarray] = None

    def __post_init__(self):
        has_rot = self.axis is not None and self.angle is not None
        has_mat = self.matrix is not None
        if has_rot == has_mat:
            raise ValueError("give exactly one of (axis, angle) or matrix")
        if has_mat:
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError("pulse matrix must be 2x2")
            object.__setattr__(self, "matrix", m)

    @cached_property
    def unitary(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return rotation_matrix(self.axis, self.angle)

    def flips_z(self) -> bool:
        """True when U^dag Z U = -Z, i.e. the pulse reverses the Z axis."""
        u = self.unitary
        return np.allclose(u.conj().T @ SIGMA_Z @ u, -SIGMA_Z, atol=1e-12)


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """Pulses inside [0, total_time] plus the Bloch-angle initial state.

    initial_state = (alpha, beta) meaning cos(alpha/2)|0> + e^{i beta} sin(alpha/2)|1>;
    the default (pi/2, 0) is |+>.
    """

    pulses: tuple
    total_time: float
    initial_state: tuple = (math.pi / 2.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))

    @property
    def times(self) -> np.ndarray:
        return np.array([p.time for p in self.pulses], dtype=float)

    def boundaries(self) -> np.ndarray:
        """Free-segment boundaries: 0, pulse times, total_time."""
        return np.concatenate(([0.0], self.times, [self.total_time]))

    def segment_count(self) -> int:
        """Number of nonzero-duration free segments."""
        b = self.boundaries()
        return max(1, int(np.count_nonzero(np.diff(b) > 0.0)))

    def initial_vector(self) -> np.ndarray:
        return bloch_state(*self.initial_state)


@dataclass(frozen=True)
class TransverseDrive:
    """Constant drive g*X added to the signal Hamiltonian for all of [0, T]."""

    g: float
    total_time: float

    def __post_init__(self):
        _check_total_time(self.total_time)


@dataclass(frozen=True, eq=False)
class PiecewiseGenerator:
    """Piecewise-constant Hermitian generators tiling [0, T].

    pieces: sequence of (t_start, t_end, H) with contiguous intervals.
    """

    pieces: tuple
    total_time: float

    def __post_init__(self):
        norm = []
        for start, end, h in self.pieces:
            norm.append((float(start), float(end), np.asarray(h, dtype=complex)))
        object.__setattr__(self, "pieces", tuple(norm))


ContinuousControl = Union[TransverseDrive, PiecewiseGenerator]


@dataclass(frozen=True)
class GhzProtocol:
    """n-qubit GHZ register, free evolution over consecutive segments.

    times: segment boundaries from 0 to T.  flips: optional booleans, one per
    interior boundary, marking collective X flips applied there.
    """

    n: int
    times: tuple
    flips: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        t = self.times
        if len(t) < 2 or t[0] != 0.0:
            raise ValueError("times must start at 0 and contain the end time")
        if not all(math.isfinite(x) for x in t):
            raise ValueError("times must be finite")
        if any(b < a for a, b in zip(t, t[1:])):
            raise ValueError("times must be non-decreasing")
        if self.flips is not None and len(self.flips) != len(t) - 2:
            raise ValueError("flips must have one entry per interior boundary")

    @property
    def total_time(self) -> float:
        return self.times[-1]

    def segment_signs(self) -> np.ndarray:
        """Sign of each segment's kernel in the accumulated phase."""
        signs = np.ones(len(self.times) - 1)
        if self.flips is not None:
            flip = 1.0
            for i, f in enumerate(self.flips):
                if f:
                    flip = -flip
                signs[i + 1] = flip
        return signs


def make_ramsey(total_time: float, initial_state=(math.pi / 2.0, 0.0)) -> PulseSequence:
    """Free evolution only: prepare, wait T, measure."""
    _check_total_time(total_time)
    return PulseSequence(pulses=(), total_time=total_time, initial_state=initial_state)


def make_pi_train(times, total_time: float, axis="x",
                  initial_state=(math.pi / 2.0, 0.0)) -> PulseSequence:
    """pi rotations about `axis` at the given times (t = total_time allowed)."""
    _check_total_time(total_time)
    ts = [float(t) for t in times]
    if not all(math.isfinite(t) for t in ts):
        raise ValueError("pulse times must be finite")
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("pulse times must be non-decreasing")
    if ts and (ts[0] < 0.0 or ts[-1] > total_time):
        raise ValueError("pulse times must lie inside [0, total_time]")
    pulses = tuple(Pulse(time=t, axis=axis, angle=math.pi) for t in ts)
    return PulseSequence(pulses=pulses, total_time=total_time,
                         initial_state=initial_state)


def make_pi2_train(spacing: float, total_time: float, axis="x",
                   initial_state=(math.pi / 2.0, 0.0)) -> PulseSequence:
    """pi/2 rotations at k*spacing for k = 1 .. T/spacing.

    spacing must divide total_time to within 1e-9.
    """
    _check_total_time(total_time)
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    count = total_time / spacing
    if abs(count - round(count)) > 1e-9:
        raise ValueError("spacing must divide total_time")
    count = int(round(count))
    pulses = tuple(
        Pulse(time=k * spacing, axis=axis, angle=math.pi / 2.0)
        for k in range(1, count + 1)
    )
    return PulseSequence(pulses=pulses, total_time=total_time,
                         initial_state=initial_state)


def make_trotterized_gx(total_time: float, m: int, g: float,
                        initial_state=(math.pi / 2.0, 0.0)) -> PulseSequence:
    """First-order split of the g*X drive into m equal segments.

    Each segment of width T/m is free evolution under the signal followed by
    an X rotation of angle 2*g*(T/m), the angle accumulated by g*X over the
    segment.  m = T (g = pi/2) gives a pi-train at integer times; m = 2T a
    pi/2-train every half second.
    """
    _check_total_time(total_time)
    if m < 1 or m != int(m):
        raise ValueError("m must be a positive integer")
    dt = total_time / m
    angle = 2.0 * g * dt
    pulses = tuple(Pulse(time=k * dt, axis="x", angle=angle) for k in range(1, m + 1))
    return PulseSequence(pulses=pulses, total_time=total_time,
                         initial_state=initial_state)


def validate(protocol) -> Optional[str]:
    """Return a description of the first invariant violation, or None.

    Accepts PulseSequence, TransverseDrive, PiecewiseGenerator or GhzProtocol.
    Diagnoses rather than raising so hand-built protocols can be inspected.
    """
    if isinstance(protocol, PulseSequence):
        return _validate_sequence(protocol)
    if isinstance(protocol, TransverseDrive):
        if protocol.total_time <= 0.0:
            return "total_time must be > 0"
        if not math.isfinite(protocol.g):
            return "g must be finite"
        return None
    if isinstance(protocol, PiecewiseGenerator):
        return _validate_piecewise(protocol)
    if isinstance(protocol, GhzProtocol):
        return None  # construction already enforced the invariants
    return f"unknown protocol type {type(protocol).__name__}"


def _validate_sequence(seq: PulseSequence) -> Optional[str]:
    if not math.isfinite(seq.total_time) or seq.total_time <= 0.0:
        return f"total_time must be positive and finite, got {seq.total_time}"
    alpha, beta = seq.initial_state
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        return "initial_state angles must be finite"
    prev = 0.0
    for i, p in enumerate(seq.pulses):
        if not math.isfinite(p.time):
            return f"pulse {i}: time must be finite"
        if p.time < 0.0 or p.time > seq.total_time:
            return f"pulse {i}: time {p.time} outside [0, {seq.total_time}]"
        if p.time < prev:
            return f"pulse {i}: times must be non-decreasing"
        prev = p.time
        u = p.unitary
        defect = np.abs(u.conj().T @ u - IDENTITY).max()
        if defect > 1e-12:
            return f"pulse {i}: not unitary (defect {defect:.2e})"
    return None


def _validate_piecewise(ctrl: PiecewiseGenerator) -> Optional[str]:
    if not math.isfinite(ctrl.total_time) or ctrl.total_time <= 0.0:
        return f"total_time must be positive and finite, got {ctrl.total_time}"
    if not ctrl.pieces:
        return "pieces must be non-empty"
    expect = 0.0
    for i, (start, end, h) in enumerate(ctrl.pieces):
        if abs(start - expect) > 1e-12:
            return f"piece {i}: starts at {start}, expected {expect}"
        if end < start:
            return f"piece {i}: end before start"
        if h.shape != (2, 2):
            return f"piece {i}: generator must be 2x2"
        if np.abs(h - h.conj().T).max() > 1e-12:
            return f"piece {i}: generator not Hermitian"
        expect = end
    if abs(expect - ctrl.total_time) > 1e-12:
        return f"pieces end at {expect}, expected total_time {ctrl.total_time}"
    return None


def random_pulse_sequence(rng: np.random.Generator, total_time: float,
                          max_pulses: int, kind: str = "su2",
                          equator: bool = False) -> PulseSequence:
    """Seeded random protocol for property and bound checks.

    kind "su2": Haar-random unitary pulses at uniform times, random initial
    state.  kind "pi_xy": pi pulses about x or y, as in echo trains.
    equator=True pins alpha = pi/2 (beta still random).
    """
    n = int(rng.integers(1, max_pulses + 1))
    times = np.sort(rng.uniform(0.0, total_time, size=n))
    if equator:
        init = (math.pi / 2.0, float(rng.uniform(0.0, 2.0 * math.pi)))
    else:
        init = (float(np.arccos(rng.uniform(-1.0, 1.0))),
                float(rng.uniform(0.0, 2.0 * math.pi)))
    if kind == "su2":
        pulses = tuple(
            Pulse(time=float(t), matrix=_haar_su2(rng)) for t in times
        )
    elif kind == "pi_xy":
        pulses = tuple(
            Pulse(time=float(t), axis=("x" if rng.integers(2) == 0 else "y"),
                  angle=math.pi)
            for t in times
        )
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return PulseSequence(pulses=pulses, total_time=total_time, initial_state=init)


def _haar_su2(rng: np.random.Generator) -> np.ndarray:
    x = rng.normal(size=4)
    x = x / np.linalg.norm(x)
    a = x[0] + 1j * x[1]
    b = x[2] + 1j * x[3]
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]], dtype=complex)


# -- JSON serialization -------------------------------------------------------
#
# Schema: {"type": "pulse_sequence", "T": .., "initial_state": {"alpha","beta"},
#          "pulses": [{"t", "axis", "angle"} | {"t", "matrix"}]}
# Floats are emitted with repr so a load/dump cycle is bit-exact.


def _pulse_to_dict(p: Pulse) -> dict:
    if p.matrix is not None:
        mat = [[[float(p.matrix[i, j].real), float(p.matrix[i, j].imag)]
                for j in range(2)] for i in range(2)]
        return {"t": p.time, "matrix": mat}
    axis = p.axis if isinstance(p.axis, str) else [float(a) for a in p.axis]
    return {"t": p.time, "axis": axis, "angle": p.angle}


def _pulse_from_dict(d: dict) -> Pulse:
    if "matrix" in d:
        m = np.array(
            [[complex(re, im) for re, im in row] for row in d["matrix"]],
            dtype=complex,
        )
        return Pulse(time=float(d["t"]), matrix=m)
    axis = d["axis"]
    if not isinstance(axis, str):
        axis = tuple(float(a) for a in axis)
    return Pulse(time=float(d["t"]), axis=axis, angle=float(d["angle"]))


def sequence_to_json(seq: PulseSequence) -> str:
    alpha, beta = seq.initial_state
    doc = {
        "type": "pulse_sequence",
        "T": seq.total_time,
        "initial_state": {"alpha": float(alpha), "beta": float(beta)},
        "pulses": [_pulse_to_dict(p) for p in seq.pulses],
    }
    return json.dumps(doc, indent=2)


def sequence_from_json(text: str) -> PulseSequence:
    doc = json.loads(text)
    if doc.get("type") != "pulse_sequence":
        raise ValueError(f"unsupported protocol type {doc.get('type')!r}")
    init = doc.get("initial_state", {"alpha": math.pi / 2.0, "beta": 0.0})
    return PulseSequence(
        pulses=tuple(_pulse_from_dict(d) for d in doc.get("pulses", [])),
        total_time=float(doc["T"]),
        initial_state=(float(init["alpha"]), float(init["beta"])),
    )
