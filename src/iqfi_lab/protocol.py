"""Sensing protocols: construction, with their checks.

A discrete protocol is a sequence of instantaneous pulses (2x2 unitaries)
applied at fixed times inside [0, T], with free evolution under the signal
in between.  Continuous protocols specify a drive generator added to the
signal Hamiltonian.  An entangled register is a GhzProtocol; its evolution
never leaves the {|0...0>, |1...1>} plane, where evolution and integration
treat it as the pulse sequence it is there.

Every protocol is checked once, when it is built: a constructor raises
ValueError for a protocol that breaks an invariant, and copies the arrays
it is given, read-only, so a protocol that exists is valid and no other
module checks one again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: writing into it raises ValueError."""
    a.flags.writeable = False
    return a


SIGMA_X = _frozen(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
SIGMA_Y = _frozen(np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex))
SIGMA_Z = _frozen(np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
IDENTITY = _frozen(np.eye(2, dtype=complex))

_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0), "z": (0.0, 0.0, 1.0)}
# the most steps of the propagation kernel a protocol's maker builds: the
# pulses of a train here, the steps of a drive's splitting in evolution.
# 2^20 pulses take about 30 s and 0.4 GB to build; beyond, memory runs out
_MAX_STEPS = 1 << 20

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
    "random_pulse_sequence",
]


def bloch_state(alpha: float, beta: float) -> np.ndarray:
    """State vector cos(alpha/2)|0> + exp(i*beta) sin(alpha/2)|1>."""
    return np.array(
        [math.cos(alpha / 2.0), np.exp(1j * beta) * math.sin(alpha / 2.0)],
        dtype=complex,
    )


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """SU(2) rotation exp(-i*angle/2 * n.sigma), n the unit vector along
    axis: "x", "y", "z" or a nonzero 3-vector."""
    if isinstance(axis, str):
        axis = _AXES[axis.lower()]
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
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

    Either (axis, angle) for a rotation, or an explicit 2x2 matrix.  The
    axis is "x", "y", "z" or a nonzero 3-vector, kept as a tuple; the
    matrix is copied, and it and the unitary are read-only.  An angle that
    is not finite is a ValueError; the PulseSequence that holds the pulse
    checks that its unitary is unitary.
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
            m = np.array(self.matrix, dtype=complex)
            if m.shape != (2, 2):
                raise ValueError("pulse matrix must be 2x2")
            object.__setattr__(self, "matrix", _frozen(m))
        elif isinstance(self.axis, str):
            if self.axis.lower() not in _AXES:
                raise ValueError(
                    f"unknown axis {self.axis!r}; choose x, y or z")
        else:
            axis = tuple(float(a) for a in self.axis)
            if len(axis) != 3 or not any(axis):
                raise ValueError(
                    f"rotation axis must be a nonzero 3-vector, got {axis}")
            object.__setattr__(self, "axis", axis)
        if has_rot and not math.isfinite(self.angle):
            raise ValueError(f"pulse angle must be finite, got {self.angle}")

    @cached_property
    def unitary(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return _frozen(rotation_matrix(self.axis, self.angle))


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """Pulses inside [0, total_time] plus the Bloch-angle initial state.

    initial_state = (alpha, beta) meaning cos(alpha/2)|0> + e^{i beta} sin(alpha/2)|1>;
    the default (pi/2, 0) is |+>.  With None, J and K are Haar averages.
    Raises ValueError unless total_time is positive and finite, the angles
    two and finite, and the pulses unitary at non-decreasing times in
    [0, T].
    """

    pulses: tuple
    total_time: float
    initial_state: tuple = (math.pi / 2.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if self.initial_state is not None:
            state = tuple(float(x) for x in self.initial_state)
            if len(state) != 2:
                raise ValueError(f"initial_state must be None or two angles "
                                 f"(alpha, beta), got {state}")
            object.__setattr__(self, "initial_state", state)
        _check_total_time(self.total_time)
        if not all(map(math.isfinite, self.initial_state or ())):
            raise ValueError("initial_state angles must be finite")
        prev = 0.0
        for i, p in enumerate(self.pulses):
            if not math.isfinite(p.time):
                raise ValueError(f"pulse {i}: time must be finite")
            if p.time < 0.0 or p.time > self.total_time:
                raise ValueError(
                    f"pulse {i}: time {p.time} outside [0, {self.total_time}]")
            if p.time < prev:
                raise ValueError(f"pulse {i}: times must be non-decreasing")
            prev = p.time
            u = p.unitary
            defect = np.abs(u.conj().T @ u - IDENTITY).max()
            if not defect <= 1e-12:  # a NaN entry fails this, as it should
                raise ValueError(
                    f"pulse {i}: not unitary (defect {defect:.2e})")

    @property
    def times(self) -> np.ndarray:
        return np.array([p.time for p in self.pulses], dtype=float)

    def boundaries(self) -> np.ndarray:
        """Free-segment boundaries: 0, pulse times, total_time."""
        return np.concatenate(([0.0], self.times, [self.total_time]))

    def segment_count(self, min_length: float = 0.0) -> int:
        """Number of free segments longer than min_length, at least 1."""
        b = self.boundaries()
        return max(1, int(np.count_nonzero(np.diff(b) > min_length)))

    def initial_vector(self) -> np.ndarray:
        return bloch_state(*self.initial_state)


@dataclass(frozen=True)
class TransverseDrive:
    """Constant drive g*X added to the signal Hamiltonian for all of [0, T]."""

    g: float
    total_time: float

    def __post_init__(self):
        _check_total_time(self.total_time)
        if not math.isfinite(self.g):
            raise ValueError(f"g must be finite, got {self.g}")

    @property
    def pieces(self) -> tuple:
        """The drive as one piece (0, T, g*X) of a piecewise generator."""
        return ((0.0, self.total_time, self.g * SIGMA_X),)


@dataclass(frozen=True, eq=False)
class PiecewiseGenerator:
    """Piecewise-constant Hermitian generators tiling [0, T].

    pieces: sequence of (t_start, t_end, H) with contiguous intervals; each
    H is copied and read-only.  Raises ValueError unless total_time is
    positive and finite and the pieces tile [0, T] with finite 2x2 Hermitian
    generators.
    """

    pieces: tuple
    total_time: float

    def __post_init__(self):
        norm = []
        for start, end, h in self.pieces:
            norm.append((float(start), float(end),
                         _frozen(np.array(h, dtype=complex))))
        object.__setattr__(self, "pieces", tuple(norm))
        _check_total_time(self.total_time)
        if not self.pieces:
            raise ValueError("pieces must be non-empty")
        expect = 0.0
        # written as "not x <= tol" so that a NaN fails each test
        for i, (start, end, h) in enumerate(self.pieces):
            if not abs(start - expect) <= 1e-12:
                raise ValueError(
                    f"piece {i}: starts at {start}, expected {expect}")
            if not start <= end < math.inf:
                raise ValueError(
                    f"piece {i}: end {end} before start or not finite")
            if h.shape != (2, 2):
                raise ValueError(f"piece {i}: generator must be 2x2")
            if not np.isfinite(h).all():
                raise ValueError(f"piece {i}: generator entries must be finite")
            if not np.abs(h - h.conj().T).max() <= 1e-12:
                raise ValueError(f"piece {i}: generator not Hermitian")
            expect = end
        if not abs(expect - self.total_time) <= 1e-12:
            raise ValueError(f"pieces end at {expect}, expected total_time "
                             f"{self.total_time}")


ContinuousControl = Union[TransverseDrive, PiecewiseGenerator]


@dataclass(frozen=True)
class GhzProtocol:
    """n-qubit GHZ register, free evolution over consecutive segments.

    times: segment boundaries from 0 to T.  flips: optional booleans (0 or
    1), one per interior boundary, marking collective X flips applied there.
    """

    n: int
    times: tuple
    flips: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        # a NaN or an infinity fails the chained comparison before int()
        if not (1 <= self.n < math.inf and self.n == int(self.n)):
            raise ValueError(f"n must be a whole number >= 1, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        t = self.times
        if len(t) < 2 or t[0] != 0.0:
            raise ValueError("times must start at 0 and contain the end time")
        if not all(math.isfinite(x) for x in t):
            raise ValueError("times must be finite")
        if any(b < a for a, b in zip(t, t[1:])):
            raise ValueError("times must be non-decreasing")
        _check_total_time(self.total_time)
        if self.flips is None:
            return
        if len(self.flips) != len(t) - 2:
            raise ValueError("flips must have one entry per interior boundary")
        if not all(f in (0, 1) for f in self.flips):
            raise ValueError(f"flips must be 0 or 1, got {self.flips}")
        object.__setattr__(self, "flips", tuple(bool(f) for f in self.flips))

    @property
    def total_time(self) -> float:
        return self.times[-1]


def make_ramsey(total_time: float, initial_state=(math.pi / 2.0, 0.0)) -> PulseSequence:
    """Free evolution only: prepare, wait T, measure."""
    return PulseSequence(pulses=(), total_time=total_time, initial_state=initial_state)


def _check_count(count) -> None:
    """ValueError for a train of more than _MAX_STEPS pulses, before any
    is built."""
    if not count <= _MAX_STEPS:
        raise ValueError(f"{count:.7g} pulses are more than the "
                         f"{_MAX_STEPS} a train may hold")


def make_pi_train(times, total_time: float, axis="x",
                  initial_state=(math.pi / 2.0, 0.0)) -> PulseSequence:
    """pi rotations about `axis` at the given times (t = total_time allowed).

    times None stands for the whole numbers inside (0, T), or T/2 if there
    is none; more than _MAX_STEPS of them is a ValueError.
    """
    if times is None:
        _check_total_time(total_time)
        _check_count(math.ceil(total_time) - 1)
        times = range(1, math.ceil(total_time)) or [total_time / 2.0]
    pulses = tuple(Pulse(time=float(t), axis=axis, angle=math.pi)
                   for t in times)
    return PulseSequence(pulses=pulses, total_time=total_time,
                         initial_state=initial_state)


def _even_train(count: int, step: float, total_time: float, axis, angle,
                initial_state) -> PulseSequence:
    """angle rotations about axis at k*step for k = 1 .. count; more than
    _MAX_STEPS of them is a ValueError."""
    _check_count(count)
    # count*step can land an ulp past total_time, which PulseSequence
    # rejects
    pulses = tuple(Pulse(time=min(k * step, total_time), axis=axis,
                         angle=angle) for k in range(1, count + 1))
    return PulseSequence(pulses=pulses, total_time=total_time,
                         initial_state=initial_state)


def make_pi2_train(spacing: float, total_time: float, axis="x",
                   initial_state=(math.pi / 2.0, 0.0)) -> PulseSequence:
    """pi/2 rotations at k*spacing for k = 1 .. T/spacing.

    spacing must divide total_time to within 1e-9, into at least one and
    at most _MAX_STEPS pulses.
    """
    _check_total_time(total_time)
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    count = total_time / spacing
    _check_count(count)
    if abs(count - round(count)) > 1e-9:
        raise ValueError("spacing must divide total_time")
    if round(count) == 0:
        raise ValueError(f"spacing {spacing} leaves no pulse in "
                         f"total_time {total_time}")
    return _even_train(int(round(count)), spacing, total_time, axis,
                       math.pi / 2.0, initial_state)


def make_trotterized_gx(total_time: float, m: int, g: float,
                        initial_state=(math.pi / 2.0, 0.0)) -> PulseSequence:
    """First-order split of the g*X drive into m equal segments.

    Each segment of width T/m is free evolution under the signal followed by
    an X rotation of angle 2*g*(T/m), the angle accumulated by g*X over the
    segment.  m = T (g = pi/2) gives a pi-train at integer times; m = 2T a
    pi/2-train every half second.  m above _MAX_STEPS is a ValueError.
    """
    _check_total_time(total_time)
    if m < 1 or m != int(m):
        raise ValueError("m must be a positive integer")
    dt = total_time / m
    return _even_train(int(m), dt, total_time, "x", 2.0 * g * dt,
                       initial_state)


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
