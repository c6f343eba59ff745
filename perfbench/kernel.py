"""The reference kernel: the benchmark's unit of time.

The host's CPU speed drifts by tens of per cent over tens of seconds, so raw
case times do not repeat between runs.  This kernel is timed right before
and right after every case, and the case's time is divided by the mean of
the two, which cancels the drift.  It never calls the program and mixes the
three kinds of work the program does: interpreter-bound Python, many small
numpy calls, and (n, 2, 2) complex arithmetic on large arrays.

Its work is frozen with the benchmark: changing it changes the unit `ref`.
"""

from __future__ import annotations

import time

import numpy as np

ROWS = 50_000


class ReferenceKernel:
    """Fixed work of about 0.1-0.2 s; `seconds()` times one pass."""

    def __init__(self):
        rng = np.random.default_rng(20220311)
        self._small = rng.normal(size=16)
        z = rng.normal(size=(ROWS, 2, 2)) + 1j * rng.normal(size=(ROWS, 2, 2))
        self._mats = z / np.linalg.norm(z, axis=(1, 2), keepdims=True)
        self._phase = np.exp(1j * rng.uniform(0.0, 6.28, size=ROWS))[:, None]
        self._u = np.array([[0.6, 0.8j], [0.8j, 0.6]])

    def _interpreter(self) -> float:
        acc = 0.0
        for i in range(250_000):
            acc += (i % 7) * 0.5 - (i & 3)
        return acc

    def _small_numpy(self) -> float:
        x = self._small
        acc = 0.0
        for _ in range(8_000):
            y = np.sin(x) * np.cos(x) + x
            acc += float(np.dot(y, x))
        return acc

    def _large_arrays(self) -> float:
        p = self._mats.copy()
        w = np.zeros_like(p)
        for _ in range(2):
            p[:, 0, :] *= self._phase
            p[:, 1, :] *= self._phase.conj()
            w += p
            p = self._u @ p
        return float(np.abs(w).sum())

    def run(self) -> float:
        return self._interpreter() + self._small_numpy() + self._large_arrays()

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0
