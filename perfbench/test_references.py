"""Self-tests of the benchmark's references; they do not import the program.

    python3 -m pytest -q perfbench
"""

import math

import numpy as np

import references as R

ZETA = 1.3


def _random_su2(rng):
    x = rng.normal(size=4)
    x /= np.linalg.norm(x)
    a, b = complex(x[0], x[1]), complex(x[2], x[3])
    return np.array([[a, b], [-b.conjugate(), a.conjugate()]])


def test_filter_function_on_z_flipping_trains_and_ramsey():
    rng = np.random.default_rng(7)
    for _ in range(20):
        T = float(rng.uniform(0.5, 5.0))
        n = int(rng.integers(1, 9))
        times = np.sort(rng.uniform(0.0, T, n))
        mats = [R.rotation(str(rng.choice(["x", "y"])), math.pi) for _ in range(n)]
        alpha, beta = float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, 6.28))
        k = R.train_k_zero_field(times, T, mats, R.bloch(alpha, beta), zeta=ZETA)
        assert math.isclose(k, 2 * math.pi * ZETA ** 2 * T * math.sin(alpha) ** 2,
                            rel_tol=1e-12, abs_tol=1e-12)
    k = R.train_k_zero_field([], 3.0, [], R.bloch(math.pi / 2, 0.4), zeta=ZETA)
    assert math.isclose(k, 2 * math.pi * ZETA ** 2 * 3.0, rel_tol=1e-12)
    assert math.isclose(R.ramsey_k(3.0, 0.0, zeta=ZETA), k, rel_tol=1e-12)


def test_ode_reference_without_drive_is_four_zeta_squared_theta_squared():
    T, B, phi = 2.5, 0.7, 0.9
    omegas = np.array([0.0, 0.8, 3.1, 9.0])
    j = R.drive_spectrum(0.0, T, B, omegas, phi=phi, zeta=ZETA)
    want = 4.0 * ZETA ** 2 * R.theta(0.0, T, omegas, phi) ** 2
    assert np.max(np.abs(j - want)) <= 1e-9 * np.max(want)


def test_six_state_mean_is_the_zero_field_haar_average():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5):
        T = float(rng.uniform(1.0, 4.0))
        times = np.sort(rng.uniform(0.0, T, n))
        mats = [_random_su2(rng) for _ in range(n)]
        six = R.six_state_mean(
            lambda st: R.train_k_zero_field(times, T, mats, R.bloch(*st), zeta=ZETA))
        assert math.isclose(six, (2.0 / 3.0) * 2.0 * math.pi * ZETA ** 2 * T, rel_tol=1e-12)
