"""State evolution and quantum Fisher information.

For discrete protocols the free evolution between pulses is the exact 2x2
unitary exp(-i*zeta*B*Theta_k*Z) per segment, so a state column psi and its
field derivative dpsi = dpsi/dB are carried through the protocol in one
forward pass, vectorized over a frequency grid:

    psi <- F_k psi,    dpsi <- F_k dpsi + (-i*zeta*Theta_k) Z (F_k psi)

with each pulse unitary applied to both.  The two components of psi and of
dpsi are held as separate contiguous arrays: a free segment is an
elementwise phase, and a pulse is 2x2 arithmetic with four scalars written
out by hand.  The segment kernels Theta_k of pulse segments and drive
steps alike come from one phase recurrence in signal_core: a segment as
long as the one before it costs no transcendental, as the phase
exp(i*(omega*t + phi)) is carried across it by multiplication.  No time
stepping is involved.  The pure-state Fisher information is

    J = 4 * (<dpsi|dpsi> + Re <dpsi|psi>^2)

which for normalized states (where <dpsi|psi> is purely imaginary) equals
the usual 4*(<dpsi|dpsi> - |<psi|dpsi>|^2).  Averaged over Haar-random
initial states it is (8/3)*<dpsi|dpsi> for the one column propagated from
|0>: the free segments are in SU(2) and the pulses do not depend on B, so
the propagator is a B-independent phase times V(B) in SU(2), and
V^dag dV/dB is traceless and anti-Hermitian (_haar_j).

Continuous drives run through the same kernel as symmetric (Strang)
splittings: each step of width h is a half step of the drive generator,
the exact free segment, and another half step, the half steps at interior
boundaries merged into one closed-form SU(2) exponential.  The global error
is even in h, so Richardson extrapolation over m, 2m and 4m steps gives an
O(h^6) result, which is returned.  The error estimate is its difference
from the O(h^4) one: that is the error of the O(h^4) result, so the O(h^6)
result usually sits far inside the tolerance.  That expansion in h^2 holds
only once the steps resolve the signal, so a frequency is accepted only
where the coarsest level's widest step h samples it above Nyquist,
omega*h <= pi: below that the levels alias it, and near omega*h = 2 pi k
(a step spanning whole signal periods) their gaps miss the error.
Frequencies that miss either test are refined by doubling m; the starting
m depends only on T, the generators' precession rates, zeta*|B| and the
tolerance, so a frequency's result does not depend on its batch beyond
rounding.

A batch of up to _TREE_NODES = 256 frequencies takes a piece's steps in
blocks of L = _BLOCK_NODE_STEPS // (batch size) steps, _BLOCK_NODE_STEPS
being 2^14.  Theta of a block comes from one vectorized call
(signal_core._run_thetas); each step u*exp(-i*zeta*B*Theta_k*Z) is an SU(2)
matrix with a B-derivative of the same form (_su2_exp drops a generator's
trace, a phase that J ignores); a pairwise product tree reduces the block
in log2(L) levels (_compose), and psi and dpsi advance once per block.  The
block boundaries, and so the rounding, depend on the batch size.  A wider
batch, and every pulse sequence, steps one segment at a time: there the
loop's calls per step cost less than the tree's extra arithmetic.

The toggling frame of a protocol is here too, so that one module reads
pulse unitaries, generators and protocol kinds: _jumps gives the times
a_j at which Z~ = U0^dag Z U0 of the control alone jumps, the jumps and
the initial Bloch vector, and feature_scale the protocol's highest
intrinsic frequency.  A pulse sequence gives its pulses to both kernels
as the read-only arrays it builds once (times and unitaries): the free
segments come from its times, and _jumps forms the running products
U_k ... U_1 of its unitaries, one 2x2 product per pulse, which _bloch_z
turns into every r_k in one batched expression.  iqfi integrates the
frame over omega (the tail and the zero-field K) and reads none of these
itself.

_states is the one way to the states at T and the J rule that goes with
them: the formula above, or its Haar average (8/3)*<dpsi|dpsi> for a
sequence with initial_state None.  qfi_vs_omega applies the rule; the
finite-difference oracle of the tests (tests/oracles.py) differences the
same states over B.  Every public entry point, here and in iqfi, first
replaces a GHZ register by the pulse sequence it is in the {|0...0>,
|1...1>} plane, and refuses any type but a pulse sequence, a continuous
control or a register with a TypeError (_reduced).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .protocol import (_MAX_STEPS, IDENTITY, SIGMA_X, ContinuousControl,
                       GhzProtocol, Pulse, PulseSequence)
from .signal_core import SignalParams, _run_thetas, _segment_thetas

__all__ = [
    "ODE_TOL",
    "IntegrationError",
    "feature_scale",
    "qfi_vs_omega",
    "discrete_propagators",
]

# a free segment no longer than this fraction of T (16 ulps) is rounding,
# as a pulse time k*(T/m) can leave before T, not a segment: it does not
# raise a protocol's feature scale
_ULP_SEGMENT = 16.0 * np.finfo(float).eps


class IntegrationError(RuntimeError):
    """An integration failed to meet its error target: continuous evolution
    here, the panel budget (QuadratureNonConvergence) in iqfi.  It carries
    only its message: no estimate is returned from a failed integration."""


def _reduced(protocol, signal: SignalParams):
    """(protocol, signal), a GHZ register replaced by its pulse sequence:
    from |+>, the exact X at each flipped interior boundary and the
    identity at the others, under the signal with zeta = n*zeta.  Any type
    but a pulse sequence, a continuous control or a GHZ register is a
    TypeError; every public entry point calls this first, so the code
    after it reads only the first two kinds."""
    if isinstance(protocol, (PulseSequence, ContinuousControl)):
        return protocol, signal
    if not isinstance(protocol, GhzProtocol):
        raise TypeError(f"unsupported protocol type {type(protocol).__name__}")
    t = protocol.times
    flips = protocol.flips or (False,) * (len(t) - 2)
    pulses = tuple(Pulse(time=x, matrix=SIGMA_X if f else IDENTITY)
                   for x, f in zip(t[1:-1], flips))
    return (PulseSequence(pulses, t[-1]),
            replace(signal, zeta=protocol.n * signal.zeta))


# -- discrete protocols -------------------------------------------------------


_ZERO = np.array([1.0, 0.0], dtype=complex)  # |0>


def discrete_propagators(seq: PulseSequence, signal: SignalParams,
                         omegas=None):
    """Propagate a pulse sequence over a frequency grid.

    Returns (psi, dpsi), the final state and its field derivative dpsi/dB,
    each of shape (n_omega, 2), from the sequence's own initial state, or
    from |0> for a sequence with none (initial_state None), whose
    Haar-averaged J is (8/3)|dpsi|^2 from there (_haar_j).
    """
    om = _grid(signal.omega if omegas is None else omegas)
    psi0 = _ZERO if seq.initial_state is None else seq.initial_vector()
    # (Theta, u) per pulse and a last (Theta, None) to total_time
    steps = zip(_segment_thetas(seq.boundaries(), om, signal.phi),
                [*seq.unitaries, None])
    a, b, da, db = _propagate(psi0, steps, signal, om.size)
    return np.stack((a, b), axis=1), np.stack((da, db), axis=1)


def _grid(omegas) -> np.ndarray:
    """omegas as a 1-D float array; more dimensions are a ValueError."""
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    if om.ndim > 1:
        raise ValueError(f"omegas must be a number or a 1-D grid, got shape "
                         f"{om.shape}")
    return om


def _propagate(psi0, steps, signal: SignalParams, n_omega: int):
    """The kernel: carry the initial column psi0 and its field derivative
    through steps, a sequence of (Theta, u): a free segment with kernel
    Theta (an array over frequencies, or None for no segment), then the
    2x2 unitary u (None for none).  A Theta of shape (L, n_omega) is a
    block of L such steps, each followed by the unitary u, composed by
    _compose and applied once.  Returns the component arrays (a, b, da,
    db), each of shape (n_omega,)."""
    a = np.full(n_omega, psi0[0], dtype=complex)
    b = np.full(n_omega, psi0[1], dtype=complex)
    da = np.zeros(n_omega, dtype=complex)
    db = np.zeros(n_omega, dtype=complex)
    s1 = np.empty(n_omega, dtype=complex)
    s2 = np.empty(n_omega, dtype=complex)
    x = np.empty(n_omega)
    e = np.empty(n_omega, dtype=complex)
    zb = signal.zeta * signal.B
    dz = -1j * signal.zeta
    for th, u in steps:
        if th is not None and th.ndim == 2:
            a, b, da, db = _su2_product(_compose(th, u, zb, dz),
                                        (a, b, da, db))
            continue
        if th is not None:
            # free segment: psi <- F psi and dpsi <- F dpsi - i zeta Theta Z F psi
            # with F = exp(-i zeta B Theta Z); e = exp(-i zeta B Theta) comes
            # from a real cosine and sine, half the cost of np.exp
            np.multiply(th, -zb, out=x)
            np.cos(x, out=e.real)
            np.sin(x, out=e.imag)
            a *= e
            da *= e
            np.multiply(a, th, out=s1)
            s1 *= dz
            da += s1
            np.conjugate(e, out=e)
            b *= e
            db *= e
            np.multiply(b, th, out=s1)
            s1 *= dz
            db -= s1
        if u is not None:
            _rotate(a, b, u, s1, s2)
            _rotate(da, db, u, s1, s2)
    return a, b, da, db


def _rotate(x, y, u, s1, s2):
    """(x, y) <- u (x, y) in place, with s1 and s2 as scratch."""
    (u00, u01), (u10, u11) = u
    np.multiply(x, u10, out=s1)
    np.multiply(y, u01, out=s2)
    x *= u00
    x += s2
    y *= u11
    y += s1


def _su2_product(m2, m1):
    """The first column (a, b) of M2 M1 and its field derivative (da, db),
    for M2 = [[a2, -b2*], [b2, a2*]] given as (a2, b2, da2, db2) with
    dM2/dB of the same form, and M1 given by its first column and its
    derivative (a1, b1, da1, db1): a product of two such matrices, or M2
    applied to a state and its derivative."""
    a2, b2, da2, db2 = m2
    a1, b1, da1, db1 = m1
    # the terms go through one scratch array t: the tree's lower levels
    # are large, and a fresh array per term costs about as much as its
    # arithmetic
    ca2, cb2 = a2.conj(), b2.conj()
    a = a2 * a1
    t = cb2 * b1
    a -= t
    b = b2 * a1
    np.multiply(ca2, b1, out=t)
    b += t
    da = da2 * a1
    np.conjugate(db2, out=t)
    t *= b1
    da -= t
    np.multiply(a2, da1, out=t)
    da += t
    np.multiply(cb2, db1, out=t)
    da -= t
    db = db2 * a1
    np.conjugate(da2, out=t)
    t *= b1
    db += t
    np.multiply(b2, da1, out=t)
    db += t
    np.multiply(ca2, db1, out=t)
    db += t
    return a, b, da, db


def _tree_order(n):
    """The order in which _compose holds the n steps of a block: at every
    level the earlier factors of its pairs form the first half and the
    later ones the second, in the order of the level above, and the
    latest step of an odd count comes last."""
    if n == 1:
        return np.zeros(1, dtype=np.intp)
    half = _tree_order(n // 2)
    order = np.concatenate((2 * half, 2 * half + 1))
    return np.append(order, n - 1) if n % 2 else order


def _compose(th, v, zb, dz):
    """The product S_{L-1} ... S_0 of a block's steps S_k = v exp(-i zb
    Theta_k Z), v in SU(2), and its field derivative, per frequency, as
    (a, b, da, db) of _su2_product.  th holds Theta_k in its rows.

    For real B each S_k and dS_k/dB has the form [[a, -b*], [b, a*]],
    which products keep, so a matrix is its first column.  The factors
    are multiplied in adjacent pairs, later times earlier, halving their
    number at each of log2(L) levels; at an odd count the last is first
    multiplied into the one before it.  They are held in _tree_order, so
    that both halves of every level are contiguous.  The exact product is
    in SU(2), so it is divided by its norm sqrt(|a|^2 + |b|^2), which drops
    the rounding that the L factors of one v would accumulate in it.
    """
    th = th[_tree_order(th.shape[0])]
    x = th * -zb
    e = np.empty(th.shape, dtype=complex)
    np.cos(x, out=e.real)
    np.sin(x, out=e.imag)
    de = e * th
    de *= dz
    p, q = v[0, 0], v[1, 0]
    m = (p * e, q * e, p * de, q * de)
    while (n := m[0].shape[0]) > 1:
        if n % 2:
            last = _su2_product(tuple(y[n - 1] for y in m),
                                tuple(y[n - 2] for y in m))
            for y, z in zip(m, last):
                y[n - 2] = z
        k = n // 2
        m = _su2_product(tuple(y[k:2 * k] for y in m),
                         tuple(y[:k] for y in m))
    a, b, da, db = (y[0] for y in m)
    r = np.sqrt(a.real ** 2 + a.imag ** 2 + b.real ** 2 + b.imag ** 2)
    return a / r, b / r, da / r, db / r


# -- continuous protocols -----------------------------------------------------


# Level m of the splitting takes _FIRST_STEPS_PER_RATE * rate * tol^(-1/4)
# steps per unit time, as the error estimate falls as h^4; rate is the
# largest of 1/T, zeta*|B| and the generators' precession rates |n|.  A
# finest level above _MAX_STEPS_PER_RATE steps per unit time times rate
# (or above what the Nyquist rule of _continuous_batch needs for the
# frequencies still refining, if that is more), or above _MAX_STEPS steps
# in all (protocol's cap on a train's pulses too), is refused before it is
# computed, so a tolerance, a rate or a frequency out of reach fails at
# once instead of grinding or exhausting memory.
_FIRST_STEPS_PER_RATE = 0.25
_MAX_STEPS_PER_RATE = 4096
# A batch of up to _TREE_NODES frequencies takes its steps in blocks of
# _BLOCK_NODE_STEPS // (batch size) steps, each block composed by a
# product tree (_compose); a wider batch steps one at a time, which is
# faster there as the tree does more arithmetic per step than the loop.
_TREE_NODES = 256
_BLOCK_NODE_STEPS = 2 ** 14
_PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)  # |+>
# default error target of a drive's state, and of its derivative per unit
# of zeta
ODE_TOL = 1e-9


def _check_ode_tol(tol) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"ode_tol must be positive and finite, got {tol}")


def _precession(h) -> float:
    """The precession rate |n| of a 2x2 Hermitian h = h0 + n.sigma (a
    state's Bloch vector turns at 2|n|)."""
    return math.hypot(h[1, 0].real, h[1, 0].imag,
                      0.5 * (h[0, 0] - h[1, 1]).real)


def _su2_exp(h, tau):
    """exp(-i (h - h0) tau) of a 2x2 Hermitian h = h0 + n.sigma, in closed
    form: cos(|n| tau) - i sin(|n| tau) n.sigma / |n|, in SU(2).  The trace
    h0 would multiply psi and dpsi by a phase that does not depend on B,
    which J ignores, so it is dropped here, where a generator is read."""
    h0 = 0.5 * (h[0, 0] + h[1, 1]).real
    r = _precession(h)
    s = tau * float(np.sinc(r * tau / math.pi))  # sin(r tau) / r
    return math.cos(r * tau) * np.eye(2) - 1j * s * (h - h0 * np.eye(2))


def _generator_norm(control) -> float:
    """The largest precession rate |n| of a control's piece generators
    h = h0 + n.sigma: the trace h0 rotates nothing."""
    return max((_precession(h) for _, _, h in control.pieces), default=0.0)


def _split_steps(pieces, counts, om, phi):
    """(Theta, u) of the splitting with counts[k] steps on piece k: one
    step per item for a batch of more than _TREE_NODES frequencies, else
    blocks of up to _BLOCK_NODE_STEPS // om.size steps, each with Theta
    from one _run_thetas call."""
    used = [(start, end, h, n, (end - start) / n)
            for (start, end, h), n in zip(pieces, counts) if n]
    # each step is given the nominal width dt rather than the difference of
    # its rounded ends, so a piece's steps share one length, and one h and s
    # of the phase recurrence
    thetas = None if om.size <= _TREE_NODES else _segment_thetas(
        np.concatenate([start + np.arange(n) * dt
                        for start, _, _, n, dt in used] + [[used[-1][1]]]),
        om, phi, np.repeat([dt for *_, dt in used], [n for *_, n, _ in used]))
    width = _BLOCK_NODE_STEPS // max(om.size, 1)
    carry = None  # the previous piece's closing half step
    for start, _, h, n, dt in used:
        half = _su2_exp(h, 0.5 * dt)
        full = _su2_exp(h, dt)
        yield None, half if carry is None else half @ carry
        if thetas is not None:
            for k in range(n):
                yield next(thetas), full if k < n - 1 else None
        else:
            # every step but the last is followed by a full step of h
            for k in range(0, n - 1, width):
                yield _run_thetas(start, dt, k, min(k + width, n - 1), om,
                                  phi), full
            yield _run_thetas(start, dt, n - 1, n, om, phi)[0], None
        carry = half
    yield None, carry


def _continuous_batch(control, signal: SignalParams, omegas, tol: float):
    """(psi, dpsi) at T for every frequency, as columns (a, b, da, db) of
    an (n_omega, 4) array.

    Levels m, 2m and 4m are extrapolated to O(h^6), the result returned.
    Its difference from the O(h^4) result of the two finer levels is the
    error estimate; that difference is the error of the O(h^4) result, not
    of the O(h^6) one, so the estimate overstates the returned error,
    usually by orders of magnitude.  It is taken per unit of zeta in the
    rows of dpsi, which grow with zeta.  A frequency whose estimate exceeds
    tol, or whose coarsest level's widest step h leaves omega*h above pi,
    gets another level: m doubles and only the new finest level is
    computed.  m starts from T, the largest precession rate |n| of the
    generators, zeta*|B| and tol alone, so each frequency's result does not
    depend on which frequencies share its batch beyond rounding: a batch's
    size sets the blocks that _split_steps composes its steps in.  Raises
    IntegrationError, before computing it, for a finest level above
    _MAX_STEPS_PER_RATE steps per unit of time times the rate (unless the
    Nyquist rule needs that many for an omega still refining), or above
    _MAX_STEPS steps, which an omega still refining needs where omega*T >
    pi*_MAX_STEPS/4: such an omega fails before any level runs.  tol is
    _states's to check.
    """
    pieces = control.pieces
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    T = float(control.total_time)
    rate = max(1.0 / T, signal.zeta * abs(signal.B), _generator_norm(control))
    density = _FIRST_STEPS_PER_RATE * rate * tol ** -0.25
    out = np.empty((4, om.size), dtype=complex)
    todo = np.arange(om.size)
    s1 = s2 = None
    while todo.size:
        # a frequency still refining is resolved only by coarse steps of at
        # most pi/omega, which doubling m reaches below 2*omega/pi steps per
        # unit time: the cap per rate lets the levels reach that.  An
        # infinite count fails too
        top = float(om[todo].max())
        per_time = 4.0 * max(density, top / math.pi)
        cap = max(_MAX_STEPS_PER_RATE * rate, 8.0 * top / math.pi)
        if per_time > cap or per_time * T > _MAX_STEPS:
            raise IntegrationError(
                f"ode_tol={tol:.3g} at the rate {rate:.4g} and omega = "
                f"{top:.6g} is out of reach: the splitting would need "
                f"{per_time:.4g} steps per unit time (at most {cap:.4g}) "
                f"and {per_time * T:.4g} in all (at most {_MAX_STEPS})")
        if s1 is None:
            counts = np.array([math.ceil((e - s) * density)
                               for s, e, _ in pieces])
        # (a, b, da, db) at T from |+> as rows, with k*counts[i] steps on
        # piece i: k = 1, 2 and 4 at first, then only the new finest level
        *coarse, s4 = (np.stack(_propagate(
            _PLUS, _split_steps(pieces, k * counts, om[todo], signal.phi),
            signal, todo.size)) for k in ((1, 2, 4) if s1 is None else (4,)))
        if coarse:
            s1, s2 = coarse
        r1 = (4.0 * s2 - s1) / 3.0
        r2 = (4.0 * s4 - s2) / 3.0
        best = (16.0 * r2 - r1) / 15.0
        # per unit of zeta in the rows of dpsi; a subnormal zeta leaves dpsi
        # no relative precision to meet tol
        err = np.abs(best - r2)
        err[2:] /= max(signal.zeta, np.finfo(float).tiny)
        # a frequency is accepted where its error meets tol and the coarsest
        # level's widest step h samples the signal above Nyquist, omega*h <=
        # pi: below, the levels alias it, and near omega*h = 2 pi k their
        # gaps miss the error
        h = max((e - s) / n for (s, e, _), n in zip(pieces, counts) if n)
        ok = (err.max(axis=0) <= tol) & (om[todo] * h <= math.pi)
        out[:, todo[ok]] = best[:, ok]
        todo, s1, s2 = todo[~ok], s2[:, ~ok], s4[:, ~ok]
        counts, density = 2 * counts, 2.0 * density
    return out.T


# -- the toggling frame -------------------------------------------------------


def _bloch_z(u):
    """The Bloch vectors r of u^dag Z u = r.sigma, as the rows of an (N, 3)
    array, for a stack u of N 2x2 unitaries: r = (Re m01, -Im m01, m00) of
    m = u^dag Z u, formed for the whole stack by one batched matmul, the
    2x2 kernel that forms each m of a single u alike."""
    m = u.conj().transpose(0, 2, 1) @ np.diag([1.0, -1.0]) @ u
    return np.stack((m[:, 0, 1].real, -m[:, 0, 1].imag, m[:, 0, 0].real),
                    axis=1)


def _jumps(protocol):
    """(a, Q, r, n, rate): the boundary form of a pulse sequence or a
    continuous control (a protocol as _reduced returns it).

    Q_j is the jump (r before minus r after; r = 0 outside [0, T]) of the
    control's toggling-frame Bloch vector r at a_j: a sequence's pulses,
    or 0 and T for a continuous control.  r is r on each segment (None for
    a control): z, then _bloch_z of the running products u_k ... u_1 of
    the sequence's unitaries, formed pulse by pulse in that order and
    turned into r in one call.  n is the initial Bloch vector (None for a
    sequence with no definite initial state), rate twice a control's
    largest precession rate |n| of a generator h = h0 + n.sigma.
    The jumps' covariance in the initial state is D = Q Q^T - (Q n)(Q n)^T,
    and (2/3) Q Q^T, its Haar average, for n None; its rows sum to zero.
    """
    z = np.array([0.0, 0.0, 1.0])
    if isinstance(protocol, PulseSequence):
        # the running products u_k ... u_1, each written into its row
        running, v = np.empty_like(protocol.unitaries), np.eye(2)
        for k, u in enumerate(protocol.unitaries):
            v = np.matmul(u, v, out=running[k])
        r, n = np.vstack([z, _bloch_z(running)]), None
        if protocol.initial_state is not None:
            alpha, beta = protocol.initial_state
            n = np.array([math.sin(alpha) * math.cos(beta),
                          math.sin(alpha) * math.sin(beta), math.cos(alpha)])
        Q = -np.diff(np.vstack([0.0 * z, r, 0.0 * z]), axis=0)
        return protocol.boundaries(), Q, r, n, 0.0
    u = np.eye(2)
    for start, end, h in protocol.pieces:
        u = _su2_exp(h, end - start) @ u
    return (np.array([0.0, float(protocol.total_time)]),
            np.vstack([-z, _bloch_z(u[None])]), None,
            np.array([1.0, 0.0, 0.0]), 2.0 * _generator_norm(protocol))


def feature_scale(protocol, signal: SignalParams) -> float:
    """Highest intrinsic frequency of a protocol at the signal's field B.

    The largest of 1/T, zeta*|B| (n*zeta for a GHZ register) and the
    protocol's own rates: segments/T for trains and registers and pieces/T
    for a piecewise generator (a segment or piece of at most 16 ulps of T
    does not count), 2|g| for the drive, and twice the largest precession
    rate |n| of a generator h = h0 + n.sigma for a continuous control.  The
    closed-form tail starts at tail_start_factor times this; the CLI's
    default spectrum grid ends at 8 times it.
    """
    protocol, signal = _reduced(protocol, signal)
    T = float(protocol.total_time)
    scale = max(1.0 / T, signal.zeta * abs(signal.B))
    if isinstance(protocol, PulseSequence):
        scale = max(scale, protocol.segment_count(_ULP_SEGMENT * T) / T)
    elif isinstance(protocol, ContinuousControl):
        # a Python int: a numpy one overflows with a warning at T = 1e-320
        pieces = int(sum(end - start > _ULP_SEGMENT * T
                         for start, end, _ in protocol.pieces))
        scale = max(scale, 2.0 * _generator_norm(protocol), pieces / T)
    return scale


# -- states and J -------------------------------------------------------------


def _states(protocol, signal: SignalParams, om, ode_tol: float):
    """(J rule, (psi, dpsi)) at T for every frequency in om, psi and dpsi
    each of shape (n, 2), for a protocol as _reduced returns it.

    The rule is _pure_j, or for a sequence with initial_state None _haar_j,
    (8/3)|dpsi|^2 of the states from |0>: the propagator is a phase free of
    B times an SU(2) matrix V, so |dV/dB e| is the same for every unit e.
    Raises ValueError first unless ode_tol is positive and finite, om a
    number or a 1-D grid, every omega finite and >= 0, and omega*T finite.
    A continuous control's states are renormalized and dpsi projected onto
    the normalized path; a norm drift above 10*ode_tol raises
    IntegrationError, since it signals a failed error control.
    """
    _check_ode_tol(ode_tol)
    om = _grid(om)
    bad = ~((om >= 0.0) & (om < math.inf))  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"omegas must be finite and >= 0, got {om[bad][0]}")
    top, T = float(om.max(initial=0.0)), float(protocol.total_time)
    if not math.isfinite(top * T):
        raise ValueError(f"omega*T must be finite, got omega {top} at T = {T}")
    if isinstance(protocol, PulseSequence):
        return (_pure_j if protocol.initial_state is not None else _haar_j,
                discrete_propagators(protocol, signal, omegas=om))
    y = _continuous_batch(protocol, signal, om, tol=ode_tol)
    psi, dpsi = y[:, 0:2], y[:, 2:4]
    norms = np.linalg.norm(psi, axis=1, keepdims=True)
    drift = float(np.abs(norms - 1.0).max(initial=0.0))
    if drift > 10.0 * ode_tol:
        raise IntegrationError(f"norm drift {drift:.3e} > 10*ode_tol")
    psi = psi / norms
    proj = np.einsum("ni,ni->n", psi.conj(), dpsi).real
    return _pure_j, (psi, dpsi - proj[:, None] * psi)


def _finite_j(j_of, states, om) -> np.ndarray:
    """j_of(*states), J at the frequencies om: a J beyond the floats is a
    ValueError, not a RuntimeWarning and a NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        j = j_of(*states)
    finite = np.isfinite(j)
    if not finite.all():
        raise ValueError(f"J at omega = {np.atleast_1d(om)[~finite][0]} "
                         "is beyond the floats")
    return j


def qfi_vs_omega(protocol, signal: SignalParams, omegas=None,
                 ode_tol: float = ODE_TOL) -> np.ndarray:
    """J(B | omega) at the signal's field B over a frequency grid.

    Without omegas, J at the signal's own frequency.  omegas must be a
    number or a 1-D grid, every omega finite and >= 0, and omega*T finite.
    ode_tol, which must be positive and finite, bounds the estimated error
    of a continuous drive's final state, and of its field derivative per
    unit of zeta.  For initial_state None, J is averaged over Haar states.
    A J beyond the floats is a ValueError.
    """
    protocol, signal = _reduced(protocol, signal)
    om = signal.omega if omegas is None else omegas
    # a zeta*B*Theta beyond the floats leaves the propagation as NaN or inf,
    # which _finite_j reports: its ValueError alone, and no RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_j(*_states(protocol, signal, om, ode_tol), om)


def _pure_j(psi, dpsi):
    """J = 4*(<dpsi|dpsi> + Re <dpsi|psi>^2) of each row of psi, dpsi."""
    (a, b), (da, db) = psi.T, dpsi.T
    ov = da.conj() * a + db.conj() * b
    dd = (da.conj() * da + db.conj() * db).real
    return 4.0 * (dd + (ov * ov).real)


def _haar_j(psi, dpsi):
    """J averaged over Haar-random initial states, from psi and dpsi
    propagated from |0>: (8/3)|dpsi|^2 of each row.  Exact, as J has degree
    2 in psi0 and psi0*, the propagator P = c V with V in SU(2) and c a
    phase free of B (the pulses are unitary), and G = V^dag dV/dB traceless
    and anti-Hermitian, so W = dP/dB has W^dag W = |g|^2 I and Tr(W^dag P)
    = 0: the trace formula 4 (Tr A/2 + Re(Tr(M)^2 + Tr M^2)/6), A = W^dag
    W, M = W^dag P, reduces to (8/3)|g|^2 = (8/3)|W e_0|^2."""
    return (8.0 / 3.0) * (dpsi.real ** 2 + dpsi.imag ** 2).sum(axis=1)
