"""Time evolution of one atom-cavity unit.

One closed form, the exact exponential of the no-jump ground/emitted block,
describes how each ground level turns into an emitted-photon component for
any drive and any cavity decay, at one time or a whole array of times at
once.  It is the one place the adiabatically eliminated model is written;
its error against the six-level atom is measured test-side.
``emitted_block`` solves the six-level master equation exactly on the branch
blocks, which the tests hold to exact whole-space exponentials.  Fixed-step
RK4, ``propagate_matrix``, has no caller here; only the benchmark runs it,
always at an explicit step, and it is tested as itself.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .atom_cavity import SystemParams, branch_levels, collapse_operators, full_hamiltonian
from .hilbert import Operator


@dataclass(frozen=True)
class EvolutionCoefficients:
    """Amplitude pair (alpha, beta) of the ground/emitted superposition
    alpha |g_j, vacuum> + beta |e_j, one photon j>.  ``decay_coefficients``
    at an array of times gives complex arrays of its shape instead."""

    alpha: complex
    beta: complex

    @property
    def weight(self) -> float:
        """|alpha|^2 + |beta|^2; equals 1 without decay, at most 1 with it."""
        return abs(self.alpha) ** 2 + abs(self.beta) ** 2


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step fourth-order Runge-Kutta configuration; ``dt`` is the step
    size in units of 1/gamma."""

    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")


# Where RK4's stability region meets the imaginary axis.
_RK4_IMAGINARY_REACH = 2.0 * math.sqrt(2.0)


def _matrix_rate_scale(m: np.ndarray) -> float:
    """Infinity-norm upper bound for the spectral radius of a generator."""
    if m.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(m), axis=1)))


def _binade(x: float) -> float:
    """The power of two 2^e with x < 2^e <= 2x (1 for x = 0), capped at the
    largest finite one.  Rates divided by it are below 2, so their squares
    stay in the float range; and the division is exact, so a result scaled
    back by it rounds exactly as the unscaled expression would wherever
    that one is in range."""
    return math.ldexp(1.0, min(math.frexp(x)[1], 1023))


def _split(owned, branch, rest, x):
    """branch(x) where ``owned`` holds and rest(x) elsewhere, for a scalar x
    or an array x with a boolean array ``owned`` of its shape.  Each function
    sees only its own elements, so neither runs where it would divide by
    zero or overflow."""
    if not isinstance(x, np.ndarray):
        return branch(x) if owned else rest(x)
    if owned.all():
        return branch(x)
    if not owned.any():
        return rest(x)
    first, second = branch(x[owned]), rest(x[~owned])
    out = np.empty(x.shape, np.result_type(first, second))
    out[owned], out[~owned] = first, second
    return out


def _times(t):
    """A time as a float, or an array of times as a float array, after
    checking that every time is finite and non-negative."""
    times = float(t) if isinstance(t, float) or not np.ndim(t) else np.asarray(t, dtype=float)
    extremes = (times,) if isinstance(times, float) else (float(times.min()), float(times.max()))
    for extreme in extremes:  # a nan is its own extreme
        if not (math.isfinite(extreme) and extreme >= 0.0):
            raise ValueError(f"t must be a finite non-negative time, got {extreme}")
    return times


# Largest fast phase (kappa + S) t the closed forms accept, S being the
# light-shift sum (lambda_c^2 + Omega^2)/Delta.  Every exponent they take at
# time t is at most that in size: the Stark and Raman phases S t, and s t
# with |s| <= kappa/2 + S.  Each is a rounded product of rates that carry a
# few roundings of their own, so its absolute error is a few times
# 2^-53 (kappa + S) t; past 2^50 rad that reaches half a radian, and the
# sines and exponentials of the phase carry no information.
_MAX_PHASE = 2.0**50


def _fast_rate(params: SystemParams) -> float:
    """kappa + S, the rate of the fast phase _MAX_PHASE bounds."""
    return params.kappa + sum(params.light_shifts)


def _require_resolved(params: SystemParams, t) -> None:
    """Raise ValueError when the fast phase, at the latest of the checked
    times ``t``, is finite but past _MAX_PHASE.  A phase past the float
    range leaves non-finite results, for a time as for an array of times,
    which the callers refuse as such."""
    t_max = t if isinstance(t, float) else float(t.max())
    phase = _fast_rate(params) * t_max
    if _MAX_PHASE < phase < math.inf:
        raise ValueError(f"t = {t_max!r} puts the fast phase (kappa + light shifts) * t = {phase:.3g} rad "
                         f"past double resolution (2^50 rad)")


def _product(a, b):
    """a * b for complex arrays, rounded as a * b rounds for complex scalars,
    non-finite parts included: numpy may fuse a multiply-add in its complex
    array product, so the product is taken in real arithmetic."""
    return (a.real * b.real - a.imag * b.imag) + 1j * (a.real * b.imag + a.imag * b.real)


def decay_coefficients(params: SystemParams, t) -> EvolutionCoefficients:
    """Transfer amplitudes at time t for any drive and any kappa >= 0: the
    exact exponential of the no-jump block {|g_j, 0>, |e_j, 1_j>} of the
    adiabatically eliminated model, whose Hamiltonian is the Stark shifts
    -(Omega^2/Delta) |g_j><g_j| and -(lambda_c^2/Delta) |e_j><e_j| a_j^dag a_j,
    the Raman coupling -(lambda_c Omega/Delta) (|g_j><e_j| a_j + h.c.) and
    the no-jump decay -i kappa a_j^dag a_j.

    The block is -i H_b = mu I + [[d, i g], [i g, -d]] with
    mu = i (lambda_c^2 + Omega^2)/(2 Delta) - kappa/2,
    2 d = kappa + i (Omega^2 - lambda_c^2)/Delta and g = lambda_c Omega/Delta,
    each rate formed from lambda_c/Delta and Omega/Delta before any product
    (``SystemParams.light_shifts``).  With s = sqrt(d^2 - g^2) (the principal
    root, so Re s >= 0), taken as (m/2) sqrt((2d/m)^2 - (2g/m)^2) with m the
    power of two just above the largest of |Re 2d|, |Im 2d| and g, so that
    no square leaves the float range, x = s t and h(x) = -expm1(-2x)/(2x):

        alpha = e^{(mu + s) t} [(1 + e^{-2x})/2 + d t h(x)]
        beta  = e^{(mu + s) t} i g t h(x)

    Folding e^{s t} into the decaying envelope keeps one expression finite
    in the underdamped, critical and overdamped regimes; (1 + e^{-2x})/2 is
    taken as 1 - x h(x), and h as its series 1 - x + 2x^2/3 where
    |Re x| + |Im x| < 1e-6, chosen per time.  At kappa = 0 this is the
    lossless transfer.

    ``t`` is a time or an array of times: a scalar gives complex alpha and
    beta, an array complex arrays of its shape with each time's own bits.
    A time whose fast phase (kappa + S) t is past double resolution, or a
    drive whose light shifts or g are past the float range, raises
    ValueError naming it; a phase past the float range gives non-finite values.
    """
    ts = _times(t)
    _require_resolved(params, ts)
    stark_e, stark_g = params.light_shifts
    g = (params.lambda_c / params.delta) * params.omega
    if not all(map(math.isfinite, (stark_e, stark_g, g))):
        raise ValueError(f"fields 'lambda_c', 'omega' and 'delta': a light shift ({stark_e!r}, {stark_g!r}) or "
                         f"the Raman coupling lambda_c omega/delta = {g!r} is past the float range")
    two_d = complex(params.kappa, stark_g - stark_e)
    m = _binade(max(abs(two_d.real), abs(two_d.imag), g))
    u, v = two_d / m, g / (m / 2.0)
    root = cmath.sqrt(u * u - v * v)
    s = root * (m / 2.0)
    # Re(mu + s) = Re s - kappa/2 cancels where g << kappa; it is taken as
    # -2 a^2 g^2 / ((a^2 + b^2 + g^2 + |s|^2)(a + Re s)), a + ib = d, all in units of m/2.
    # The denominator is 0 without decay, and underflows to 0 only where a,
    # and with it the rate, is subnormal.
    a, b = u.real, u.imag
    denominator = (a * a + b * b + v * v + abs(root) ** 2) * (a + root.real)
    decay = -2.0 * a * a * v * v / denominator if denominator else 0.0
    rate = complex(decay * (m / 2.0), (stark_e + stark_g) / 2.0 + s.imag)
    product = operator.mul if isinstance(ts, float) else _product

    def h_series(t):
        x = s * t
        return 1.0 - x + product(x, x) * (2.0 / 3.0)

    def h_direct(t):
        # 1/(2x) as the constant 1/(2s) times 1/t: no per-time complex
        # division, which Python and numpy round differently.
        return product(-np.expm1(-2.0 * (s * t)), (0.5 / s) * (1.0 / t))

    x = s * ts
    h = _split(abs(x.real) + abs(x.imag) < 1e-6, h_series, h_direct, ts)
    envelope = np.exp(rate * ts)
    return EvolutionCoefficients(product(envelope, 1.0 + product((two_d / 2.0 - s) * ts, h)),
                                 product(envelope, product(1j * g * ts, h)))


def _expm_minus_identity(x: np.ndarray) -> np.ndarray:
    """e^x - I by scaling and squaring (Al-Mohy and Higham, SIAM J. Sci.
    Comput. 33, 488, 2011): a degree-14 Taylor series of E = e^(x/2^k) - I,
    x/2^k being of infinity norm below 1/2, then k squarings of E as
    2E + E E, which keep the slow modes' small increments that squaring
    I + E would round away."""
    k = max(0, math.frexp(float(np.max(np.sum(np.abs(x), axis=1))))[1] + 1)
    x = x * 2.0**-k
    series = eye = np.eye(len(x))
    for n in range(14, 1, -1):
        series = eye + (x / n) @ series
    e = x @ series
    for _ in range(k):
        e = 2.0 * e + e @ e
    return e


def emitted_block(params: SystemParams, t: float) -> np.ndarray:
    """The noisy unit's emitted block M = [[P_L, C], [conj(C), P_R]] at time
    t: P_j = <e_j,1_j|m_jj|e_j,1_j> and C = <eL,1,0|m_LR|eR,0,1>, m_jk being
    the six-level master equation's output of |g_j><g_k| tensor vacuum.

    Jumps out of the (j, k) block of ``branch_levels`` never return, so it
    obeys dX/dt = A_j X + X A_k^dag + sum rate c_j X c_k^dag, with
    A = -i H - (1/2) sum rate c^dag c restricted like c to the branches, and
    its 9x9 generator is exponentiated.  No c acts on both branches, so C
    takes no jump term (Plenio and Knight, RMP 70, 101, 1998).  A time is
    refused as in ``decay_coefficients`` or where it takes the generator
    past the float range, and an M that is not a state raises RuntimeError."""
    t = _times(float(t))
    _require_resolved(params, t)
    collapse = [(rate, op.elements) for rate, op in collapse_operators(params)]
    drift = -1j * full_hamiltonian(params).elements - 0.5 * sum(rate * (c.conj().T @ c) for rate, c in collapse)
    ix = [np.ix_(levels, levels) for levels in (branch_levels(j) for j in "LR")]
    entries = []
    for j, k in ((0, 0), (1, 1), (0, 1)):
        generator = (np.kron(drift[ix[j]], np.eye(3)) + np.kron(np.eye(3), drift[ix[k]].conj())
                     + sum(rate * np.kron(c[ix[j]], c[ix[k]].conj()) for rate, c in collapse))
        if t * float(np.max(np.sum(np.abs(generator), axis=1))) == math.inf:
            raise ValueError(f"t = {t!r} puts the unit's generator times t past the float range")
        # |g_j><g_k| and |e_j><e_k| are entries 0 and 8 of the row-major vec.
        entries.append(_expm_minus_identity(generator * t)[8, 0])
    p_l, p_r, c = entries[0].real, entries[1].real, entries[2]
    if not (-1e-12 <= p_l <= 1.0 + 1e-12 and -1e-12 <= p_r <= 1.0 + 1e-12 and abs(c) ** 2 <= p_l * p_r + 1e-12):
        raise RuntimeError(f"the unit's emitted block is not a state: P_L = {p_l!r}, P_R = {p_r!r}, C = {c!r}")
    return np.array([[p_l, c], [c.conjugate(), p_r]])


# Step budget of one integration.  Converged runs here take at most a few
# 1e4 steps; a step so small that t/dt exceeds this is refused before
# stepping instead of running for hours.
_MAX_RK4_STEPS = 100_000


def _rk4_propagate(rhs, y0: np.ndarray, t: float, dt: float) -> np.ndarray:
    if t < 0:
        raise ValueError(f"evolution time must be non-negative, got {t}")
    steps = t / dt - 1e-12
    if steps > _MAX_RK4_STEPS:
        raise ValueError(f"dt = {dt!r} needs {steps:.3g} RK4 steps over t = {t:.6g}; "
                         f"at most {_MAX_RK4_STEPS} are allowed")
    n_steps = max(1, int(math.ceil(steps)))
    h = t / n_steps
    y = y0
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def propagate_matrix(h: Operator, collapse: list[tuple[float, Operator]], m0: np.ndarray,
                     t: float, cfg: IntegratorConfig) -> np.ndarray:
    """Propagate an arbitrary matrix under the master-equation generator.

    The generator is linear, so it can evolve non-Hermitian matrices such as
    coherence blocks; no density-matrix validation is applied.  ``m0`` may
    carry leading axes, each (..., d, d) slice being propagated on its own.

    dt * (2 ||H|| + sum rate ||c^dag c||), in the infinity norm, bounds dt
    times the generator's spectral radius; RK4 stays stable only while that
    is at most 2 sqrt2, the reach of its stability region along the
    imaginary axis.  Past it the output is not a physical state, and a trace
    check alone does not catch it, so such a step is refused.
    """
    for rate, op in collapse:
        if rate < 0:
            raise ValueError(f"collapse rates must be non-negative, got {rate}")
        if op.space != h.space:
            raise ValueError("collapse operator space differs from the Hamiltonian space")

    # Fold the anticommutator part into one non-Hermitian drift generator.
    h_nh = h.elements.astype(np.complex128).copy()
    scale = 2.0 * _matrix_rate_scale(h.elements)
    jumps = []
    for rate, op in collapse:
        if rate == 0.0:
            continue
        c = op.elements
        c_dag_c = c.conj().T @ c
        h_nh -= 0.5j * rate * c_dag_c
        scale += rate * _matrix_rate_scale(c_dag_c)
        jumps.append((rate, c, c.conj().T))
    if cfg.dt * scale > _RK4_IMAGINARY_REACH:
        raise ValueError(f"dt = {cfg.dt!r} exceeds the RK4 stability limit "
                         f"{_RK4_IMAGINARY_REACH / scale:.3g} of this generator")
    if t == 0.0:
        return np.array(m0, dtype=np.complex128)
    h_nh_dag = h_nh.conj().T

    def rhs(m):
        out = -1j * (h_nh @ m - m @ h_nh_dag)
        for rate, c, c_dag in jumps:
            out += rate * (c @ m @ c_dag)
        return out

    return _rk4_propagate(rhs, np.array(m0, dtype=np.complex128), t, cfg.dt)
