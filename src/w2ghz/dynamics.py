"""Time evolution of one atom-cavity unit.

One closed form, the exact exponential of the no-jump ground/emitted block,
describes how each ground level turns into an emitted-photon component for
any drive and any cavity decay, at one time or a whole array of times at
once.  It is the one place the adiabatically eliminated model is written;
``compare_full_vs_effective`` measures its error against the six-level atom
on the branch block the dynamics never leave.  A fixed-step fourth-order
integrator propagates the six-level master equation, with a budget of 1e5
steps per integration.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .atom_cavity import FULL_LEVELS, SystemParams, full_hamiltonian, full_space
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


def default_config(h: Operator, rates: tuple[float, ...] = ()) -> IntegratorConfig:
    """Step size 1e-3 / (largest rate in the generator), the package default."""
    scale = max(_matrix_rate_scale(h.elements), *rates, 0.0)
    return IntegratorConfig(dt=1e-3 / scale if scale > 0 else 1.0)


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


def _require_time(t: float) -> None:
    """Raise ValueError naming ``t`` unless it is a finite, non-negative time."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be a finite non-negative time, got {t}")


def _times(t):
    """A time as a float, or an array of times as a float array, after
    checking that every time is finite and non-negative."""
    if not isinstance(t, float):
        times = np.asarray(t, dtype=float)
        if times.ndim:
            for extreme in (times.min(), times.max()):  # a nan is its own extreme
                _require_time(float(extreme))
            return times
    _require_time(float(t))
    return float(t)


def _complex_expm1(z: complex) -> complex:
    """e^z - 1 without cancellation for small |z|, rounded as numpy's
    complex expm1 rounds: Re = expm1(x) cos(y) - 2 sin^2(y/2), Im = e^x sin(y)."""
    half = math.sin(z.imag / 2.0)
    return complex(math.expm1(z.real) * math.cos(z.imag) - 2.0 * half * half,
                   math.exp(z.real) * math.sin(z.imag))


def _product(a, b):
    """a * b for complex arrays, rounded as Python rounds a * b for complex
    scalars: numpy may fuse a multiply-add in its complex product, so the
    product is taken in real arithmetic."""
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
    beta, an array complex arrays of its shape.
    """
    ts = _times(t)
    stark_e, stark_g = params.light_shifts
    g = (params.lambda_c / params.delta) * params.omega
    two_d = complex(params.kappa, stark_g - stark_e)
    m = _binade(max(abs(two_d.real), abs(two_d.imag), g))
    u, v = two_d / m, 2.0 * g / m
    s = cmath.sqrt(u * u - v * v) * (m / 2.0)
    rate = complex(-params.kappa, stark_e + stark_g) / 2.0 + s
    if isinstance(ts, float):
        exp, expm1, product = cmath.exp, _complex_expm1, operator.mul
    else:
        exp, expm1, product = np.exp, np.expm1, _product

    def h_series(t):
        x = s * t
        return 1.0 - x + product(x, x) * (2.0 / 3.0)

    def h_direct(t):
        # 1/(2x) as the constant 1/(2s) times 1/t: no per-time complex
        # division, which Python and numpy round differently.
        return product(-expm1(-2.0 * (s * t)), (0.5 / s) * (1.0 / t))

    x = s * ts
    h = _split(abs(x.real) + abs(x.imag) < 1e-6, h_series, h_direct, ts)
    envelope = exp(rate * ts)
    return EvolutionCoefficients(product(envelope, 1.0 + product((two_d / 2.0 - s) * ts, h)),
                                 product(envelope, product(1j * g * ts, h)))


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
                     t: float, cfg: IntegratorConfig | None = None) -> np.ndarray:
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
    rates = []
    for rate, op in collapse:
        if rate < 0:
            raise ValueError(f"collapse rates must be non-negative, got {rate}")
        if op.space != h.space:
            raise ValueError("collapse operator space differs from the Hamiltonian space")
        rates.append(rate)
    if cfg is None:
        cfg = default_config(h, tuple(rates))

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


@dataclass(frozen=True)
class DeviationPoint:
    """Per-time comparison entry: trace distance on the shared manifold and
    population leaked into the eliminated upper levels."""

    time: float
    distance: float
    leakage: float


@dataclass(frozen=True)
class DeviationReport:
    points: tuple[DeviationPoint, ...]

    @property
    def max_distance(self) -> float:
        return max(p.distance for p in self.points)

    @property
    def max_leakage(self) -> float:
        return max(p.leakage for p in self.points)


def compare_full_vs_effective(params: SystemParams, t_grid) -> DeviationReport:
    """Evolve |g_L, vacuum> under the six-level and the eliminated model and
    report, per grid time, the trace distance between the eliminated state
    and the (unnormalized) projection of the six-level state onto the levels
    they share, and the population leaked into the upper level f_L.

    Neither model leaves the L branch from there.  The six-level state stays
    in {|gL,0,0>, |fL,0,0>, |eL,1,0>}, whose 3x3 block of ``full_hamiltonian``
    is diagonalised once for the whole grid; the eliminated state is the
    (alpha, beta) of ``decay_coefficients`` at kappa = 0.  Both are exact
    exponentials, so the report isolates the model difference rather than
    integration error.  For the eliminated pair a and the projected pair b,

        D = sqrt((|a|^2 - |b|^2)^2 + 4 |a_0 b_1 - a_1 b_0|^2) / 2

    is the trace distance of |a><a| and |b><b|, free of any global phase; the
    Lagrange identity |a|^2 |b|^2 - |<a|b>|^2 = |a_0 b_1 - a_1 b_0|^2 gives it
    without cancellation.  The leakage |<fL,0,0|psi>|^2 equals 1 - |b|^2, and
    is read off directly so it is never negative.

    ``t_grid`` is a non-empty one-dimensional grid of finite, non-negative
    times; anything else raises ValueError.
    """
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"t_grid must be a non-empty one-dimensional grid of times, got shape {times.shape}")
    times = _times(times)
    space = full_space(params.n_max)
    branch = [space.basis_index(FULL_LEVELS.index(level), photons, 0)
              for level, photons in (("gL", 0), ("fL", 0), ("eL", 1))]
    energies, vectors = np.linalg.eigh(full_hamiltonian(params).elements[np.ix_(branch, branch)])
    b0, upper, b1 = ((np.exp(-1j * np.outer(times, energies)) * vectors[0].conj()) @ vectors.T).T
    eliminated = decay_coefficients(replace(params, kappa=0.0), times)
    a0, a1 = eliminated.alpha, eliminated.beta

    def population(z):
        return z.real * z.real + z.imag * z.imag

    gap = population(a0) + population(a1) - population(b0) - population(b1)
    distance = 0.5 * np.hypot(gap, 2.0 * np.abs(a0 * b1 - a1 * b0))
    return DeviationReport(tuple(DeviationPoint(*point) for point in
                                 zip(times.tolist(), distance.tolist(), population(upper).tolist())))
