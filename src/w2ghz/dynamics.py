"""Time evolution engines for the atom-cavity transfer.

Closed-form evolution coefficients describe how each ground level turns into
an emitted-photon component, with and without cavity decay; fixed-step
fourth-order integrators provide the independent numerical route for both the
wavefunction and the master equation, and a comparison utility quantifies the
error of eliminating the upper atomic levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atom_cavity import (
    SystemParams,
    effective_embedding,
    effective_hamiltonian,
    effective_space,
    full_hamiltonian,
)
from .hilbert import DensityMatrix, Operator, StateVector, tol, trace_distance


@dataclass(frozen=True)
class EvolutionCoefficients:
    """Amplitude pair (alpha, beta) of the ground/emitted superposition
    alpha |g_j, vacuum> + beta |e_j, one photon j>."""

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


def _sinhc(x: complex) -> complex:
    """sinh(x)/x, series-expanded near the removable singularity at 0."""
    if abs(x) < 1e-6:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return np.sinh(x) / x


def _require_time(t: float) -> None:
    """Raise ValueError naming ``t`` unless it is a finite, non-negative time."""
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be a finite non-negative time, got {t}")


def ideal_coefficients(params: SystemParams, t: float) -> EvolutionCoefficients:
    """Closed-form transfer amplitudes for the lossless cavity (kappa ignored).

    With S = lambda_c^2 + Omega^2 and theta = S*t/Delta:

        alpha = (lambda_c^2 + Omega^2 e^{i theta}) / S
        beta  = lambda_c*Omega (e^{i theta} - 1) / S
    """
    _require_time(t)
    s = params.lambda_c**2 + params.omega**2
    theta = s * t / params.delta
    phase = np.exp(1j * theta)
    alpha = (params.lambda_c**2 + params.omega**2 * phase) / s
    beta = params.lambda_c * params.omega * (phase - 1.0) / s
    return EvolutionCoefficients(complex(alpha), complex(beta))


def require_symmetric_drive(params: SystemParams) -> None:
    """Raise ValueError unless lambda_c == Omega (to 1e-12 relative), the
    drive the decaying closed form is derived for."""
    if not math.isclose(params.lambda_c, params.omega, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError(
            "closed-form decaying coefficients require lambda_c == omega "
            f"(symmetric drive); got lambda_c={params.lambda_c}, omega={params.omega}"
        )


def decay_coefficients(params: SystemParams, t: float) -> EvolutionCoefficients:
    """Closed-form transfer amplitudes with cavity decay (no-jump evolution).

    Derived for the symmetric drive lambda_c = Omega.  With
    eta = lambda_c^2/Delta, phi = sqrt(kappa^2 - 4 eta^2) and
    varphi = i eta - kappa/2:

        alpha' = [phi cosh(phi t/2) + kappa sinh(phi t/2)] e^{varphi t} / phi
        beta'  = i eta (e^{phi t} - 1) e^{t (varphi - phi/2)} / phi

    Both expressions are evaluated through sinh(x)/x so the kappa = 2*eta
    degeneracy (phi -> 0) is continuous.  In the overdamped regime (phi real)
    cosh and sinh overflow from phi t/2 ~ 710 while the envelope e^{-kappa t/2}
    decays faster, so there the exponents are combined first:
    e^{-kappa t/2} sinh(x)/x = e^{x - kappa t/2} (1 - e^{-2x})/(2x).
    """
    _require_time(t)
    require_symmetric_drive(params)
    d = params.derived
    if d.phi.real > 0.0:
        x = d.phi.real * t / 2.0
        half_kt = params.kappa * t / 2.0
        grow = math.exp(x - half_kt)
        sc = -math.expm1(-2.0 * x) / (2.0 * x) if x > 0.0 else 1.0
        phase = complex(math.cos(d.eta * t), math.sin(d.eta * t))
        alpha = (0.5 * (grow + math.exp(-x - half_kt)) + half_kt * grow * sc) * phase
        beta = 1j * d.eta * t * grow * sc * phase
        return EvolutionCoefficients(alpha, beta)
    x = d.phi * t / 2.0
    envelope = np.exp(d.varphi * t)
    sc = _sinhc(x)
    alpha = (np.cosh(x) + (params.kappa * t / 2.0) * sc) * envelope
    beta = 1j * d.eta * t * sc * envelope
    return EvolutionCoefficients(complex(alpha), complex(beta))


def _rk4_propagate(rhs, y0: np.ndarray, t: float, dt: float) -> np.ndarray:
    if t < 0:
        raise ValueError(f"evolution time must be non-negative, got {t}")
    n_steps = max(1, int(math.ceil(t / dt - 1e-12)))
    h = t / n_steps
    y = y0
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def schrodinger_evolve(h: Operator, psi0: StateVector, t: float,
                       cfg: IntegratorConfig | None = None) -> StateVector:
    """Integrate d psi/dt = -i H psi with fixed-step RK4.

    Norm is preserved (within 1e-8) for Hermitian generators and is
    monotonically non-increasing for the no-jump conditional generator.
    """
    if h.space != psi0.space:
        raise ValueError(f"space mismatch: {h.space.subsystems} vs {psi0.space.subsystems}")
    if cfg is None:
        cfg = default_config(h)
    if t == 0.0:
        return StateVector(psi0.space, psi0.amplitudes, normalized=False)
    hm = h.elements

    def rhs(psi):
        return -1j * (hm @ psi)

    out = _rk4_propagate(rhs, psi0.amplitudes.astype(np.complex128), t, cfg.dt)
    result = StateVector(psi0.space, out, normalized=False)
    if h.hermitian and psi0.norm() > 0:
        drift = abs(result.norm() - psi0.norm()) / psi0.norm()
        if drift > tol(1e-8):
            raise RuntimeError(f"integrator norm drift {drift:.3e} exceeds tolerance; reduce dt")
    return result


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


def lindblad_evolve(h: Operator, collapse: list[tuple[float, Operator]], rho0: DensityMatrix,
                    t: float, cfg: IntegratorConfig | None = None) -> DensityMatrix:
    """Integrate the master equation
    d rho/dt = -i[H, rho] - sum_k (rate_k/2)(C_k^dag C_k rho - 2 C_k rho C_k^dag + rho C_k^dag C_k)
    with fixed-step RK4, returning a validated density matrix."""
    if rho0.space != h.space:
        raise ValueError(f"space mismatch: {h.space.subsystems} vs {rho0.space.subsystems}")
    out = propagate_matrix(h, collapse, rho0.elements, t, cfg)
    result = DensityMatrix(rho0.space, out, normalized=rho0.normalized)
    if rho0.normalized and abs(result.trace() - 1.0) > tol(1e-8):
        raise RuntimeError(f"integrator trace drift {result.trace() - 1.0:.3e}; reduce dt")
    return result


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
    """Evolve |g_L, vacuum> under the six-level and the eliminated four-level
    Hamiltonians and report, per grid time, the trace distance between the
    four-level state and the (unnormalized) projection of the six-level state
    onto the shared manifold.

    Both evolutions use the exact spectral propagator, so the report isolates
    the model difference rather than integration error.  Density matrices make
    the comparison insensitive to any global phase.
    """
    h_full = full_hamiltonian(params)
    h_eff = effective_hamiltonian(params)
    embed = effective_embedding(params.n_max)

    e_full, v_full = np.linalg.eigh(h_full.elements)
    e_eff, v_eff = np.linalg.eigh(h_eff.elements)

    # |g_L> tensor vacuum in both pictures (g_L is index 0 in both orderings).
    psi0_full = np.zeros(h_full.space.total_dim, dtype=np.complex128)
    psi0_full[0] = 1.0
    psi0_eff = np.zeros(h_eff.space.total_dim, dtype=np.complex128)
    psi0_eff[0] = 1.0

    c_full = v_full.conj().T @ psi0_full
    c_eff = v_eff.conj().T @ psi0_eff

    eff_space = effective_space(params.n_max)
    points = []
    for t in t_grid:
        psi_full = v_full @ (np.exp(-1j * e_full * t) * c_full)
        psi_eff = v_eff @ (np.exp(-1j * e_eff * t) * c_eff)
        projected = embed.conj().T @ psi_full
        rho_proj = DensityMatrix(eff_space, np.outer(projected, projected.conj()), normalized=False)
        rho_eff = DensityMatrix(eff_space, np.outer(psi_eff, psi_eff.conj()), normalized=False)
        leak = 1.0 - float(np.vdot(projected, projected).real)
        points.append(DeviationPoint(time=float(t),
                                     distance=trace_distance(rho_eff, rho_proj),
                                     leakage=leak))
    return DeviationReport(tuple(points))
