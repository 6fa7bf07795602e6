"""Test-only reference for one atom-cavity unit: the eliminated four-level
model written out in the tensor space of the atom and both cavity modes, the
fixed-step RK4 wavefunction and master-equation integrators, the dense propagator and the trace distance, and pure-state
helpers.  ``tensor_space_deviation`` is the comparison of the six-level and
the eliminated model in that space, by diagonalising both Hamiltonians,
which ``elimination_view.compare_full_vs_effective`` (a view of the branch
blocks) is checked against; both give a ``DeviationReport``.
``unit_outputs`` propagates the noisy unit on its whole space, by RK4 or by
scipy's exponential of the Liouvillian, for ``emitted_block`` (the exact
route on the branch blocks) to be checked against.  The package runs none of
this; each piece is an oracle for a route it does run."""

from dataclasses import dataclass

import numpy as np

from w2ghz import dynamics
from w2ghz.atom_cavity import (
    EFFECTIVE_LEVELS,
    FULL_LEVELS,
    SystemParams,
    _annihilator,
    _atom_op,
    _embed,
    collapse_operators,
    full_hamiltonian,
    full_space,
)
from w2ghz.dynamics import IntegratorConfig, propagate_matrix
from w2ghz.hilbert import DensityMatrix, HilbertSpace, Operator, StateVector, _require_same_space


def basis_state(space: HilbertSpace, *indices: int) -> StateVector:
    """The product-basis state with one index per subsystem."""
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[space.basis_index(*indices)] = 1.0
    return StateVector(space, amps)


def to_density_matrix(psi: StateVector) -> DensityMatrix:
    """|psi><psi|, normalized as ``psi`` is."""
    return DensityMatrix(psi.space, np.outer(psi.amplitudes, psi.amplitudes.conj()), normalized=psi.normalized)


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


def effective_space(n_max: int = 1) -> HilbertSpace:
    """Four-level ground manifold tensored with the two cavity modes."""
    return HilbertSpace.of(("atom", 4), ("ph_L", n_max + 1), ("ph_R", n_max + 1))


def effective_hamiltonian(params: SystemParams) -> Operator:
    """Ground-manifold Hamiltonian after eliminating the upper levels.

    Stark terms -(lambda_c^2/Delta) |e_j><e_j| a_j^dag a_j and
    -(Omega^2/Delta) |g_j><g_j|, plus the Raman coupling
    -(lambda_c Omega/Delta) (|g_j><e_j| a_j + h.c.).
    """
    nph = params.n_max + 1
    a = _annihilator(nph)
    num = a.conj().T @ a
    eye = np.eye(nph, dtype=np.complex128)
    stark_e = params.lambda_c**2 / params.delta
    stark_g = params.omega**2 / params.delta
    raman = params.lambda_c * params.omega / params.delta
    h = np.zeros((4 * nph * nph,) * 2, dtype=np.complex128)
    for j, (g, e) in (("L", ("gL", "eL")), ("R", ("gR", "eR"))):
        a_l, a_r = (a, eye) if j == "L" else (eye, a)
        n_l, n_r = (num, eye) if j == "L" else (eye, num)
        h -= stark_e * _embed(_atom_op(EFFECTIVE_LEVELS, e, e), n_l, n_r)
        h -= stark_g * _embed(_atom_op(EFFECTIVE_LEVELS, g, g), eye, eye)
        flip = raman * _embed(_atom_op(EFFECTIVE_LEVELS, g, e), a_l, a_r)
        h -= flip + flip.conj().T
    return Operator(effective_space(params.n_max), h, hermitian=True)


def conditional_hamiltonian(params: SystemParams) -> Operator:
    """Effective Hamiltonian minus i*kappa * sum_j a_j^dag a_j (no-jump decay)."""
    nph = params.n_max + 1
    num = _annihilator(nph).conj().T @ _annihilator(nph)
    eye4 = np.eye(4, dtype=np.complex128)
    eye = np.eye(nph, dtype=np.complex128)
    total_num = _embed(eye4, num, eye) + _embed(eye4, eye, num)
    h = effective_hamiltonian(params).elements - 1j * params.kappa * total_num
    return Operator(effective_space(params.n_max), h, hermitian=False)


def effective_embedding(n_max: int = 1) -> np.ndarray:
    """Isometry from the four-level effective space into the six-level full
    space (identity on the shared levels, no upper-level component).

    Returns a (6*(n_max+1)^2) x (4*(n_max+1)^2) matrix E with E^dag E = I, so
    E^dag projects full-space vectors onto the shared manifold.
    """
    nph = n_max + 1
    atom_embed = np.zeros((6, 4), dtype=np.complex128)
    for k, level in enumerate(EFFECTIVE_LEVELS):
        atom_embed[FULL_LEVELS.index(level), k] = 1.0
    eye = np.eye(nph, dtype=np.complex128)
    return _embed(atom_embed, eye, eye)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference, in [0, 1] for density matrices."""
    _require_same_space(a.space, b.space)
    eigs = np.linalg.eigvalsh(a.elements - b.elements)
    return float(0.5 * np.sum(np.abs(eigs)))


def propagator(h: Operator, t: float) -> Operator:
    """Matrix exponential exp(-i·H·t).

    Hermitian generators go through an eigendecomposition (exactly unitary up
    to rounding); general generators use scaling-and-squaring.
    """
    if h.hermitian:
        energies, vectors = np.linalg.eigh(h.elements)
        u = (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T
    else:
        # Imported here: scipy costs more to import than the rest of the
        # package, and only non-Hermitian generators need it.
        from scipy.linalg import expm

        u = expm(-1j * t * h.elements)
    if not np.all(np.isfinite(u)):
        raise OverflowError("propagator overflowed; generator has strongly amplifying spectrum")
    return Operator(h.space, u, hermitian=False)


def schrodinger_evolve(h: Operator, psi0: StateVector, t: float, cfg: IntegratorConfig) -> StateVector:
    """Integrate d psi/dt = -i H psi with fixed-step RK4.

    Norm is preserved (within 1e-8) for Hermitian generators and is
    monotonically non-increasing for the no-jump conditional generator.
    """
    if h.space != psi0.space:
        raise ValueError(f"space mismatch: {h.space.subsystems} vs {psi0.space.subsystems}")
    if t == 0.0:
        return StateVector(psi0.space, psi0.amplitudes, normalized=False)
    hm = h.elements

    def rhs(psi):
        return -1j * (hm @ psi)

    out = dynamics._rk4_propagate(rhs, psi0.amplitudes.astype(np.complex128), t, cfg.dt)
    result = StateVector(psi0.space, out, normalized=False)
    if h.hermitian and psi0.norm() > 0:
        drift = abs(result.norm() - psi0.norm()) / psi0.norm()
        if drift > 1e-8:
            raise RuntimeError(f"integrator norm drift {drift:.3e} exceeds tolerance; reduce dt")
    return result


def lindblad_evolve(h: Operator, collapse: list[tuple[float, Operator]], rho0: DensityMatrix,
                    t: float, cfg: IntegratorConfig) -> DensityMatrix:
    """Integrate the master equation
    d rho/dt = -i[H, rho] - sum_k (rate_k/2)(C_k^dag C_k rho - 2 C_k rho C_k^dag + rho C_k^dag C_k)
    with fixed-step RK4, returning a validated density matrix."""
    if rho0.space != h.space:
        raise ValueError(f"space mismatch: {h.space.subsystems} vs {rho0.space.subsystems}")
    out = propagate_matrix(h, collapse, rho0.elements, t, cfg)
    result = DensityMatrix(rho0.space, out, normalized=rho0.normalized)
    drift = float(np.trace(out).real) - 1.0
    if rho0.normalized and abs(drift) > 1e-8:
        raise RuntimeError(f"integrator trace drift {drift:.3e}; reduce dt")
    return result


def tensor_space_deviation(params: SystemParams, t_grid) -> DeviationReport:
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


def unit_levels(n_max: int) -> list[int]:
    """Indices of |gL,0,0>, |gR,0,0>, |eL,1,0> and |eR,0,1> in the unit space."""
    space = full_space(n_max)
    return [space.basis_index(FULL_LEVELS.index(level), n_l, n_r)
            for level, n_l, n_r in (("gL", 0, 0), ("gR", 0, 0), ("eL", 1, 0), ("eR", 0, 1))]


def liouvillian(h: Operator, collapse: list[tuple[float, Operator]]) -> np.ndarray:
    """The master-equation generator on row-major vec(rho) of the whole
    space: kron(A, I) + kron(I, conj A) + sum rate kron(c, conj c), with
    A = -i H - (1/2) sum rate c^dag c."""
    eye = np.eye(h.space.total_dim)
    drift = -1j * h.elements - 0.5 * sum(rate * (c.elements.conj().T @ c.elements) for rate, c in collapse)
    return (np.kron(drift, eye) + np.kron(eye, drift.conj())
            + sum(rate * np.kron(c.elements, c.elements.conj()) for rate, c in collapse))


def unit_outputs(params: SystemParams, t: float, dt: float | None = None) -> np.ndarray:
    """The outputs of |gL><gL|, |gR><gR| and |gL><gR| tensor vacuum at time
    t on the whole unit space, stacked: by ``propagate_matrix`` at RK4 step
    dt, or without one by scipy's exponential of ``liouvillian``.  That is
    the dense ``expm`` at n_max = 1 (576 entries a side), and above it
    ``expm_multiply`` on the three inputs, whose cost grows with the
    generator's norm times t."""
    from scipy.linalg import expm
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import expm_multiply

    g_l, g_r, _, _ = unit_levels(params.n_max)
    n = full_space(params.n_max).total_dim
    inputs = np.zeros((3, n, n), dtype=np.complex128)
    for k, (i, j) in enumerate(((g_l, g_l), (g_r, g_r), (g_l, g_r))):
        inputs[k, i, j] = 1.0
    h, collapse = full_hamiltonian(params), collapse_operators(params)
    if dt is not None:
        return propagate_matrix(h, collapse, inputs, t, IntegratorConfig(dt=dt))
    generator, columns = liouvillian(h, collapse) * t, inputs.reshape(3, n * n).T
    out = expm(generator) @ columns if params.n_max == 1 else expm_multiply(csr_matrix(generator), columns)
    return out.T.reshape(3, n, n)


def block_of(outputs: np.ndarray, n_max: int) -> np.ndarray:
    """M = [[P_L, C], [conj(C), P_R]] read off ``unit_outputs``."""
    _, _, e_l, e_r = unit_levels(n_max)
    m_ll, m_rr, m_lr = outputs
    return np.array([[m_ll[e_l, e_l], m_lr[e_l, e_r]], [np.conj(m_lr[e_l, e_r]), m_rr[e_r, e_r]]])
