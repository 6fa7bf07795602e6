"""Quantitative noise analysis: decay success-probability curves and
master-equation fidelity estimates.

The success probability under cavity decay has the closed form

    P_d = 6 eta^6 [1 - cos(phi' t)]^3 e^{-3 kappa t} / phi'^6,

with eta = lambda_c^2/Delta and phi' = sqrt(4 eta^2 - kappa^2), and must agree
with (3/4)|beta'|^6 from the decaying transfer coefficients; sweeps emit both
columns so the identity is checked point by point.

Fidelity under the full noise model comes from master-equation runs of a
single atom-cavity unit (24-dimensional at the default Fock cutoff) starting
from (gL + gR)/sqrt2 tensor vacuum.  The three-subsystem figure is
under-specified by a single number, so two documented estimators are
reported:

* ``product_fidelity`` (estimator a): the Uhlmann fidelity of the three-fold
  product of subsystem outputs against the product of ideal targets, i.e.
  sqrt(<psi|rho_1|psi>) cubed.  This counts photon loss and spontaneous decay
  against the fidelity, and is the estimator matching the headline values.
* ``network_fidelity`` (estimator b): the noisy single-unit channel applied
  to every atom of the protocol's own per-pattern conditional state (the
  lossless network of the given layout with perfect detectors), averaged
  over accepted patterns.  It follows the layout like ``run_protocol`` does.
  Post-selection filters loss, so this estimator is systematically higher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atom_cavity import (
    EMITTED_LEVELS,
    FULL_LEVELS,
    SystemParams,
    collapse_operators,
    full_hamiltonian,
    full_space,
)
from .detection import OutcomeClass, classify_pattern, enumerate_outcomes, ghz_pair_states
from .dynamics import (
    EvolutionCoefficients,
    IntegratorConfig,
    _matrix_rate_scale,
    decay_coefficients,
    propagate_matrix,
)
from .photonics import DEFAULT_LAYOUT, NetworkLayout, full_network
from .protocol import apply_hadamard_pulses, cavity_interaction, prepare_w_state

# Fixed drive parameters of the reference noise analysis, in units of gamma.
REFERENCE_OMEGA = 2.9
REFERENCE_DELTA = 14.0
REFERENCE_LAMBDA_C = 2.86
# Experimentally reported cavity quality: kappa = lambda_c / 250.
EXPERIMENTAL_KAPPA_RATIO = 250.0

# Step converged to <1e-8 in the reference-parameter scale (rates of order
# 10 gamma, horizons of order 3/gamma).
_DEFAULT_ANALYSIS_CONFIG = IntegratorConfig(dt=1e-3)
# Where RK4's stability region meets the imaginary axis.
_RK4_IMAGINARY_REACH = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class SweepSpec:
    """Grid for a one-parameter sweep at otherwise fixed params."""

    parameter: str
    minimum: float
    maximum: float
    steps: int
    fixed: SystemParams

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
        if not self.minimum < self.maximum:
            raise ValueError(f"need minimum < maximum, got [{self.minimum}, {self.maximum}]")

    def grid(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.steps)


@dataclass(frozen=True)
class CurvePoint:
    """One sweep sample: closed form, numeric route and their difference."""

    abscissa: float
    closed_form: float
    numeric: float
    abs_difference: float


def pd_closed_form(params: SystemParams, t: float) -> float:
    """Success probability of detecting all three photons at time t under
    cavity decay: 6 eta^6 [1-cos(phi' t)]^3 e^{-3 kappa t} / phi'^6.

    Evaluated through the half-angle form 1 - cos(x) = 2 sin^2(x/2) (and its
    overdamped sinh counterpart) so the expression stays accurate near the
    zeros; the phi' -> 0 degeneracy is series-expanded.
    """
    d = params.derived
    eta, kappa = d.eta, params.kappa
    phi_sq = kappa * kappa - 4.0 * eta * eta
    if abs(phi_sq) * t * t / 4.0 < 1e-12:
        # Critically damped neighbourhood: sinh(x)/x -> 1 + x^2/6.
        x_sq = phi_sq * t * t / 4.0
        sinhc = 1.0 + x_sq / 6.0 + x_sq * x_sq / 120.0
        return 0.75 * (eta * t * sinhc) ** 6 * math.exp(-3.0 * kappa * t)
    if phi_sq < 0.0:
        phi_prime = math.sqrt(-phi_sq)
        s = math.sin(phi_prime * t / 2.0)
        return 48.0 * eta**6 * s**6 * math.exp(-3.0 * kappa * t) / phi_prime**6
    phi = math.sqrt(phi_sq)
    s = math.sinh(phi * t / 2.0)
    return 48.0 * eta**6 * s**6 * math.exp(-3.0 * kappa * t) / phi**6


def pd_numeric(params: SystemParams, t: float) -> float:
    """(3/4)|beta'(t)|^6 from the decaying transfer coefficients."""
    return 0.75 * abs(decay_coefficients(params, t).beta) ** 6


def pd_sweep(spec: SweepSpec) -> list[CurvePoint]:
    """Sample the decay success probability over a kappa*t grid, emitting the
    closed form and the coefficient route side by side."""
    if spec.parameter != "kappa_t":
        raise ValueError(f"decay sweeps run over 'kappa_t', got {spec.parameter!r}")
    if spec.fixed.kappa <= 0:
        raise ValueError("decay sweep needs kappa > 0")
    points = []
    for kt in spec.grid():
        t = kt / spec.fixed.kappa
        closed = pd_closed_form(spec.fixed, t)
        numeric = pd_numeric(spec.fixed, t)
        points.append(CurvePoint(float(kt), closed, numeric, abs(closed - numeric)))
    return points


def params_for_eta_over_kappa(ratio: float, eta_d: float = 1.0) -> SystemParams:
    """Symmetric-drive params realizing a given eta/kappa with kappa = 1."""
    if ratio <= 0:
        raise ValueError(f"eta/kappa must be positive, got {ratio}")
    return SystemParams(delta=1.0 / ratio, lambda_c=1.0, omega=1.0, kappa=1.0, eta_d=eta_d)


def reference_noise_params(lambda_over_gamma_a: float,
                           kappa_convention: str = "experimental") -> SystemParams:
    """Reference-drive params with spontaneous decay lambda_c/gamma_a as given.

    ``kappa_convention`` selects the cavity-decay wiring: "experimental" pins
    kappa to the reported cavity (lambda_c/250) independently of gamma_a,
    "equal" sets kappa = gamma_a and "half" sets kappa = gamma_a/2.
    """
    if lambda_over_gamma_a <= 0:
        raise ValueError(f"lambda_c/gamma_a must be positive, got {lambda_over_gamma_a}")
    gamma_a = REFERENCE_LAMBDA_C / lambda_over_gamma_a
    if kappa_convention == "experimental":
        kappa = REFERENCE_LAMBDA_C / EXPERIMENTAL_KAPPA_RATIO
    elif kappa_convention == "equal":
        kappa = gamma_a
    elif kappa_convention == "half":
        kappa = gamma_a / 2.0
    else:
        raise ValueError(f"unknown kappa convention {kappa_convention!r}")
    return SystemParams(delta=REFERENCE_DELTA, lambda_c=REFERENCE_LAMBDA_C,
                        omega=REFERENCE_OMEGA, kappa=kappa, gamma_a=gamma_a)


def _unit_indices(n_max: int):
    space = full_space(n_max)
    return space, {
        "gL": space.basis_index(FULL_LEVELS.index("gL"), 0, 0),
        "gR": space.basis_index(FULL_LEVELS.index("gR"), 0, 0),
        "eL1": space.basis_index(FULL_LEVELS.index("eL"), 1, 0),
        "eR1": space.basis_index(FULL_LEVELS.index("eR"), 0, 1),
    }


def _evolve_unit(params: SystemParams, m0: np.ndarray, t: float,
                 cfg: IntegratorConfig) -> np.ndarray:
    """Propagate one unit under the master equation, refusing a step beyond
    RK4's stability limit.

    dt * (2 ||H|| + sum rate ||c^dag c||), in the infinity norm, bounds dt
    times the generator's spectral radius; RK4 stays stable only while that
    is at most 2 sqrt2, the reach of its stability region along the
    imaginary axis.  Past it the output is not a physical state, and the
    trace check alone does not catch it.
    """
    h = full_hamiltonian(params)
    collapse = collapse_operators(params)
    scale = 2.0 * _matrix_rate_scale(h.elements) + sum(
        rate * _matrix_rate_scale(op.elements.conj().T @ op.elements) for rate, op in collapse)
    if cfg.dt * scale > _RK4_IMAGINARY_REACH:
        raise ValueError(f"dt = {cfg.dt!r} exceeds the RK4 stability limit "
                         f"{_RK4_IMAGINARY_REACH / scale:.3g} of this generator")
    return propagate_matrix(h, collapse, m0, t, cfg)


def subsystem_transfer_fidelity(params: SystemParams, t: float | None = None,
                                cfg: IntegratorConfig | None = None) -> float:
    """Uhlmann fidelity of one noisy atom-cavity unit against the ideal
    transfer target (|eL, photon L> + |eR, photon R>)/sqrt2, starting from
    (|gL> + |gR>)/sqrt2 tensor vacuum: sqrt(<psi_ideal| rho(t) |psi_ideal>)."""
    if t is None:
        t = params.operating_time
    cfg = cfg or _DEFAULT_ANALYSIS_CONFIG
    space, ix = _unit_indices(params.n_max)
    psi0 = np.zeros(space.total_dim, dtype=np.complex128)
    psi0[ix["gL"]] = psi0[ix["gR"]] = 1.0 / math.sqrt(2.0)
    rho = _evolve_unit(params, np.outer(psi0, psi0.conj()), t, cfg)
    trace_drift = abs(float(np.trace(rho).real) - 1.0)
    if trace_drift > 1e-8:
        raise RuntimeError(f"master-equation trace drift {trace_drift:.3e}; reduce dt")
    target = np.zeros(space.total_dim, dtype=np.complex128)
    target[ix["eL1"]] = target[ix["eR1"]] = 1.0 / math.sqrt(2.0)
    overlap = float(np.real(np.vdot(target, rho @ target)))
    return math.sqrt(max(overlap, 0.0))


def master_equation_fidelity(params: SystemParams, t: float | None = None,
                             cfg: IntegratorConfig | None = None) -> float:
    """Three-subsystem protocol fidelity, composed as the product of the three
    subsystem Uhlmann fidelities (estimator a)."""
    return subsystem_transfer_fidelity(params, t, cfg) ** 3


@dataclass(frozen=True)
class FidelityEstimates:
    """Both documented three-subsystem fidelity estimators plus diagnostics."""

    subsystem_fidelity: float
    product_fidelity: float
    network_fidelity: float
    accepted_probability: float


def master_equation_estimates(params: SystemParams, t: float | None = None,
                              cfg: IntegratorConfig | None = None,
                              layout: NetworkLayout = DEFAULT_LAYOUT) -> FidelityEstimates:
    """Run the single-unit master equation and form both fidelity estimators.

    Estimator b needs the action of the noisy channel on the ground-qubit
    operator basis, obtained by propagating |gL><gL|, |gR><gR| and the
    coherence |gL><gR| (the generator is linear, so the non-Hermitian initial
    matrix is legitimate).  The emitted one-photon blocks of those outputs
    form the noisy unit channel, which is applied to every atom of the
    lossless protocol's own conditional state for each accepted pattern, as
    produced by ``full_network`` on ``layout`` and ``enumerate_outcomes``.
    """
    if t is None:
        t = params.operating_time
    cfg = cfg or _DEFAULT_ANALYSIS_CONFIG
    space, ix = _unit_indices(params.n_max)
    dim = space.total_dim

    def ketbra(i: int, j: int) -> np.ndarray:
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[i, j] = 1.0
        return m

    m_ll = _evolve_unit(params, ketbra(ix["gL"], ix["gL"]), t, cfg)
    m_rr = _evolve_unit(params, ketbra(ix["gR"], ix["gR"]), t, cfg)
    m_lr = _evolve_unit(params, ketbra(ix["gL"], ix["gR"]), t, cfg)
    for label, m in (("gL", m_ll), ("gR", m_rr)):
        drift = abs(float(np.trace(m).real) - 1.0)
        if drift > 1e-8:
            raise RuntimeError(f"master-equation trace drift {drift:.3e} on the {label} run; reduce dt")

    # Subsystem output for the (gL+gR)/sqrt2 input, by linearity.
    rho_plus = 0.5 * (m_ll + m_rr + m_lr + m_lr.conj().T)
    target = np.zeros(dim, dtype=np.complex128)
    target[ix["eL1"]] = target[ix["eR1"]] = 1.0 / math.sqrt(2.0)
    f_sub = math.sqrt(max(float(np.real(np.vdot(target, rho_plus @ target))), 0.0))

    # The unit channel on the emitted-photon sector: channel[p, q] is the 6x6
    # atomic block that |g_p><g_q| leaves behind with one photon in mode p on
    # the left and mode q on the right (index 0 = L, 1 = R, as in
    # EMITTED_LEVELS).
    n_atom = len(FULL_LEVELS)
    sel = ([space.basis_index(k, 1, 0) for k in range(n_atom)],
           [space.basis_index(k, 0, 1) for k in range(n_atom)])
    channel = np.empty((2, 2, n_atom, n_atom), dtype=np.complex128)
    channel[0, 0] = m_ll[np.ix_(sel[0], sel[0])]
    channel[1, 1] = m_rr[np.ix_(sel[1], sel[1])]
    channel[0, 1] = m_lr[np.ix_(sel[0], sel[1])]
    channel[1, 0] = channel[0, 1].conj().T

    # The lossless protocol's per-pattern conditional states over the emitted
    # levels; the noisy channel replaces each atom's |e_p><e_q| by its block,
    # and the GHZ targets are lifted from the emitted levels into all six.
    emitted = cavity_interaction(apply_hadamard_pulses(prepare_w_state()), params,
                                 coefficients=EvolutionCoefficients(0.0, 1.0))
    report = enumerate_outcomes(full_network(emitted, layout), 1.0)
    embed = np.zeros((n_atom, len(EMITTED_LEVELS)))
    for k, level in enumerate(EMITTED_LEVELS):
        embed[FULL_LEVELS.index(level), k] = 1.0
    lift = np.kron(np.kron(embed, embed), embed)

    fidelity_acc = 0.0
    probability_acc = 0.0
    for pattern, rho in report.conditional_states.items():
        ideal = report.probability(pattern) * rho.elements.reshape((2,) * 6)
        noisy = np.einsum("ABCabc,AaIi,BbJj,CcKk->IJKijk", ideal, channel, channel, channel,
                          optimize=True).reshape((n_atom**3,) * 2)
        probability = float(np.trace(noisy).real)
        if probability <= 0.0:
            continue
        plus, minus = ghz_pair_states(rho.space)
        ghz = lift @ (plus if classify_pattern(pattern) is OutcomeClass.GHZ_PLUS else minus).amplitudes
        fidelity_acc += float(np.real(np.vdot(ghz, noisy @ ghz)))
        probability_acc += probability
    network_fidelity = fidelity_acc / probability_acc if probability_acc > 0 else 0.0
    return FidelityEstimates(
        subsystem_fidelity=f_sub,
        product_fidelity=f_sub**3,
        network_fidelity=network_fidelity,
        accepted_probability=probability_acc,
    )


@dataclass(frozen=True)
class SurfacePoint:
    kappa_over_gamma: float
    gamma_a_over_gamma: float
    estimator_a: float
    estimator_b: float


def fidelity_surface(kappa_values, gamma_a_values,
                     cfg: IntegratorConfig | None = None) -> list[SurfacePoint]:
    """Evaluate both fidelity estimators over a (kappa, gamma_a) grid at the
    fixed reference drive (Omega = 2.9, Delta = 14, lambda_c = 2.86)."""
    points = []
    for kappa in kappa_values:
        for gamma_a in gamma_a_values:
            params = SystemParams(delta=REFERENCE_DELTA, lambda_c=REFERENCE_LAMBDA_C,
                                  omega=REFERENCE_OMEGA, kappa=float(kappa), gamma_a=float(gamma_a))
            est = master_equation_estimates(params, cfg=cfg)
            points.append(SurfacePoint(float(kappa), float(gamma_a),
                                       est.product_fidelity, est.network_fidelity))
    return points


def fidelity_curve_vs_coupling_ratio(ratios, kappa_convention: str = "experimental",
                                     cfg: IntegratorConfig | None = None) -> list[SurfacePoint]:
    """Both estimators along a lambda_c/gamma_a axis (the alternative axis
    convention for the noise analysis)."""
    points = []
    for ratio in ratios:
        params = reference_noise_params(float(ratio), kappa_convention)
        est = master_equation_estimates(params, cfg=cfg)
        points.append(SurfacePoint(params.kappa, params.gamma_a,
                                   est.product_fidelity, est.network_fidelity))
    return points
