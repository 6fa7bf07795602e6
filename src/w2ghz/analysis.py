"""Quantitative noise analysis: decay success-probability curves and
master-equation fidelity estimates.

The success probability under cavity decay has the closed form

    P_d = 6 eta^6 [1 - cos(phi' t)]^3 e^{-3 kappa t} / phi'^6,

with eta = lambda_c^2/Delta and phi' = sqrt(4 eta^2 - kappa^2), and must agree
with (3/4)|beta'|^6 from the decaying transfer coefficients; sweeps emit both
columns so the identity is checked point by point.

Fidelity under the full noise model comes from one master-equation run of a
single atom-cavity unit (24-dimensional at the default Fock cutoff), which
propagates the ground-qubit operator basis |gL><gL|, |gR><gR|, |gL><gR|
tensor vacuum as one stacked array.  The three-subsystem figure is
under-specified by a single number, so two documented estimators are
reported, both fields of ``master_equation_estimates``:

* ``product_fidelity`` (estimator a): the Uhlmann fidelity of the three-fold
  product of subsystem outputs against the product of ideal targets, i.e.
  sqrt(<psi|rho_1|psi>) cubed, where rho_1 is the output for the
  (gL + gR)/sqrt2 input.  This counts photon loss and spontaneous decay
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
from .detection import classify_pattern
from .dynamics import (
    EvolutionCoefficients,
    IntegratorConfig,
    decay_coefficients,
    propagate_matrix,
)
from .photonics import DEFAULT_LAYOUT, NetworkLayout
from .protocol import _corrected_fidelities, heralded_states

# Fixed drive parameters of the reference noise analysis, in units of gamma.
REFERENCE_OMEGA = 2.9
REFERENCE_DELTA = 14.0
REFERENCE_LAMBDA_C = 2.86
# Experimentally reported cavity quality: kappa = lambda_c / 250.
EXPERIMENTAL_KAPPA_RATIO = 250.0

# Step converged to <1e-8 in the reference-parameter scale (rates of order
# 10 gamma, horizons of order 3/gamma).
_DEFAULT_ANALYSIS_CONFIG = IntegratorConfig(dt=1e-3)


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
    overdamped sinh counterpart, with the exponents combined) so the
    expression stays accurate near the zeros and finite at large kappa*t;
    the phi' -> 0 degeneracy is series-expanded.
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
    # 2 sinh(phi t/2) = e^{phi t/2} (1 - e^{-phi t}): the growth is folded
    # into the decay envelope, which wins since phi < kappa, so nothing
    # overflows at large kappa*t.
    phi = math.sqrt(phi_sq)
    return 0.75 * eta**6 * (-math.expm1(-phi * t))**6 * math.exp(3.0 * (phi - kappa) * t) / phi**6


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


def params_for_eta_over_kappa(ratio: float) -> SystemParams:
    """Symmetric-drive params realizing a given eta/kappa with kappa = 1."""
    if ratio <= 0:
        raise ValueError(f"eta/kappa must be positive, got {ratio}")
    return SystemParams(delta=1.0 / ratio, lambda_c=1.0, omega=1.0, kappa=1.0)


def reference_noise_params(lambda_over_gamma_a: float) -> SystemParams:
    """Reference-drive params with spontaneous decay lambda_c/gamma_a as given
    and kappa pinned to the reported cavity (lambda_c/250)."""
    if lambda_over_gamma_a <= 0:
        raise ValueError(f"lambda_c/gamma_a must be positive, got {lambda_over_gamma_a}")
    return SystemParams(delta=REFERENCE_DELTA, lambda_c=REFERENCE_LAMBDA_C,
                        omega=REFERENCE_OMEGA, kappa=REFERENCE_LAMBDA_C / EXPERIMENTAL_KAPPA_RATIO,
                        gamma_a=REFERENCE_LAMBDA_C / lambda_over_gamma_a)


def _unit_indices(n_max: int):
    space = full_space(n_max)
    return space, {
        "gL": space.basis_index(FULL_LEVELS.index("gL"), 0, 0),
        "gR": space.basis_index(FULL_LEVELS.index("gR"), 0, 0),
        "eL1": space.basis_index(FULL_LEVELS.index("eL"), 1, 0),
        "eR1": space.basis_index(FULL_LEVELS.index("eR"), 0, 1),
    }


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

    Both estimators need the action of the noisy channel on the ground-qubit
    operator basis, obtained by propagating |gL><gL|, |gR><gR| and the
    coherence |gL><gR| together in one stacked call (the generator is
    linear, so the non-Hermitian initial matrix is legitimate).  Estimator a
    takes the output of the (gL + gR)/sqrt2 input from them by linearity.
    For estimator b, the emitted one-photon blocks of those outputs form the
    noisy unit channel, which is applied to every atom of the lossless
    protocol's own conditional state for each accepted pattern, as produced
    by ``heralded_states`` on ``layout`` with perfect detectors.
    """
    if t is None:
        t = params.operating_time
    cfg = cfg or _DEFAULT_ANALYSIS_CONFIG
    space, ix = _unit_indices(params.n_max)
    dim = space.total_dim

    inputs = np.zeros((3, dim, dim), dtype=np.complex128)
    for k, (i, j) in enumerate((("gL", "gL"), ("gR", "gR"), ("gL", "gR"))):
        inputs[k, ix[i], ix[j]] = 1.0
    m_ll, m_rr, m_lr = propagate_matrix(full_hamiltonian(params), collapse_operators(params),
                                        inputs, t, cfg)
    # The generator preserves the trace: 1 for the populations, 0 for the
    # coherence.
    for label, m, expected in (("gL", m_ll, 1.0), ("gR", m_rr, 1.0), ("gL-gR", m_lr, 0.0)):
        drift = abs(complex(np.trace(m)) - expected)
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
    # levels.  The noisy channel replaces each atom's |e_p><e_q| by its block.
    # The GHZ targets live on the emitted levels, so only each block's emitted
    # 2x2 corner enters the fidelity; the output's trace takes block traces.
    report, conditional = heralded_states(EvolutionCoefficients(0.0, 1.0), layout, 1.0)
    patterns = list(report.conditional_states)
    weights = np.array([report.probability(pattern) for pattern in patterns])
    ideal = (weights[:, None, None] * conditional).reshape((len(patterns),) + (2,) * 6)
    emitted = [FULL_LEVELS.index(level) for level in EMITTED_LEVELS]
    corner = channel[:, :, emitted][:, :, :, emitted]
    traces = np.trace(channel, axis1=2, axis2=3)
    noisy = np.einsum("pABCabc,AaIi,BbJj,CcKk->pIJKijk", ideal, corner, corner, corner,
                      optimize=True).reshape(len(patterns), 8, 8)
    probabilities = np.einsum("pABCabc,Aa,Bb,Cc->p", ideal, traces, traces, traces).real
    _, fids = _corrected_fidelities(noisy, [classify_pattern(pattern) for pattern in patterns])
    probability_acc = float(probabilities.sum())
    network_fidelity = float(fids.sum()) / probability_acc if probability_acc > 0 else 0.0
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


def fidelity_curve_vs_coupling_ratio(ratios, cfg: IntegratorConfig | None = None) -> list[SurfacePoint]:
    """Both estimators along a lambda_c/gamma_a axis (the alternative axis
    convention for the noise analysis)."""
    points = []
    for ratio in ratios:
        params = reference_noise_params(float(ratio))
        est = master_equation_estimates(params, cfg=cfg)
        points.append(SurfacePoint(params.kappa, params.gamma_a,
                                   est.product_fidelity, est.network_fidelity))
    return points
