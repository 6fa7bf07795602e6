"""Quantitative noise analysis: decay success-probability curves and
master-equation fidelity estimates.

The success probability under cavity decay has the closed form

    P_d = 6 eta^6 [1 - cos(phi' t)]^3 e^{-3 kappa t} / phi'^6,

with eta = lambda_c^2/Delta and phi' = sqrt(4 eta^2 - kappa^2), derived for
the symmetric drive lambda_c = Omega, and must agree there with (3/4)|beta|^6
from the transfer coefficients; sweeps emit both columns so the identity is
checked point by point.  Both routes take an array of times, so a sweep
evaluates each once on its whole grid; a scalar time still gives a float.

Fidelity under the full noise model comes from the master equation of a
single atom-cavity unit, solved exactly by ``dynamics.emitted_block`` at the
operating time for the one block both estimators read,
M = [[P_L, C], [conj(C), P_R]]: the populations left in |eL,1,0> and
|eR,0,1> and their coherence.  The three-subsystem figure is under-specified
by a single number, so two documented estimators are reported, both fields
of ``master_equation_estimates``:

* ``product_fidelity`` (estimator a): the Uhlmann fidelity of the three-fold
  product of subsystem outputs against the product of ideal targets, i.e.
  sqrt(sum(M)/4) cubed.  This counts photon loss and spontaneous decay
  against the fidelity, and is the estimator matching the headline values.
* ``network_fidelity`` (estimator b): the protocol's own per-pattern
  conditional states (the lossless network with perfect detectors)
  multiplied element-wise by M x M x M, averaged over accepted patterns.
  Post-selection filters loss, so this estimator is systematically higher.

The noise analysis holds the drive at ``reference_drive`` and varies kappa
and gamma_a; ``fidelity-surface`` calls ``master_equation_estimates`` once
per drive of its grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atom_cavity import SystemParams
from .dynamics import (
    EvolutionCoefficients,
    _binade,
    _require_resolved,
    _split,
    _times,
    decay_coefficients,
    emitted_block,
)
from .protocol import _corrected_fidelities, heralded_states

# Fixed drive parameters of the reference noise analysis, in units of gamma.
REFERENCE_OMEGA = 2.9
REFERENCE_DELTA = 14.0
REFERENCE_LAMBDA_C = 2.86
# Experimentally reported cavity quality: kappa = lambda_c / 250.
EXPERIMENTAL_KAPPA_RATIO = 250.0

# Most grid points of one sweep; a larger grid is refused before any array
# is allocated.
_MAX_SWEEP_STEPS = 1_000_000


@dataclass(frozen=True)
class SweepSpec:
    """Grid for a one-parameter sweep at otherwise fixed params.  ``parameter``
    accepts only "kappa_t"; it stays because the benchmark passes it
    positionally (ROADMAP item 1(d))."""

    parameter: str
    minimum: float
    maximum: float
    steps: int
    fixed: SystemParams

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
        if self.steps > _MAX_SWEEP_STEPS:
            raise ValueError(f"steps must be at most {_MAX_SWEEP_STEPS}, got {self.steps}")
        if not self.minimum < self.maximum:
            raise ValueError(f"need minimum < maximum, got [{self.minimum}, {self.maximum}]")

    def grid(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.steps)


class CurvePoint(NamedTuple):
    """One sweep sample: closed form, numeric route and their difference."""

    abscissa: float
    closed_form: float
    numeric: float
    abs_difference: float


def _sixth_power(x):
    """x^6 by multiplication, which rounds alike for a time and an array of
    times.  numpy's vectorised pow rounds some elements differently from the
    scalar pow, and P_d reaches the subnormal range, where one such rounding
    is a large relative change."""
    x2 = x * x
    return x2 * x2 * x2


def pd_closed_form(params: SystemParams, t):
    """Success probability of detecting all three photons at time t under
    cavity decay: 6 eta^6 [1-cos(phi' t)]^3 e^{-3 kappa t} / phi'^6.

    Evaluated through the half-angle form 1 - cos(x) = 2 sin^2(x/2) (and its
    overdamped sinh counterpart, with the exponents combined) so the
    expression stays accurate near the zeros and finite at large kappa*t;
    the phi' -> 0 degeneracy is series-expanded.

    ``t`` is a finite non-negative time or an array of them: a scalar gives
    a float, an array a float array of its shape.  The damping branch
    follows from the params; the critical window is chosen per time.  Off
    the symmetric drive lambda_c = Omega it raises ValueError, and so does a
    time whose fast phase is past double resolution, as in
    ``decay_coefficients``.
    """
    if not math.isclose(params.lambda_c, params.omega, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("closed-form P_d and its sweeps require lambda_c == omega "
                         f"(symmetric drive); got lambda_c={params.lambda_c}, omega={params.omega}")
    eta, kappa = params.eta, params.kappa
    # The rates in units of a power of two m just above the larger, so that
    # no square or sixth power leaves the float range: phi_sq is
    # (kappa^2 - 4 eta^2)/m^2 and phi (phi' when underdamped) is
    # sqrt(|kappa^2 - 4 eta^2|)/m.
    m = _binade(max(kappa, eta))
    eta_m, kappa_m = eta / m, kappa / m
    phi_sq = kappa_m * kappa_m - 4.0 * eta_m * eta_m
    phi = math.sqrt(abs(phi_sq))
    ts = _times(t)
    _require_resolved(params, ts)

    def critical(t):
        # Critically damped neighbourhood: sinh(x)/x -> 1 + x^2/6.
        x_sq = phi_sq * (m * t) * (m * t) / 4.0
        sinhc = 1.0 + x_sq / 6.0 + x_sq * x_sq / 120.0
        return 0.75 * _sixth_power(eta * t * sinhc) * np.exp(-3.0 * kappa * t)

    if phi_sq < 0.0:
        def damped(t):
            s = np.sin(phi * (m * t) / 2.0)
            return 48.0 * eta_m**6 * _sixth_power(s) * np.exp(-3.0 * kappa * t) / phi**6
    else:
        # 2 sinh(phi t/2) = e^{phi t/2} (1 - e^{-phi t}): the growth is folded
        # into the decay envelope, which wins since phi < kappa, so nothing
        # overflows at large kappa*t.  Its rate phi - kappa is taken as
        # -4 eta^2/(phi + kappa), which does not cancel where eta << kappa.
        decay = 4.0 * eta_m * eta_m / (phi + kappa_m)

        def damped(t):
            return (0.75 * eta_m**6 * _sixth_power(-np.expm1(-phi * (m * t)))
                    * np.exp(-3.0 * decay * (m * t)) / phi**6)

    p_d = _split(abs(phi_sq) * (m * ts) * (m * ts) / 4.0 < 1e-12, critical, damped, ts)
    return float(p_d) if isinstance(ts, float) else p_d


def pd_numeric(params: SystemParams, t):
    """(3/4)|beta(t)|^6 from the transfer coefficients; a float for a scalar
    t, a float array for an array of times."""
    beta = decay_coefficients(params, t).beta
    # np.hypot rounds a time and an array of times alike; abs() of a complex
    # and numpy's complex abs of an array do not.
    value = 0.75 * _sixth_power(np.hypot(beta.real, beta.imag))
    return float(value) if isinstance(beta, complex) else value


def pd_sweep_table(spec: SweepSpec) -> np.ndarray:
    """Sample the decay success probability over a kappa*t grid as a
    (steps, 4) float array with the columns of ``CurvePoint``: the grid, the
    closed form, the coefficient route and their difference.  Each route is
    evaluated once, on the whole grid; a grid on which either leaves the
    float range (eta*t past it, say) raises ValueError."""
    if spec.parameter != "kappa_t":
        raise ValueError(f"decay sweeps run over 'kappa_t', got {spec.parameter!r}")
    if spec.fixed.kappa <= 0:
        raise ValueError("decay sweep needs kappa > 0")
    kappa_t = spec.grid()
    t = kappa_t / spec.fixed.kappa
    # An intermediate past the float range either cancels (a window test
    # that reads inf, a phase times a vanished envelope) or leaves a
    # non-finite P_d, which is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        closed = pd_closed_form(spec.fixed, t)
        numeric = pd_numeric(spec.fixed, t)
    if not (np.isfinite(closed).all() and np.isfinite(numeric).all()):
        raise ValueError(f"P_d leaves the float range on this grid (eta = {spec.fixed.eta!r}, "
                         f"kappa = {spec.fixed.kappa!r}, kappa*t up to {spec.maximum!r})")
    return np.column_stack((kappa_t, closed, numeric, np.abs(closed - numeric)))


def pd_sweep(spec: SweepSpec) -> list[CurvePoint]:
    """The rows of ``pd_sweep_table`` as CurvePoints."""
    return list(map(CurvePoint._make, pd_sweep_table(spec).tolist()))


def params_for_eta_over_kappa(ratio: float) -> SystemParams:
    """Symmetric-drive params realizing a given eta/kappa with kappa = 1."""
    if ratio <= 0:
        raise ValueError(f"eta/kappa must be positive, got {ratio}")
    return SystemParams(delta=1.0 / ratio, lambda_c=1.0, omega=1.0, kappa=1.0)


def reference_drive(kappa: float, gamma_a: float) -> SystemParams:
    """The reference drive (Omega = 2.9, Delta = 14, lambda_c = 2.86) with
    cavity decay ``kappa`` and spontaneous decay ``gamma_a``."""
    return SystemParams(delta=REFERENCE_DELTA, lambda_c=REFERENCE_LAMBDA_C, omega=REFERENCE_OMEGA,
                        kappa=kappa, gamma_a=gamma_a)


def reference_noise_params(lambda_over_gamma_a: float) -> SystemParams:
    """Reference-drive params with spontaneous decay lambda_c/gamma_a as given
    and kappa pinned to the reported cavity (lambda_c/250)."""
    if lambda_over_gamma_a <= 0:
        raise ValueError(f"lambda_c/gamma_a must be positive, got {lambda_over_gamma_a}")
    return reference_drive(REFERENCE_LAMBDA_C / EXPERIMENTAL_KAPPA_RATIO, REFERENCE_LAMBDA_C / lambda_over_gamma_a)


@dataclass(frozen=True)
class FidelityEstimates:
    """Both documented three-subsystem fidelity estimators plus diagnostics."""

    subsystem_fidelity: float
    product_fidelity: float
    network_fidelity: float
    accepted_probability: float


def master_equation_estimates(params: SystemParams) -> FidelityEstimates:
    """Both fidelity estimators at the operating time, which read the noisy
    unit as its emitted block M = [[P_L, C], [conj(C), P_R]] over (eL, eR),
    from ``emitted_block``.

    Estimator a is sqrt(sum(M)/4), sum(M)/4 being the overlap of the
    (gL + gR)/sqrt2 input's output with (|eL,1,0> + |eR,0,1>)/sqrt2.  For
    estimator b each atom's |e_p><e_q| becomes M[p, q] |e_p><e_q|, so the
    noisy state of accepted pattern k is the Schur product p_k rho_k * M^(x3)
    with the lossless protocol's conditional state rho_k, as
    ``heralded_states`` gives it with perfect detectors.
    """
    block = emitted_block(params, params.operating_time)
    f_sub = math.sqrt(max(float(block.sum().real) / 4.0, 0.0))

    report, conditional, kept = heralded_states(EvolutionCoefficients(0.0, 1.0), 1.0)
    weights = np.array([report.probability(pattern) for pattern in report.conditional_states])
    noisy = weights[:, None, None] * conditional * np.kron(np.kron(block, block), block)
    _, fids = _corrected_fidelities(noisy, kept)
    probability_acc = float(np.trace(noisy, axis1=1, axis2=2).real.sum())
    network_fidelity = float(fids.sum()) / probability_acc if probability_acc > 0 else 0.0
    return FidelityEstimates(
        subsystem_fidelity=f_sub,
        product_fidelity=f_sub**3,
        network_fidelity=network_fidelity,
        accepted_probability=probability_acc,
    )

