"""Named self-validation checks runnable from the command line.

Each check returns a :class:`CheckResult`; the ``validate`` CLI command runs
the whole battery and reports the first failure by name.  The checks accept
injected params or layouts so corrupted configurations can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import SweepSpec, params_for_eta_over_kappa, pd_sweep
from .atom_cavity import SystemParams
from .detection import _PATTERN_SETS, DETECTORS, _pattern_weights
from .hilbert import HilbertSpace, Operator, propagator, tol
from .photonics import (
    DEFAULT_LAYOUT,
    NetworkLayout,
    max_amplitude_deviation,
    reference_output_state,
)
from .protocol import network_state, transfer_coefficients

DEFAULT_CHECK_PARAMS = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_propagator_unitarity() -> CheckResult:
    """exp(-iHt) of Hermitian generators must be unitary."""
    rng = np.random.default_rng(7)
    worst = 0.0
    space = HilbertSpace.of(("sys", 6))
    for t in (0.1, 3.0, 1e3):
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = Operator(space, (raw + raw.conj().T) / 2.0, hermitian=True)
        u = propagator(h, t).elements
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - np.eye(6)))))
    return CheckResult("propagator-unitarity", worst < tol(1e-10), f"max |U^dag U - I| = {worst:.3e}")


def check_povm_completeness() -> CheckResult:
    """The pattern weights detection applies must form a POVM: for every
    occupation with at most two photons per detector (the most any network
    output holds), each weight lies in [0, 1] and the 64 weights sum to 1."""
    counts = np.indices((3,) * len(DETECTORS)).reshape(len(DETECTORS), -1).T
    worst, in_range = 0.0, True
    for eta_d in (0.0, 0.3, 0.7, 1.0):
        weights = _pattern_weights(counts, eta_d, _PATTERN_SETS)
        in_range &= bool(weights.min() >= 0.0 and weights.max() <= 1.0)
        worst = max(worst, float(np.max(np.abs(weights.sum(axis=0) - 1.0))))
    return CheckResult("povm-completeness", in_range and worst < tol(1e-14),
                       f"pattern weights in [0, 1]: {in_range}; max |sum over patterns - 1| = {worst:.3e}")


def check_network_reference_state(layout: NetworkLayout = DEFAULT_LAYOUT,
                                  params: SystemParams = DEFAULT_CHECK_PARAMS) -> CheckResult:
    """The compiled network that ``run_protocol`` runs must reproduce the
    analytic post-network state term by term (up to one global phase)."""
    produced = network_state(transfer_coefficients(params), layout)
    deviation = max_amplitude_deviation(produced, reference_output_state())
    return CheckResult("network-reference-state", deviation < tol(1e-12),
                       f"max per-term amplitude deviation = {deviation:.3e}")


def check_decay_probability_identity() -> CheckResult:
    """Closed-form success probability vs (3/4)|beta'|^6 across a grid."""
    worst = 0.0
    for ratio in (10.0, 100.0):
        spec = SweepSpec("kappa_t", 1e-3, 3.0, 400, params_for_eta_over_kappa(ratio))
        for point in pd_sweep(spec):
            worst = max(worst, point.abs_difference / max(point.closed_form, 1e-300))
    return CheckResult("decay-probability-identity", worst < tol(1e-12),
                       f"max relative difference = {worst:.3e}")


def check_params_document(document: dict | None) -> CheckResult:
    """Parse a params document against the declared invariants."""
    if document is None:
        return CheckResult("params-invariants", True, "no params supplied; defaults valid by construction")
    try:
        SystemParams.from_json_dict(document)
    except (ValueError, TypeError) as exc:
        return CheckResult("params-invariants", False, str(exc))
    return CheckResult("params-invariants", True, "params valid")


def run_all_checks(params_document: dict | None = None,
                   layout: NetworkLayout = DEFAULT_LAYOUT) -> list[CheckResult]:
    """The full invariant battery; the network check always runs at the ideal
    operating point regardless of the supplied params document."""
    return [
        check_propagator_unitarity(),
        check_povm_completeness(),
        check_network_reference_state(layout=layout),
        check_decay_probability_identity(),
        check_params_document(params_document),
    ]
