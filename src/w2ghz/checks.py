"""Named self-validation checks runnable from the command line.

Each check returns a :class:`CheckResult`; the ``validate`` CLI command runs
the whole battery and reports the first failure by name.  Every check but
params-invariants, which reads the params document, runs on fixed inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

import numpy as np

from .analysis import params_for_eta_over_kappa, pd_closed_form, pd_numeric
from .atom_cavity import SystemParams
from .detection import _PATTERN_SETS, DETECTORS, _weight_table
from .dynamics import decay_coefficients
from .hilbert import tol
from .photonics import DETECTOR_SLOTS, reference_output_state
from .protocol import _CONFIG_LEVELS, _network_amplitudes, transfer_coefficients

DEFAULT_CHECK_PARAMS = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0)

# The analytic post-network state as a table over the compiled route's axes:
# each term's configuration index, detector-slot photon counts and amplitude,
# and the first term of largest magnitude, whose phase the comparison fixes.
_REFERENCE = reference_output_state().terms
_REFERENCE_CONFIG = np.array([_CONFIG_LEVELS.index(config) for config, _ in _REFERENCE])
_REFERENCE_COUNTS = np.array([[dict(occupation).get(slot, 0) for slot in DETECTOR_SLOTS]
                              for _, occupation in _REFERENCE])
_REFERENCE_AMPS = np.array(list(_REFERENCE.values()))
_REFERENCE_ANCHOR = list(_REFERENCE).index(max(_REFERENCE, key=lambda k: abs(_REFERENCE[k])))
# Every occupation with at most two photons per detector, the most any
# network output holds.
_POVM_COUNTS = np.indices((3,) * len(DETECTORS)).reshape(len(DETECTORS), -1).T


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_transfer_norm() -> CheckResult:
    """The no-jump norm |alpha|^2 + |beta|^2 of the transfer amplitudes
    ``run_protocol`` runs, over seeded random drives and a time grid of three
    operating times: 1 to 1e-12 without cavity decay, and with it at most 1
    and non-increasing in t, to 1e-12.

    The drives come from the standard library's generator: numpy.random
    would add about 2-6 MB to the resident size of every process that runs
    this check, for a dozen numbers.
    """
    rng = random.Random(7)
    lossless = excess = rise = 0.0
    for _ in range(3):
        drive = SystemParams(delta=rng.uniform(2.0, 50.0), lambda_c=rng.uniform(0.1, 3.0),
                             omega=rng.uniform(0.1, 3.0))
        times = np.linspace(0.0, 3.0 * drive.operating_time, 61)
        weight = decay_coefficients(drive, times).weight
        lossless = max(lossless, float(np.max(np.abs(weight - 1.0))))
        weight = decay_coefficients(replace(drive, kappa=rng.uniform(0.01, 1.0)), times).weight
        excess = max(excess, float(np.max(weight)) - 1.0)
        rise = max(rise, float(np.max(np.diff(weight))))
    passed = lossless < tol(1e-12) and excess <= tol(1e-12) and rise <= tol(1e-12)
    return CheckResult("transfer-norm", passed,
                       f"max ||alpha|^2 + |beta|^2 - 1| at kappa = 0: {lossless:.3e}; "
                       f"with kappa > 0, max excess over 1: {excess:.3e}, max rise in t: {rise:.3e}")


def check_povm_completeness() -> CheckResult:
    """The pattern weights detection applies must form a POVM: for every
    occupation in ``_POVM_COUNTS``, each weight lies in [0, 1] and the 64
    weights sum to 1.  The checks read each efficiency's ``_weight_table``
    itself, and only the sum picks its rows, in pattern order (which fixes
    how it rounds), as a temporary: holding a 64-row copy in pattern order
    through the loop faults in 60% more pages."""
    worst, in_range = 0.0, True
    for eta_d in (0.0, 0.3, 0.7, 1.0):
        table = _weight_table(_POVM_COUNTS, eta_d)
        in_range &= bool(table.min() >= 0.0 and table.max() <= 1.0)
        worst = max(worst, float(np.max(np.abs(table[_PATTERN_SETS].sum(axis=0) - 1.0))))
    return CheckResult("povm-completeness", in_range and worst < tol(1e-14),
                       f"pattern weights in [0, 1]: {in_range}; max |sum over patterns - 1| = {worst:.3e}")


def network_reference_deviation() -> float:
    """Largest amplitude difference between the compiled network's output
    at the ideal operating point and the analytic post-network state over
    every (configuration, occupation) term, with the phase fixed on the
    reference's anchor term; a reference term the network cannot reach
    counts at its full magnitude, and an anchor it leaves empty gives inf."""
    psi, counts = _network_amplitudes(transfer_coefficients(DEFAULT_CHECK_PARAMS))
    match = (counts[:, None, :] == _REFERENCE_COUNTS).all(axis=2)  # occupation x reference term
    reached, column = match.any(axis=0), match.argmax(axis=0)
    anchor = complex(psi[_REFERENCE_CONFIG[_REFERENCE_ANCHOR], column[_REFERENCE_ANCHOR]])
    if not reached[_REFERENCE_ANCHOR] or anchor == 0:
        return math.inf
    phase = complex(_REFERENCE_AMPS[_REFERENCE_ANCHOR]) / anchor
    phase /= abs(phase)
    reference = np.zeros_like(psi)
    reference[_REFERENCE_CONFIG[reached], column[reached]] = _REFERENCE_AMPS[reached]
    return max(float(np.abs(psi * phase - reference).max()),
               float(np.abs(_REFERENCE_AMPS[~reached]).max(initial=0.0)))


def check_network_reference_state() -> CheckResult:
    """The compiled network that ``run_protocol`` runs must reproduce the
    analytic post-network state term by term (up to one global phase)."""
    deviation = network_reference_deviation()
    return CheckResult("network-reference-state", deviation < tol(1e-12),
                       f"max per-term amplitude deviation = {deviation:.3e}")


def check_decay_probability_identity() -> CheckResult:
    """Closed-form success probability vs (3/4)|beta'|^6 across a grid."""
    worst = 0.0
    kappa_t = np.linspace(1e-3, 3.0, 400)
    for ratio in (10.0, 100.0):
        params = params_for_eta_over_kappa(ratio)  # kappa = 1, so t = kappa*t
        closed = pd_closed_form(params, kappa_t)
        difference = np.abs(closed - pd_numeric(params, kappa_t))
        worst = max(worst, float(np.max(difference / np.maximum(closed, 1e-300))))
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


def run_all_checks(params_document: dict | None = None) -> list[CheckResult]:
    """The full invariant battery; the network check always runs at the ideal
    operating point regardless of the supplied params document."""
    return [
        check_transfer_norm(),
        check_povm_completeness(),
        check_network_reference_state(),
        check_decay_probability_identity(),
        check_params_document(params_document),
    ]
