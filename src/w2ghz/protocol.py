"""End-to-end pipeline converting the three-atom W state into a GHZ state.

Stages: prepare the W state over the ground qubits, apply a Hadamard pulse to
every atom, let each atom exchange its ground amplitude for an emitted-photon
component inside its cavity, send the photons through the wave-plate network,
post-select on the accepted detector patterns, flip one sign when the (-)
class fired, and finally map the emitted levels back onto ground levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atom_cavity import EFFECTIVE_LEVELS, EMITTED_LEVELS, GROUND_LEVELS, SystemParams
from .detection import (
    ClickPattern,
    DetectionReport,
    OutcomeClass,
    atomic_space,
    classify_pattern,
    enumerate_outcomes,
)
from .dynamics import EvolutionCoefficients, decay_coefficients, ideal_coefficients
from .hilbert import DensityMatrix, HilbertSpace, StateVector, fidelity
from .photonics import ATOM_TO_SOURCE, ATOMS, DEFAULT_LAYOUT, JointAtomPhotonState, NetworkLayout, full_network


def ground_state_space() -> HilbertSpace:
    """Three atoms, one ground qubit (gL, gR) each."""
    return atomic_space(ATOMS, GROUND_LEVELS)


def prepare_w_state() -> StateVector:
    """(|gL gL gR> + |gL gR gL> + |gR gL gL>) / sqrt3."""
    space = ground_state_space()
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    for config in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        amps[space.basis_index(*config)] = 1.0 / math.sqrt(3.0)
    return StateVector(space, amps)


def ghz_target() -> StateVector:
    """(|gL gL gL> + |gR gR gR>) / sqrt2, the protocol's final target."""
    space = ground_state_space()
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[space.basis_index(0, 0, 0)] = 1.0 / math.sqrt(2.0)
    amps[space.basis_index(1, 1, 1)] = 1.0 / math.sqrt(2.0)
    return StateVector(space, amps)


def _three_atom(first: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """The read-only three-atom operator first ⊗ rest ⊗ rest."""
    out = np.kron(np.kron(first, rest), rest)
    out.setflags(write=False)
    return out


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
_HADAMARD_GATE = _three_atom(_HADAMARD, _HADAMARD)
# Sign flip of the first atom's eL component.
_SIGN_FLIP = _three_atom(np.diag([-1.0, 1.0]).astype(np.complex128), np.eye(2, dtype=np.complex128))
# Isometry from the emitted levels of three four-level atoms to their
# relabeled two-level form.
_EMITTED_SELECT = np.eye(len(EFFECTIVE_LEVELS), dtype=np.complex128)[
    :, [EFFECTIVE_LEVELS.index(level) for level in EMITTED_LEVELS]]
_EMITTED_ISOMETRY = _three_atom(_EMITTED_SELECT, _EMITTED_SELECT)


def apply_hadamard_pulses(state: StateVector) -> StateVector:
    """Per-atom pulse gL -> (gL+gR)/sqrt2, gR -> (gL-gR)/sqrt2 (an involution)."""
    if state.space.dims != (2,) * len(ATOMS):
        raise ValueError(f"Hadamard pulses act on three ground qubits; got dims {state.space.dims}")
    return StateVector(state.space, _HADAMARD_GATE @ state.amplitudes, normalized=state.normalized)


def transfer_coefficients(params: SystemParams, t: float | None = None) -> EvolutionCoefficients:
    """Ground/emitted amplitudes at time t (default: the operating time);
    lossless closed form for kappa = 0, decaying closed form otherwise."""
    if t is None:
        t = params.operating_time
    if params.kappa > 0.0:
        return decay_coefficients(params, t)
    return ideal_coefficients(params, t)


def cavity_interaction(state: StateVector, params: SystemParams, t: float | None = None,
                       coefficients: EvolutionCoefficients | None = None) -> JointAtomPhotonState:
    """Entangle each atom with its cavity: every ground level gains an
    emitted branch, g_j -> alpha |g_j, vacuum> + beta |e_j, one j photon>.

    With decay the squared norm of the result drops to
    (|alpha|^2 + |beta|^2)^3; the missing weight is the emitted-then-lost
    (jump) branch, which the caller accounts to the rejected outcomes.
    """
    if state.space != ground_state_space():
        raise ValueError("cavity interaction expects the three-atom ground-qubit state")
    coeffs = coefficients if coefficients is not None else transfer_coefficients(params, t)
    alpha, beta = coeffs.alpha, coeffs.beta

    entries = []
    dims = state.space.dims
    for flat, amp in enumerate(state.amplitudes):
        if amp == 0.0:
            continue
        config = np.unravel_index(flat, dims)
        branches = [((), {}, amp)]
        for atom, level_idx in zip(ATOMS, config):
            ground = GROUND_LEVELS[level_idx]
            emitted = EMITTED_LEVELS[level_idx]
            pol = "L" if level_idx == 0 else "R"
            source = ATOM_TO_SOURCE[atom]
            grown = []
            for levels, occ, b_amp in branches:
                grown.append((levels + (ground,), occ, b_amp * alpha))
                with_photon = dict(occ)
                with_photon[(source, pol)] = 1
                grown.append((levels + (emitted,), with_photon, b_amp * beta))
            branches = grown
        entries.extend(branches)
    return JointAtomPhotonState.from_terms(ATOMS, entries)


def sign_correction(rho: DensityMatrix, outcome: OutcomeClass) -> DensityMatrix:
    """Map a (-) class state onto the (+) form by flipping the sign of the
    first atom's eL component; (+) class states pass through unchanged."""
    if outcome is OutcomeClass.REJECT:
        raise ValueError("sign correction is only defined for accepted outcomes")
    if outcome is OutcomeClass.GHZ_PLUS:
        return rho
    if rho.space.dims != (2,) * len(ATOMS):
        raise ValueError(f"sign correction expects three two-level atoms, got dims {rho.space.dims}")
    return DensityMatrix(rho.space, _SIGN_FLIP @ rho.elements @ _SIGN_FLIP, normalized=rho.normalized)


def raman_mapping(rho: DensityMatrix) -> DensityMatrix:
    """Relabel the emitted levels onto ground levels (eL -> gL, eR -> gR).

    Two-level inputs are already confined to the emitted pair and map as an
    exact relabeling; four-level inputs must have (numerically) no support
    outside the emitted block, which is then extracted.
    """
    if rho.space.dims == (2,) * len(ATOMS):
        return DensityMatrix(ground_state_space(), rho.elements, normalized=rho.normalized)
    if rho.space.dims == (4,) * len(ATOMS):
        block = _EMITTED_ISOMETRY.conj().T @ rho.elements @ _EMITTED_ISOMETRY
        outside = abs(rho.elements.trace() - block.trace())
        if outside > 1e-10:
            raise ValueError(f"support outside the emitted levels (weight {outside:.3e}) cannot be Raman-mapped")
        return DensityMatrix(ground_state_space(), block, normalized=rho.normalized)
    raise ValueError(f"Raman mapping expects three two- or four-level atoms, got dims {rho.space.dims}")


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one accepted click pattern: the collapsed atomic state, its
    corrected and relabeled final form, and the fidelity to the GHZ target."""

    pattern: ClickPattern
    outcome: OutcomeClass
    probability: float
    conditional: DensityMatrix
    final: DensityMatrix
    fidelity: float

    def __post_init__(self):
        if not -1e-12 <= self.probability <= 1.0 + 1e-12:
            raise ValueError(f"probability out of range: {self.probability}")
        if not -1e-12 <= self.fidelity <= 1.0 + 1e-12:
            raise ValueError(f"fidelity out of range: {self.fidelity}")


@dataclass(frozen=True)
class ProtocolRun:
    """Aggregate of a full protocol run over every accepted pattern."""

    params: SystemParams
    time: float
    results: tuple[ProtocolResult, ...]
    success_probability: float
    reject_probability: float
    fidelity: float
    report: DetectionReport

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "time": self.time,
            "success_probability": self.success_probability,
            "reject_probability": self.reject_probability,
            "fidelity": self.fidelity,
            "adiabatic_advisory": self.params.adiabatic_advisory,
            "patterns": [
                {
                    "detectors": list(r.pattern.sorted_names),
                    "class": r.outcome.value,
                    "probability": r.probability,
                    "fidelity": r.fidelity,
                }
                for r in self.results
            ],
        }


def run_protocol(params: SystemParams, layout: NetworkLayout = DEFAULT_LAYOUT,
                 t: float | None = None) -> ProtocolRun:
    """Run the complete pipeline and post-process every accepted pattern.

    The returned aggregate fidelity is the probability-weighted mean over
    accepted patterns; the reject probability absorbs in-algebra rejected
    patterns plus, for decaying dynamics, the photon-loss (jump) weight that
    never reaches the detectors.
    """
    if t is None:
        t = params.operating_time
    entangled = apply_hadamard_pulses(prepare_w_state())
    coeffs = transfer_coefficients(params, t)
    joint = cavity_interaction(entangled, params, coefficients=coeffs)
    # Incomplete transfer (decay, or an off-operating interaction time) leaves
    # vacuum branches; they can never fire all three modes and land in REJECT.
    network_state = full_network(joint, layout, allow_vacuum=abs(coeffs.alpha) > 1e-12)
    report = enumerate_outcomes(network_state, params.eta_d)

    target = ghz_target()
    results = []
    success = 0.0
    fidelity_acc = 0.0
    for pattern in sorted(report.conditional_states, key=lambda p: p.sorted_names):
        outcome = classify_pattern(pattern)
        probability = report.probability(pattern)
        conditional = report.conditional_states[pattern]
        final = raman_mapping(sign_correction(conditional, outcome))
        f = fidelity(final, target)
        results.append(ProtocolResult(pattern, outcome, probability, conditional, final, f))
        success += probability
        fidelity_acc += probability * f
    mean_fidelity = fidelity_acc / success if success > 0 else 0.0
    # 1 - success covers both in-algebra rejected patterns and, with decay,
    # the photon-loss weight missing from the surviving (no-jump) state.
    reject = max(0.0, 1.0 - success)
    return ProtocolRun(
        params=params,
        time=t,
        results=tuple(results),
        success_probability=success,
        reject_probability=reject,
        fidelity=mean_fidelity,
        report=report,
    )
