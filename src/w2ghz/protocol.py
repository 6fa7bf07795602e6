"""End-to-end pipeline converting the three-atom W state into a GHZ state.

Stages: prepare the W state over the ground qubits, apply a Hadamard pulse to
every atom, let each atom exchange its ground amplitude for an emitted-photon
component inside its cavity, send the photons through the wave-plate network,
post-select on the accepted detector patterns, flip one sign when the (-)
class fired, and finally map the emitted levels back onto ground levels.

``run_protocol`` runs these stages as a few array products: the transfer
coefficients give the amplitude of each of the 64 configurations of three
four-level atoms (the Hadamard-W amplitude times alpha^(3-k) beta^k with k
atoms emitted), each configuration leaves one of the 27 emission slots, and
one product with ``network_map()``, the paper's one photon network
compiled, gives the amplitudes over detector occupations.  Detection, the
sign flip, the relabeling and the fidelities then act on stacks of 8 x 8
conditional states.
``cavity_interaction`` is the term-by-term view of the same configuration
table; the branch loop it is checked against is ``tests/staged_reference.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .atom_cavity import EFFECTIVE_LEVELS, GROUND_LEVELS, SystemParams
from .detection import _CLASSES, ClickPattern, DetectionReport, OutcomeClass, atomic_space, detect_amplitudes
from .dynamics import _MAX_PHASE, EvolutionCoefficients, _fast_rate, _require_resolved, _times, decay_coefficients
from .hilbert import DensityMatrix, HilbertSpace, StateVector, density_stack, fidelities
from .photonics import (
    AMPLITUDE_PRUNE_TOL,
    ATOMS,
    EMISSIONS,
    SOURCE_MODES,
    JointAtomPhotonState,
    network_map,
)


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


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
_HADAMARD_GATE = np.kron(np.kron(_HADAMARD, _HADAMARD), _HADAMARD)
_HADAMARD_GATE.setflags(write=False)
# Sign flip S rho S of the first atom's eL component, S = diag(-1, 1) ⊗ I ⊗ I,
# as the element-wise signs S_ii S_jj.
_FLIP_DIAGONAL = np.repeat([-1.0, 1.0], 4)
_FLIP_SIGNS = np.outer(_FLIP_DIAGONAL, _FLIP_DIAGONAL)
# Which patterns, by index into detection's table, herald the (-) class.
_MINUS = np.array([outcome is OutcomeClass.GHZ_MINUS for outcome in _CLASSES])


def apply_hadamard_pulses(state: StateVector) -> StateVector:
    """Per-atom pulse gL -> (gL+gR)/sqrt2, gR -> (gL-gR)/sqrt2 (an involution)."""
    if state.space.dims != (2,) * len(ATOMS):
        raise ValueError(f"Hadamard pulses act on three ground qubits; got dims {state.space.dims}")
    return StateVector(state.space, _HADAMARD_GATE @ state.amplitudes, normalized=state.normalized)


def transfer_coefficients(params: SystemParams, t: float | None = None) -> EvolutionCoefficients:
    """Ground/emitted amplitudes ``decay_coefficients`` gives at time t
    (default: the operating time)."""
    return decay_coefficients(params, params.operating_time if t is None else t)


# Each four-level atomic level as the ground qubit it came from and what it
# left in its cavity (an entry of EMISSIONS).
_LEVEL_ORIGIN = {"gL": (0, None), "gR": (1, None), "eL": (0, "L"), "eR": (1, "R")}
# The 64 configurations of three four-level atoms (EFFECTIVE_LEVELS, last atom
# fastest): the ground configuration each comes from, which atoms emitted,
# the photons they left in their cavities, and the emission slot of
# network_map that is.
_CONFIG_LEVELS = tuple(itertools.product(EFFECTIVE_LEVELS, repeat=len(ATOMS)))
_CONFIG_QUBIT = np.array([np.ravel_multi_index([_LEVEL_ORIGIN[level][0] for level in config], (2,) * len(ATOMS))
                          for config in _CONFIG_LEVELS])
_CONFIG_EMITTED = np.array([[_LEVEL_ORIGIN[level][1] is not None for level in config] for config in _CONFIG_LEVELS])
# In emitted-level basis order, as EMITTED_LEVELS keeps EFFECTIVE_LEVELS' order.
_CONFIG_ALL_EMITTED = np.flatnonzero(_CONFIG_EMITTED.all(axis=1))
_CONFIG_CAVITIES = tuple({(mode, _LEVEL_ORIGIN[level][1]): 1 for mode, level in zip(SOURCE_MODES, config)
                          if _LEVEL_ORIGIN[level][1] is not None} for config in _CONFIG_LEVELS)
_CONFIG_SLOT = np.array([np.ravel_multi_index([EMISSIONS.index(_LEVEL_ORIGIN[level][1]) for level in config],
                                              (len(EMISSIONS),) * len(ATOMS)) for config in _CONFIG_LEVELS])


def _configuration_amplitudes(ground: np.ndarray, coefficients: EvolutionCoefficients) -> np.ndarray:
    """Amplitude of each of the 64 configurations once the three-atom ground
    amplitudes ``ground`` have met the cavities: the amplitude of the ground
    configuration it comes from times alpha per atom left in its ground level
    and beta per atom that emitted."""
    factors = np.where(_CONFIG_EMITTED, coefficients.beta, coefficients.alpha)
    return ground[_CONFIG_QUBIT] * factors[:, 0] * factors[:, 1] * factors[:, 2]


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
    amps = _configuration_amplitudes(state.amplitudes, coeffs)
    return JointAtomPhotonState.from_terms(ATOMS, (
        (_CONFIG_LEVELS[c], _CONFIG_CAVITIES[c], amps[c]) for c in np.flatnonzero(amps)))


def sign_correction(rho: DensityMatrix, outcome: OutcomeClass) -> DensityMatrix:
    """Map a (-) class state onto the (+) form by flipping the sign of the
    first atom's eL component; (+) class states pass through unchanged."""
    if outcome is OutcomeClass.REJECT:
        raise ValueError("sign correction is only defined for accepted outcomes")
    if outcome is OutcomeClass.GHZ_PLUS:
        return rho
    if rho.space.dims != (2,) * len(ATOMS):
        raise ValueError(f"sign correction expects three two-level atoms, got dims {rho.space.dims}")
    return DensityMatrix(rho.space, rho.elements * _FLIP_SIGNS, normalized=rho.normalized)


def raman_mapping(rho: DensityMatrix) -> DensityMatrix:
    """Relabel the emitted levels onto ground levels (eL -> gL, eR -> gR): a
    state of three two-level atoms confined to the emitted pair keeps its
    elements and moves to the ground-qubit space."""
    if rho.space.dims != (2,) * len(ATOMS):
        raise ValueError(f"Raman mapping expects three two-level atoms, got dims {rho.space.dims}")
    return DensityMatrix(ground_state_space(), rho.elements, normalized=rho.normalized)


# The post-pulse state every run starts from, and the target it ends in.
_PULSED_W = apply_hadamard_pulses(prepare_w_state()).amplitudes
_GHZ = ghz_target().amplitudes


def _corrected_fidelities(stack: np.ndarray, kept: list) -> tuple[np.ndarray, np.ndarray]:
    """A (k, 8, 8) emitted-level stack, row r heralded by pattern kept[r] (an
    index into detection's table), with the (-) class rows flipped onto the
    (+) form, and each row's GHZ fidelity."""
    final = np.where(_MINUS[kept, None, None], stack * _FLIP_SIGNS, stack)
    return final, fidelities(final, _GHZ)


def _network_amplitudes(coefficients: EvolutionCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """psi[c, o], the amplitude of configuration c of the three four-level
    atoms with detector occupation o once the pulsed W state has met the
    cavities with the given transfer amplitudes and passed the paper's
    network, and the photon counts of each occupation.

    Terms of magnitude at most AMPLITUDE_PRUNE_TOL are exact zeros, as in the
    term-by-term views; no network entry exceeds 1 in magnitude, so the prune
    ``cavity_interaction`` applies to the configuration amplitudes first
    drops nothing more.
    """
    amps = _configuration_amplitudes(_PULSED_W, coefficients)
    network = network_map()
    psi = amps[:, None] * network.matrix.T[_CONFIG_SLOT]
    psi[np.abs(psi) <= AMPLITUDE_PRUNE_TOL] = 0.0
    return psi, network.counts


def heralded_states(coefficients: EvolutionCoefficients, eta_d: float) -> tuple[DetectionReport, np.ndarray, list]:
    """Detection report of the pulsed W state after the cavity interaction
    with the given transfer amplitudes and the network, the (k, 8, 8) stack
    of its conditional states over the emitted levels, and the index into
    detection's pattern table of each row (see ``detect_amplitudes``)."""
    psi, counts = _network_amplitudes(coefficients)
    return detect_amplitudes(psi, counts, eta_d, _CONFIG_ALL_EMITTED)


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


def require_modelled(params: SystemParams, t: float | None = None) -> float:
    """The interaction time t (default: the operating time) ``run_protocol``
    runs at these params, or ValueError where it does not model them: a
    nonzero ``gamma_a`` (it models cavity decay only), a drive whose light
    shifts lambda_c^2/Delta and Omega^2/Delta, or their sum, are past the
    float range, or a t at which the fast phase of ``decay_coefficients`` is
    past the float range or double resolution; at the operating time, where
    that phase is pi (1 + kappa/S), S the light-shift sum, the error names
    ``kappa``."""
    if params.gamma_a != 0.0:
        raise ValueError(f"field 'gamma_a': run_protocol models cavity decay only and needs "
                         f"gamma_a = 0, got {params.gamma_a}")
    shift_e, shift_g = params.light_shifts
    if not math.isfinite(shift_e + shift_g):
        raise ValueError(f"fields 'lambda_c', 'omega' and 'delta': the light shifts lambda_c^2/delta = "
                         f"{shift_e!r} and omega^2/delta = {shift_g!r} sum past the float range")
    if t is None:
        t = params.operating_time
        if not _fast_rate(params) * t <= _MAX_PHASE:
            raise ValueError(f"field 'kappa': kappa = {params.kappa!r} puts the fast phase (kappa + light shifts) * t "
                             f"at the operating time {t!r} past double resolution (2^50 rad)")
        return t
    _times(t)
    if _fast_rate(params) * t == math.inf:
        raise ValueError(f"t = {t!r} puts the fast phase (kappa + light shifts) * t past the float range")
    _require_resolved(params, t)
    return t


def run_protocol(params: SystemParams, t: float | None = None) -> ProtocolRun:
    """Run the complete pipeline and post-process every accepted pattern.

    Results come in report (``sorted_names``) order, their classes read from
    detection's table.  The returned aggregate fidelity is the
    probability-weighted mean over accepted patterns; the reject probability
    absorbs in-algebra rejected patterns plus, for decaying dynamics, the
    photon-loss (jump) weight that never reaches the detectors.  Spontaneous
    decay is not part of this model; ``require_modelled`` rejects the params
    it does not cover.
    """
    t = require_modelled(params, t)
    # Incomplete transfer (decay, or an off-operating interaction time) leaves
    # vacuum branches; they can never fire all three modes and land in REJECT.
    report, conditional, kept = heralded_states(transfer_coefficients(params, t), params.eta_d)
    final, fids = _corrected_fidelities(conditional, kept)
    # The Raman relabeling eL -> gL, eR -> gR keeps the elements, not the space.
    finals = density_stack(ground_state_space(), final)

    results = []
    fidelity_acc = 0.0
    for i, (pattern, rho), final_rho, fid in zip(kept, report.conditional_states.items(), finals, fids.tolist()):
        probability = report.probability(pattern)
        results.append(ProtocolResult(pattern, _CLASSES[i], probability, rho, final_rho, fid))
        fidelity_acc += probability * fid
    success = report.total_success_probability
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
