"""Simulation of converting a three-atom W state into a GHZ state by
interference and detection of cavity-emitted polarized photons."""

from .analysis import (
    CurvePoint,
    FidelityEstimates,
    SweepSpec,
    fidelity_surface,
    master_equation_estimates,
    pd_closed_form,
    pd_sweep,
    reference_noise_params,
)
from .atom_cavity import (
    SystemParams,
    collapse_operators,
    full_hamiltonian,
)
from .detection import (
    ClickPattern,
    DetectionReport,
    OutcomeClass,
    classify_pattern,
    enumerate_outcomes,
    measure,
    success_probability_ideal,
)
from .dynamics import (
    EvolutionCoefficients,
    IntegratorConfig,
    compare_full_vs_effective,
    decay_coefficients,
)
from .hilbert import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    StateVector,
    fidelity,
)
from .photonics import (
    DEFAULT_LAYOUT,
    JointAtomPhotonState,
    NetworkLayout,
    full_network,
)
from .protocol import (
    ProtocolResult,
    ProtocolRun,
    apply_hadamard_pulses,
    cavity_interaction,
    ghz_target,
    prepare_w_state,
    raman_mapping,
    run_protocol,
    sign_correction,
)

__version__ = "0.1.0"

__all__ = [
    "ClickPattern",
    "CurvePoint",
    "DensityMatrix",
    "DetectionReport",
    "DEFAULT_LAYOUT",
    "EvolutionCoefficients",
    "FidelityEstimates",
    "SweepSpec",
    "HilbertSpace",
    "IntegratorConfig",
    "JointAtomPhotonState",
    "NetworkLayout",
    "Operator",
    "OutcomeClass",
    "ProtocolResult",
    "ProtocolRun",
    "StateVector",
    "SystemParams",
    "apply_hadamard_pulses",
    "cavity_interaction",
    "classify_pattern",
    "collapse_operators",
    "compare_full_vs_effective",
    "decay_coefficients",
    "enumerate_outcomes",
    "fidelity",
    "fidelity_surface",
    "full_hamiltonian",
    "full_network",
    "ghz_target",
    "master_equation_estimates",
    "measure",
    "pd_closed_form",
    "pd_sweep",
    "prepare_w_state",
    "raman_mapping",
    "reference_noise_params",
    "run_protocol",
    "sign_correction",
    "success_probability_ideal",
]
