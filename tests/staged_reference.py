"""Test-only helpers over the term-by-term (dict) pipeline stages, which the
compiled protocol route is checked against."""

import itertools

from w2ghz.detection import classify_pattern, enumerate_outcomes
from w2ghz.hilbert import fidelity
from w2ghz.photonics import (
    ATOMS,
    OUTPUT_MODES,
    JointAtomPhotonState,
    NetworkLayout,
    full_network,
    max_amplitude_deviation,
    reference_output_state,
)
from w2ghz.protocol import (
    apply_hadamard_pulses,
    cavity_interaction,
    ghz_target,
    prepare_w_state,
    raman_mapping,
    sign_correction,
)


def photon_numbers(state: JointAtomPhotonState) -> set[int]:
    """Distinct total photon counts across terms."""
    return {sum(count for _, count in occ) for _, occ in state.terms} or {0}


def require_photon_number(state: JointAtomPhotonState, n: int) -> None:
    counts = photon_numbers(state)
    if counts != {n}:
        raise ValueError(f"expected exactly {n} photons in every term, found counts {sorted(counts)}")


def states_equal_up_to_phase(state: JointAtomPhotonState, other: JointAtomPhotonState,
                             atol: float = 1e-12) -> bool:
    """True when the two states differ by at most one global phase."""
    return max_amplitude_deviation(state, other) <= atol


def all_layouts() -> list[NetworkLayout]:
    """Every valid routing table: V and H routes each a bijection onto the
    output modes (36 in all)."""
    return [NetworkLayout.from_dict({atom: {"V": v_perm[i], "H": h_perm[i]} for i, atom in enumerate(ATOMS)})
            for v_perm in itertools.permutations(OUTPUT_MODES)
            for h_perm in itertools.permutations(OUTPUT_MODES)]


def search_routing_layouts(pipeline_state: JointAtomPhotonState, atol: float = 1e-12) -> list[NetworkLayout]:
    """The valid layouts whose network turns the pipeline input into the
    analytic reference post-network state."""
    reference = reference_output_state()
    return [layout for layout in all_layouts()
            if states_equal_up_to_phase(full_network(pipeline_state, layout), reference, atol=atol)]


def staged_run(params, layout, t=None):
    """run_protocol's fields from the staged pipeline: cavity_interaction,
    full_network, enumerate_outcomes, then sign correction, relabeling and
    fidelity per accepted pattern in sorted order."""
    joint = cavity_interaction(apply_hadamard_pulses(prepare_w_state()), params, t)
    report = enumerate_outcomes(full_network(joint, layout, allow_vacuum=True), params.eta_d)
    results = []
    success = fidelity_acc = 0.0
    for pattern in sorted(report.conditional_states, key=lambda p: p.sorted_names):
        outcome = classify_pattern(pattern)
        probability = report.probability(pattern)
        conditional = report.conditional_states[pattern]
        final = raman_mapping(sign_correction(conditional, outcome))
        f = fidelity(final, ghz_target())
        results.append((pattern, outcome, probability, conditional, final, f))
        success += probability
        fidelity_acc += probability * f
    return report, results, success, fidelity_acc / success if success > 0 else 0.0
