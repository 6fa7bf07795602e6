"""Test-only reference pipeline: the transfer amplitudes as the two closed
forms they were first derived in; the cavity interaction and the photon
network written stage by stage and term by term; detection as a loop that
weighs every occupation pattern by pattern; and the classes, the sign flip
and the fidelity written out by hand.  It shares no code with the compiled
route in ``w2ghz`` it checks: ``tests/test_api.py`` walks every ``w2ghz``
name this module reads through the package, and the walk must reach neither
``network_map``, ``decay_coefficients``, the detection table and its
classes, nor the views built on them.  With it come the helpers that check
that route: the analytic post-network state, the accepted patterns, the
lossless success probability 3 eta_d^3/4 and the two GHZ-class target
states.

The analytic state's rows, hand-written data, are read from
``checks._REFERENCE_ROWS`` and expanded into photon occupations here.  The
import of ``checks`` builds that module's own reference arrays with its own
expansion, which shares no code with ``network_map``
(``tests/test_api.py::test_validate_reference_shares_no_code_with_the_route``)."""

import itertools
import math

import numpy as np

from w2ghz.atom_cavity import EFFECTIVE_LEVELS, EMITTED_LEVELS, GROUND_LEVELS, SystemParams
from w2ghz.checks import _REFERENCE_ROWS
from w2ghz.detection import DETECTORS, ClickPattern, DetectionReport, OutcomeClass, all_patterns
from w2ghz.dynamics import EvolutionCoefficients, _split, _times
from w2ghz.hilbert import DensityMatrix, HilbertSpace, StateVector
from w2ghz.photonics import (
    ATOMS,
    DEFAULT_LAYOUT,
    OUTPUT_MODES,
    JointAtomPhotonState,
    NetworkLayout,
)
from w2ghz.protocol import apply_hadamard_pulses, ghz_target, prepare_w_state


def lossless_coefficients(params: SystemParams, t: float) -> EvolutionCoefficients:
    """Closed-form transfer amplitudes for the lossless cavity (kappa ignored).

    With S = lambda_c^2 + Omega^2 and theta = S*t/Delta:

        alpha = (lambda_c^2 + Omega^2 e^{i theta}) / S
        beta  = lambda_c*Omega (e^{i theta} - 1) / S
    """
    _times(t)
    s = params.lambda_c**2 + params.omega**2
    theta = s * t / params.delta
    phase = np.exp(1j * theta)
    alpha = (params.lambda_c**2 + params.omega**2 * phase) / s
    beta = params.lambda_c * params.omega * (phase - 1.0) / s
    return EvolutionCoefficients(complex(alpha), complex(beta))


def _series_sinhc(x):
    x2 = x * x
    return 1.0 + x2 / 6.0 + x2 * x2 / 120.0


def _sinhc(x):
    """sinh(x)/x, series-expanded near the removable singularity at 0."""
    return _split(abs(x) < 1e-6, _series_sinhc, lambda y: np.sinh(y) / y, x)


def symmetric_decay_coefficients(params: SystemParams, t) -> EvolutionCoefficients:
    """Closed-form transfer amplitudes with cavity decay (no-jump evolution).

    Derived for the symmetric drive lambda_c = Omega.  With
    eta = lambda_c^2/Delta, phi = sqrt(kappa^2 - 4 eta^2) and
    varphi = i eta - kappa/2:

        alpha' = [phi cosh(phi t/2) + kappa sinh(phi t/2)] e^{varphi t} / phi
        beta'  = i eta (e^{phi t} - 1) e^{t (varphi - phi/2)} / phi

    Both expressions are evaluated through sinh(x)/x so the kappa = 2*eta
    degeneracy (phi -> 0) is continuous.  In the overdamped regime (phi real)
    cosh and sinh overflow from phi t/2 ~ 710 while the envelope e^{-kappa t/2}
    decays faster, so there the exponents are combined first:
    e^{-kappa t/2} sinh(x)/x = e^{x - kappa t/2} (1 - e^{-2x})/(2x).
    ``t`` is a time or an array of times.
    """
    if not math.isclose(params.lambda_c, params.omega, rel_tol=1e-12, abs_tol=0.0):
        raise ValueError("the symmetric-drive closed form needs lambda_c == omega")
    ts = _times(t)
    eta = params.lambda_c**2 / params.delta
    phi = complex(np.sqrt(complex(params.kappa**2 - 4.0 * eta**2)))
    varphi = 1j * eta - params.kappa / 2.0
    if phi.real > 0.0:
        x = phi.real * ts / 2.0
        half_kt = params.kappa * ts / 2.0
        grow = np.exp(x - half_kt)
        sc = _split(x > 0.0, lambda y: -np.expm1(-2.0 * y) / (2.0 * y), np.ones_like, x)
        phase = np.cos(eta * ts) + 1j * np.sin(eta * ts)
        alpha = (0.5 * (grow + np.exp(-x - half_kt)) + half_kt * grow * sc) * phase
        beta = 1j * eta * ts * grow * sc * phase
    else:
        x = phi * ts / 2.0
        envelope = np.exp(varphi * ts)
        sc = _sinhc(x)
        alpha = (np.cosh(x) + (params.kappa * ts / 2.0) * sc) * envelope
        beta = 1j * eta * ts * sc * envelope
    if isinstance(ts, float):
        return EvolutionCoefficients(complex(alpha), complex(beta))
    return EvolutionCoefficients(alpha, beta)


def reference_coefficients(params: SystemParams, t=None) -> EvolutionCoefficients:
    """The closed form that covers ``params``: lossless for kappa = 0, the
    symmetric-drive decaying form otherwise; t defaults to the operating time."""
    if t is None:
        t = params.operating_time
    if params.kappa > 0.0:
        return symmetric_decay_coefficients(params, t)
    return lossless_coefficients(params, t)


# The cavity (source mode) of each atom.
SOURCE_OF_ATOM = {"a": 1, "b": 2, "c": 3}
ATOM_OF_SOURCE = {mode: atom for atom, mode in SOURCE_OF_ATOM.items()}


def map_single_photons(state: JointAtomPhotonState, slot_map) -> JointAtomPhotonState:
    """Relabel every occupied slot through ``slot_map`` (amplitudes unchanged);
    distinct slots mapped onto one target accumulate occupation."""
    entries = []
    for (config, occ), amp in state.terms.items():
        new_occ: dict = {}
        for slot, count in occ:
            target = slot_map(slot)
            new_occ[target] = new_occ.get(target, 0) + count
        entries.append((config, new_occ, amp))
    return JointAtomPhotonState.from_terms(state.atoms, entries)


def staged_cavity_interaction(state, coefficients) -> JointAtomPhotonState:
    """g_j -> alpha |g_j, vacuum> + beta |e_j, one j photon>, branch by branch
    over every nonzero configuration of the ground-qubit state."""
    entries = []
    for flat, amp in enumerate(state.amplitudes):
        if amp == 0.0:
            continue
        branches = [((), {}, amp)]
        for atom, level_idx in zip(ATOMS, np.unravel_index(flat, state.space.dims)):
            photon = (SOURCE_OF_ATOM[atom], "L" if level_idx == 0 else "R")
            grown = []
            for levels, occ, b_amp in branches:
                grown.append((levels + (GROUND_LEVELS[level_idx],), occ, b_amp * coefficients.alpha))
                grown.append((levels + (EMITTED_LEVELS[level_idx],), {**occ, photon: 1}, b_amp * coefficients.beta))
            branches = grown
        entries.extend(branches)
    return JointAtomPhotonState.from_terms(ATOMS, entries)


def emit_and_qwp(state: JointAtomPhotonState) -> JointAtomPhotonState:
    """Quarter-wave plates: left-circular cavity photons become V, right-circular H."""
    return map_single_photons(state, lambda slot: (slot[0], "V" if slot[1] == "L" else "H"))


def apply_pbs_routing(state: JointAtomPhotonState, layout: NetworkLayout = DEFAULT_LAYOUT) -> JointAtomPhotonState:
    """Beam splitters: each photon moves from its source mode to the output
    mode the layout gives its atom and polarization (no reflection phase)."""
    return map_single_photons(state, lambda slot: (layout.route(ATOM_OF_SOURCE[slot[0]], slot[1]), slot[1]))


# Half-wave plate action per photon: |H> -> (|H>+|V>)/sqrt2, |V> -> (|H>-|V>)/sqrt2.
# Sector maps on the (n_H, n_V) occupation basis of one spatial mode, derived
# from the creation-operator images; the two-photon block carries the bosonic
# sqrt(2) factors and is an involution, like the single-photon block.
_SQ2 = 1.0 / math.sqrt(2.0)
_HWP_SECTORS = {
    (0, 0): {(0, 0): 1.0},
    (1, 0): {(1, 0): _SQ2, (0, 1): _SQ2},
    (0, 1): {(1, 0): _SQ2, (0, 1): -_SQ2},
    (2, 0): {(2, 0): 0.5, (1, 1): _SQ2, (0, 2): 0.5},
    (1, 1): {(2, 0): _SQ2, (0, 2): -_SQ2},
    (0, 2): {(2, 0): 0.5, (1, 1): -_SQ2, (0, 2): 0.5},
}


def apply_hwp(state: JointAtomPhotonState, modes=OUTPUT_MODES) -> JointAtomPhotonState:
    """Apply the half-wave plate mixing to every listed spatial mode."""
    entries = []
    for (config, occ), amp in state.terms.items():
        occ_map = dict(occ)
        branches = [(amp, {})]
        for mode in modes:
            sector = _HWP_SECTORS[(occ_map.pop((mode, "H"), 0), occ_map.pop((mode, "V"), 0))]
            branches = [(b_amp * coeff, {**b_occ, (mode, "H"): m_h, (mode, "V"): m_v})
                        for b_amp, b_occ in branches for (m_h, m_v), coeff in sector.items()]
        entries.extend((config, {**occ_map, **b_occ}, b_amp) for b_amp, b_occ in branches)
    return JointAtomPhotonState.from_terms(state.atoms, entries)


def staged_network(state: JointAtomPhotonState, layout: NetworkLayout = DEFAULT_LAYOUT) -> JointAtomPhotonState:
    """Quarter-wave plates, beam-splitter routing and half-wave plates in sequence."""
    return apply_hwp(apply_pbs_routing(emit_and_qwp(state), layout))


def norm_sq(state: JointAtomPhotonState) -> float:
    """Squared norm of a joint state: the sum of its squared amplitudes."""
    return float(sum(abs(a) ** 2 for a in state.terms.values()))


def photon_numbers(state: JointAtomPhotonState) -> set[int]:
    """Distinct total photon counts across terms."""
    return {sum(count for _, count in occ) for _, occ in state.terms} or {0}


def require_photon_number(state: JointAtomPhotonState, n: int) -> None:
    counts = photon_numbers(state)
    if counts != {n}:
        raise ValueError(f"expected exactly {n} photons in every term, found counts {sorted(counts)}")


def max_amplitude_deviation(state: JointAtomPhotonState, other: JointAtomPhotonState) -> float:
    """Largest per-term amplitude difference after removing the global phase
    fixed on the largest-amplitude term of the reference ``other``."""
    if not other.terms:
        return math.sqrt(norm_sq(state))
    anchor = max(other.terms, key=lambda k: abs(other.terms[k]))
    if anchor not in state.terms:
        return float("inf")
    phase = other.terms[anchor] / state.terms[anchor]
    phase /= abs(phase)
    keys = set(state.terms) | set(other.terms)
    return max(abs(state.terms.get(k, 0.0) * phase - other.terms.get(k, 0.0)) for k in keys)


def states_equal_up_to_phase(state: JointAtomPhotonState, other: JointAtomPhotonState,
                             atol: float = 1e-12) -> bool:
    """True when the two states differ by at most one global phase."""
    return max_amplitude_deviation(state, other) <= atol


def layout_of(routes: dict) -> NetworkLayout:
    """The layout of an {atom: {polarization: output mode}} table."""
    return NetworkLayout(tuple(((atom, pol), mode) for atom, pols in routes.items() for pol, mode in pols.items()))


# Two valid routings whose output is not the paper's post-network state:
# each atom's photons kept on its own output mode, and the paper's network
# with the V routes of atoms a and b swapped.
ALIGNED_LAYOUT = layout_of({"a": {"V": 7, "H": 7}, "b": {"V": 8, "H": 8}, "c": {"V": 9, "H": 9}})
CORRUPTED_LAYOUT = layout_of({"a": {"V": 8, "H": 9}, "b": {"V": 7, "H": 7}, "c": {"V": 9, "H": 8}})


def all_layouts() -> list[NetworkLayout]:
    """Every valid routing table: V and H routes each a bijection onto the
    output modes (36 in all)."""
    return [layout_of({atom: {"V": v_perm[i], "H": h_perm[i]} for i, atom in enumerate(ATOMS)})
            for v_perm in itertools.permutations(OUTPUT_MODES)
            for h_perm in itertools.permutations(OUTPUT_MODES)]


def _photon_product(photons) -> dict:
    """The detector-slot occupations of a product of photons (mode, sign),
    each (|H_mode> + sign |V_mode>)/sqrt2, with their amplitudes: every
    choice of one polarization per photon, summed per occupation and scaled
    by sqrt(n!) per slot for the stacked creation operators.  Exact zeros
    (two photons cancelling on one mode) are left out."""
    amplitudes: dict = {}
    for pols in itertools.product("HV", repeat=len(photons)):
        occupation: dict = {}
        amp = 1.0
        for (mode, sign), pol in zip(photons, pols):
            occupation[(mode, pol)] = occupation.get((mode, pol), 0) + 1
            amp *= _SQ2 if pol == "H" else sign * _SQ2
        key = tuple(sorted(occupation.items()))
        amplitudes[key] = amplitudes.get(key, 0.0) + amp
    return {key: amp * math.prod(math.sqrt(math.factorial(n)) for _, n in key)
            for key, amp in amplitudes.items() if amp != 0.0}


def reference_output_state() -> JointAtomPhotonState:
    """The analytic post-network state that ``validate`` holds the compiled
    network to: the rows of ``checks._REFERENCE_ROWS``, eight atomic
    configurations with coefficients {3,3,1,1,1,1,1,1}/(2 sqrt 6) up to
    sign, each attached to a product of (|H> +- |V>)/sqrt2 photons on the
    output modes, expanded here photon by photon."""
    return JointAtomPhotonState.from_terms(ATOMS, (
        (config, dict(occupation), coeff * (1.0 / (2.0 * math.sqrt(6.0))) * amp)
        for coeff, config, photons in _REFERENCE_ROWS for occupation, amp in _photon_product(photons).items()))


def search_routing_layouts(pipeline_state: JointAtomPhotonState, atol: float = 1e-12) -> list[NetworkLayout]:
    """The valid layouts whose staged network turns the pipeline input into
    the analytic reference post-network state."""
    reference = reference_output_state()
    return [layout for layout in all_layouts()
            if states_equal_up_to_phase(staged_network(pipeline_state, layout), reference, atol=atol)]


# Accepted detector triples and their class, as fixed by the protocol.
PLUS_TRIPLES = [{"D7H", "D8H", "D9V"}, {"D7H", "D8V", "D9H"},
                {"D7V", "D8H", "D9H"}, {"D7V", "D8V", "D9V"}]
MINUS_TRIPLES = [{"D7H", "D8H", "D9H"}, {"D7H", "D8V", "D9V"},
                 {"D7V", "D8H", "D9V"}, {"D7V", "D8V", "D9H"}]


def pattern_class(pattern: ClickPattern) -> OutcomeClass:
    """The class of a click pattern, looked up in the listed triples."""
    if set(pattern.fired) in PLUS_TRIPLES:
        return OutcomeClass.GHZ_PLUS
    if set(pattern.fired) in MINUS_TRIPLES:
        return OutcomeClass.GHZ_MINUS
    return OutcomeClass.REJECT


def accepted_patterns() -> list[ClickPattern]:
    """The click patterns detection accepts, in ``all_patterns`` order."""
    return [p for p in all_patterns() if pattern_class(p) is not OutcomeClass.REJECT]


def _level_basis(configs) -> tuple[str, ...]:
    """The emitted pair, the ground pair, or all four levels: the first that
    holds every level of ``configs``."""
    levels = {level for config in configs for level in config}
    for basis in (EMITTED_LEVELS, GROUND_LEVELS):
        if levels <= set(basis):
            return basis
    return EFFECTIVE_LEVELS


def reference_measure(state, pattern, eta_d):
    """The per-pattern loop the one-pass kernel replaced, kept as its oracle:
    each pattern regroups the terms and weighs every occupation on its own.
    Returns the pattern probability and the conditional atomic state, or
    (0.0, None) for a pattern that cannot fire."""
    slots = {name: (int(name[1]), name[2]) for name in DETECTORS}

    def pattern_weight(occupation):
        counts = {slot: count for slot, count in occupation}
        weight = 1.0
        for name in DETECTORS:
            k = counts.get(slots[name], 0)
            p_off = (1.0 - eta_d) ** k if k else 1.0
            weight *= (1.0 - p_off) if name in pattern.fired else p_off
            if weight == 0.0:
                return 0.0
        return weight

    by_occupation: dict = {}
    for (config, occ), amp in state.terms.items():
        by_occupation.setdefault(occ, []).append((config, amp))
    probability = 0.0
    weighted: dict = {}
    for occ, members in by_occupation.items():
        w = pattern_weight(occ)
        if w == 0.0:
            continue
        for config, amp in members:
            probability += w * abs(amp) ** 2
        for (c1, a1), (c2, a2) in itertools.product(members, members):
            weighted[(c1, c2)] = weighted.get((c1, c2), 0.0) + w * a1 * np.conj(a2)
    if probability <= 0.0:
        return 0.0, None
    configs = {c for pair in weighted for c in pair}
    basis = _level_basis(configs)
    space = HilbertSpace.of(*((atom, len(basis)) for atom in state.atoms))
    rho = np.zeros((space.total_dim, space.total_dim), dtype=np.complex128)
    for (c1, c2), value in weighted.items():
        i = space.basis_index(*(basis.index(level) for level in c1))
        j = space.basis_index(*(basis.index(level) for level in c2))
        rho[i, j] += value
    return probability, DensityMatrix(space, rho / probability, normalized=True)


def staged_detection(state: JointAtomPhotonState, eta_d: float) -> DetectionReport:
    """Every click pattern measured one at a time, in ``all_patterns``
    order: the probabilities, the conditional states of the accepted
    patterns that can fire, and the accepted probabilities added in order."""
    probabilities, conditionals, success = {}, {}, 0.0
    for pattern in all_patterns():
        probability, rho = reference_measure(state, pattern, eta_d)
        probabilities[pattern] = probability
        if pattern_class(pattern) is not OutcomeClass.REJECT:
            success += probability
            if rho is not None:
                conditionals[pattern] = rho
    return DetectionReport(probabilities, conditionals, success)


# +1 or -1 on each emitted-level configuration of the three atoms (last atom
# fastest): -1 where atom a is in eL.
_ATOM_A_EL_SIGNS = np.array([-1.0 if config[0] == "eL" else 1.0
                             for config in itertools.product(EMITTED_LEVELS, repeat=len(ATOMS))])


def corrected_final(rho: DensityMatrix, outcome: OutcomeClass) -> DensityMatrix:
    """The sign flip of atom a's eL component on a (-) class state, then the
    relabeling eL -> gL, eR -> gR onto the ground qubits."""
    elements = rho.elements
    if outcome is OutcomeClass.GHZ_MINUS:
        elements = elements * np.outer(_ATOM_A_EL_SIGNS, _ATOM_A_EL_SIGNS)
    return DensityMatrix(ghz_target().space, elements, normalized=rho.normalized)


def staged_run(params, layout, t=None):
    """run_protocol's fields from the staged pipeline: the branch-by-branch
    cavity interaction, the staged network, the per-pattern detection loop,
    then the listed class, the sign flip, relabeling and GHZ overlap per
    accepted pattern in sorted order."""
    pulsed = apply_hadamard_pulses(prepare_w_state())
    joint = staged_cavity_interaction(pulsed, reference_coefficients(params, t))
    report = staged_detection(staged_network(joint, layout), params.eta_d)
    target = ghz_target().amplitudes
    results = []
    success = fidelity_acc = 0.0
    for pattern in sorted(report.conditional_states, key=lambda p: p.sorted_names):
        outcome = pattern_class(pattern)
        probability = report.probability(pattern)
        conditional = report.conditional_states[pattern]
        final = corrected_final(conditional, outcome)
        f = float(np.vdot(target, final.elements @ target).real)
        results.append((pattern, outcome, probability, conditional, final, f))
        success += probability
        fidelity_acc += probability * f
    return report, results, success, fidelity_acc / success if success > 0 else 0.0


def lossless_heralded(layout: NetworkLayout = DEFAULT_LAYOUT) -> list:
    """(probability, conditional state over the emitted levels, class) of
    each accepted pattern of the lossless protocol with every atom emitted
    and perfect detectors, from the staged pipeline on ``layout``."""
    joint = staged_cavity_interaction(apply_hadamard_pulses(prepare_w_state()), EvolutionCoefficients(0.0, 1.0))
    report = staged_detection(staged_network(joint, layout), 1.0)
    return [(report.probability(pattern), rho, pattern_class(pattern))
            for pattern, rho in report.conditional_states.items()]


def success_probability_ideal(eta_d: float) -> float:
    """Total accepted-pattern probability of the lossless protocol:
    3 eta_d^3 / 4, each of the three photons seen with probability eta_d."""
    return 3.0 * eta_d**3 / 4.0


def ghz_pair_states(space: HilbertSpace) -> tuple[StateVector, StateVector]:
    """The two maximally entangled all-atoms-alike states over the emitted
    basis: (|eL eL eL> + |eR eR eR>)/sqrt2 and (-|eL eL eL> + |eR eR eR>)/sqrt2."""
    n = len(space.dims)
    plus = np.zeros(space.total_dim, dtype=np.complex128)
    minus = np.zeros(space.total_dim, dtype=np.complex128)
    lo = space.basis_index(*([0] * n))
    hi = space.basis_index(*([1] * n))
    plus[lo] = plus[hi] = 1.0 / math.sqrt(2.0)
    minus[lo] = -1.0 / math.sqrt(2.0)
    minus[hi] = 1.0 / math.sqrt(2.0)
    return StateVector(space, plus), StateVector(space, minus)
