"""Polarized-photon propagation through the wave-plate / beam-splitter network.

Photons leaving the three cavities are tracked as occupation numbers per
(spatial mode, polarization) slot attached to each atomic configuration.
Circular cavity polarizations are written "L"/"R"; after the quarter-wave
plates the free photons carry linear polarizations "V"/"H".  The polarizing
beam splitters deterministically reroute photons by polarization, and the
half-wave plates mix H and V on each output mode.

Occupation amplitudes follow bosonic creation-operator conventions: stacking
two photons in one slot contributes the usual sqrt(2) factor, which is what
makes every element transformation an exact isometry (two photons meeting on
one mode interfere Hong-Ou-Mandel style into |2,0> - |0,2>).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

SOURCE_MODES = (1, 2, 3)
OUTPUT_MODES = (7, 8, 9)
ATOMS = ("a", "b", "c")
ATOM_TO_SOURCE = {"a": 1, "b": 2, "c": 3}
SOURCE_TO_ATOM = {1: "a", 2: "b", 3: "c"}

# Amplitudes below this are treated as exact zeros when assembling states
# (absorbs rounding residue such as cos(pi) != -1 at the operating point).
AMPLITUDE_PRUNE_TOL = 1e-14

Occupation = tuple[tuple[tuple[int, str], int], ...]
AtomConfig = tuple[str, ...]


def _canonical_occupation(occupation) -> Occupation:
    items = []
    for slot, count in dict(occupation).items():
        mode, pol = slot
        if count < 0:
            raise ValueError(f"negative photon count {count} on slot {slot}")
        if count > 0:
            items.append(((int(mode), str(pol)), int(count)))
    return tuple(sorted(items))


@dataclass(frozen=True)
class JointAtomPhotonState:
    """Superposition over (atomic configuration, photonic occupation) pairs.

    ``terms`` maps (atom levels per atom, canonical occupation tuple) to a
    complex amplitude.  The mapping is not mutated after construction.
    """

    atoms: tuple[str, ...]
    terms: dict

    @classmethod
    def from_terms(cls, atoms, entries) -> "JointAtomPhotonState":
        """Assemble from (atom_config, occupation mapping, amplitude) triples,
        merging duplicates and dropping numerically-zero amplitudes."""
        merged: dict = {}
        for config, occupation, amp in entries:
            key = (tuple(config), _canonical_occupation(occupation))
            merged[key] = merged.get(key, 0.0) + complex(amp)
        pruned = {k: v for k, v in merged.items() if abs(v) > AMPLITUDE_PRUNE_TOL}
        return cls(tuple(atoms), pruned)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.terms.values()))

    def photon_numbers(self) -> set[int]:
        """Distinct total photon counts across terms."""
        return {sum(count for _, count in occ) for _, occ in self.terms} or {0}

    def require_photon_number(self, n: int) -> None:
        counts = self.photon_numbers()
        if counts != {n}:
            raise ValueError(f"expected exactly {n} photons in every term, found counts {sorted(counts)}")

    def map_single_photons(self, slot_map) -> "JointAtomPhotonState":
        """Relabel every occupied slot through ``slot_map`` (deterministic,
        amplitude-preserving).  Collisions of distinct slots onto one target
        accumulate occupation."""
        entries = []
        for (config, occ), amp in self.terms.items():
            new_occ: dict = {}
            for slot, count in occ:
                target = slot_map(slot)
                new_occ[target] = new_occ.get(target, 0) + count
            entries.append((config, new_occ, amp))
        return JointAtomPhotonState.from_terms(self.atoms, entries)


@dataclass(frozen=True)
class NetworkLayout:
    """Deterministic routing of each (source atom, linear polarization) pair
    to one of the three output spatial modes.

    Validity requires every output mode to receive exactly one V route and
    one H route, so each output carries at most one photon per polarization
    before the half-wave plates.
    """

    routing: tuple[tuple[tuple[str, str], int], ...]

    def __post_init__(self):
        table = dict(self.routing)
        expected_keys = {(atom, pol) for atom in ATOMS for pol in ("V", "H")}
        if set(table) != expected_keys:
            raise ValueError(f"routing must cover exactly {sorted(expected_keys)}, got {sorted(table)}")
        for pol in ("V", "H"):
            targets = sorted(table[(atom, pol)] for atom in ATOMS)
            if targets != sorted(OUTPUT_MODES):
                raise ValueError(f"{pol} routes must hit each output mode once, got {targets}")

    @classmethod
    def from_dict(cls, mapping: dict) -> "NetworkLayout":
        items = []
        for atom, pols in mapping.items():
            for pol, mode in pols.items():
                items.append(((str(atom), str(pol)), int(mode)))
        return cls(tuple(sorted(items)))

    def route(self, atom: str, pol: str) -> int:
        return dict(self.routing)[(atom, pol)]

    def to_json_dict(self) -> dict:
        out: dict = {atom: {} for atom in ATOMS}
        for (atom, pol), mode in self.routing:
            out[atom][pol] = mode
        return out

    @classmethod
    def from_json(cls, text: str) -> "NetworkLayout":
        return cls.from_dict(json.loads(text))


# H photons from each cavity join the V output of the cyclically preceding
# cavity; this is the unique wiring consistent with the interference pattern
# produced by the protocol (see search_routing_layouts).
DEFAULT_LAYOUT = NetworkLayout.from_dict({
    "a": {"V": 7, "H": 9},
    "b": {"V": 8, "H": 7},
    "c": {"V": 9, "H": 8},
})


def emit_and_qwp(state: JointAtomPhotonState, allow_vacuum: bool = False) -> JointAtomPhotonState:
    """Convert cavity occupations into free-propagating linearly polarized
    photons: left-circular becomes V, right-circular becomes H, amplitudes
    unchanged.

    Unless ``allow_vacuum`` is set, every term must carry exactly one photon
    per source cavity (the lossless operating point); terms with an empty
    cavity are rejected as an operating-time violation.
    """
    if not allow_vacuum:
        for (config, occ), amp in state.terms.items():
            occupied = {mode for (mode, _), _ in occ}
            if occupied != set(SOURCE_MODES):
                raise ValueError(
                    f"term {config} has photon content only on modes {sorted(occupied)}; "
                    "every cavity must hold one photon at the operating time"
                )

    def qwp(slot):
        mode, pol = slot
        if mode not in SOURCE_MODES or pol not in ("L", "R"):
            raise ValueError(f"slot {slot} is not a cavity-polarization slot")
        return (mode, "V" if pol == "L" else "H")

    return state.map_single_photons(qwp)


def apply_pbs_routing(state: JointAtomPhotonState, layout: NetworkLayout = DEFAULT_LAYOUT) -> JointAtomPhotonState:
    """Relabel photons from source modes to output modes per the layout;
    polarization and amplitudes are unchanged (no reflection phase)."""

    def route(slot):
        mode, pol = slot
        if mode not in SOURCE_MODES or pol not in ("V", "H"):
            raise ValueError(f"photon on unrouted slot {slot}")
        return (layout.route(SOURCE_TO_ATOM[mode], pol), pol)

    return state.map_single_photons(route)


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
    modes = tuple(modes)
    entries = []
    for (config, occ), amp in state.terms.items():
        occ_map = dict(occ)
        branches = [(amp, {})]
        handled = set()
        for mode in modes:
            n_h = occ_map.get((mode, "H"), 0)
            n_v = occ_map.get((mode, "V"), 0)
            handled.update({(mode, "H"), (mode, "V")})
            sector = _HWP_SECTORS.get((n_h, n_v))
            if sector is None:
                raise ValueError(f"mode {mode} holds {n_h + n_v} photons; beyond the two-photon sector")
            new_branches = []
            for b_amp, b_occ in branches:
                for (m_h, m_v), coeff in sector.items():
                    grown = dict(b_occ)
                    if m_h:
                        grown[(mode, "H")] = m_h
                    if m_v:
                        grown[(mode, "V")] = m_v
                    new_branches.append((b_amp * coeff, grown))
            branches = new_branches
        passthrough = {slot: count for slot, count in occ_map.items() if slot not in handled}
        for b_amp, b_occ in branches:
            merged = dict(passthrough)
            merged.update(b_occ)
            entries.append((config, merged, b_amp))
    return JointAtomPhotonState.from_terms(state.atoms, entries)


def full_network(state: JointAtomPhotonState, layout: NetworkLayout = DEFAULT_LAYOUT,
                 allow_vacuum: bool = False) -> JointAtomPhotonState:
    """Quarter-wave plates, beam-splitter routing and half-wave plates in
    sequence: the complete path from cavity emission to the detector slots."""
    return apply_hwp(apply_pbs_routing(emit_and_qwp(state, allow_vacuum=allow_vacuum), layout))


def _expand_superposition_photons(photons) -> dict:
    """Occupation amplitudes of a product of single-photon superposition
    states, each given as (mode, sign) meaning (|H_mode> + sign |V_mode>)/sqrt2.

    Implemented by polynomial multiplication of creation operators followed by
    the sqrt(n!) occupation normalization, independently of the wave-plate
    sector maps used by the network elements.
    """
    poly = {(): 1.0}
    for mode, sign in photons:
        new_poly: dict = {}
        for monomial, coeff in poly.items():
            for pol, weight in (("H", _SQ2), ("V", sign * _SQ2)):
                grown = tuple(sorted(monomial + ((mode, pol),)))
                new_poly[grown] = new_poly.get(grown, 0.0) + coeff * weight
        poly = new_poly
    amplitudes: dict = {}
    for monomial, coeff in poly.items():
        occ: dict = {}
        for slot in monomial:
            occ[slot] = occ.get(slot, 0) + 1
        factor = 1.0
        for count in occ.values():
            factor *= math.sqrt(math.factorial(count))
        amplitudes[_canonical_occupation(occ)] = amplitudes.get(_canonical_occupation(occ), 0.0) + coeff * factor
    return amplitudes


def reference_output_state() -> JointAtomPhotonState:
    """Analytic post-network state of the standard three-atom pipeline,
    expanded term by term from the known interference pattern.

    Serves as an implementation-independent structural reference for
    ``full_network``: eight atomic configurations with coefficient magnitudes
    {3,3,1,1,1,1,1,1}/(2 sqrt 6) and fixed signs, each attached to a product
    of (|H> +- |V>)/sqrt2 photons on the output modes.
    """
    scale = 1.0 / (2.0 * math.sqrt(6.0))
    rows = [
        (-3, ("eL", "eL", "eL"), ((7, -1), (8, -1), (9, -1))),
        (+3, ("eR", "eR", "eR"), ((7, +1), (8, +1), (9, +1))),
        (-1, ("eL", "eL", "eR"), ((7, -1), (8, -1), (8, +1))),
        (-1, ("eL", "eR", "eL"), ((7, -1), (7, +1), (9, -1))),
        (+1, ("eL", "eR", "eR"), ((7, -1), (7, +1), (8, +1))),
        (-1, ("eR", "eL", "eL"), ((8, -1), (9, -1), (9, +1))),
        (+1, ("eR", "eL", "eR"), ((8, -1), (8, +1), (9, +1))),
        (+1, ("eR", "eR", "eL"), ((7, +1), (9, -1), (9, +1))),
    ]
    entries = []
    for coeff, config, photons in rows:
        for occ, amp in _expand_superposition_photons(photons).items():
            entries.append((config, dict(occ), coeff * scale * amp))
    return JointAtomPhotonState.from_terms(ATOMS, entries)


def states_equal_up_to_phase(state: JointAtomPhotonState, other: JointAtomPhotonState,
                             atol: float = 1e-12) -> bool:
    """True when the two states differ by at most one global phase."""
    return max_amplitude_deviation(state, other) <= atol


def max_amplitude_deviation(state: JointAtomPhotonState, other: JointAtomPhotonState) -> float:
    """Largest per-term amplitude difference after removing the global phase
    fixed on the largest-amplitude term of the reference ``other``."""
    if not other.terms:
        return math.sqrt(state.norm_sq())
    anchor = max(other.terms, key=lambda k: abs(other.terms[k]))
    if anchor not in state.terms:
        return float("inf")
    phase = other.terms[anchor] / state.terms[anchor]
    phase /= abs(phase)
    keys = set(state.terms) | set(other.terms)
    return max(abs(state.terms.get(k, 0.0) * phase - other.terms.get(k, 0.0)) for k in keys)


def search_routing_layouts(pipeline_state: JointAtomPhotonState,
                           reference: JointAtomPhotonState | None = None,
                           atol: float = 1e-12) -> list[NetworkLayout]:
    """Exhaustively search all valid routing tables (V and H routes each a
    bijection onto the output modes) for those reproducing the reference
    post-network state from the given pipeline input."""
    if reference is None:
        reference = reference_output_state()
    matches = []
    for v_perm in itertools.permutations(OUTPUT_MODES):
        for h_perm in itertools.permutations(OUTPUT_MODES):
            layout = NetworkLayout.from_dict({
                atom: {"V": v_perm[i], "H": h_perm[i]} for i, atom in enumerate(ATOMS)
            })
            candidate = full_network(pipeline_state, layout)
            if states_equal_up_to_phase(candidate, reference, atol=atol):
                matches.append(layout)
    return matches
