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

``network_map`` compiles the whole network of one layout into a single
linear map from the 27 emission slots of the three cavities (each empty, or
holding one L or one R photon) to detector-slot occupations; the protocol
runs on it, and ``full_network`` is its term-by-term view.  Both are checked
against the element-by-element stages in ``tests/staged_reference.py``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

ATOMS = ("a", "b", "c")
# The cavity (source mode) of each atom, in ATOMS order.
SOURCE_MODES = (1, 2, 3)
OUTPUT_MODES = (7, 8, 9)
# The watched (output mode, linear polarization) slots, in detector order.
DETECTOR_SLOTS = tuple((mode, pol) for mode in OUTPUT_MODES for pol in ("H", "V"))
# What one cavity holds at emission: nothing, one L photon or one R photon.
EMISSIONS = (None, "L", "R")

# Amplitudes below this are treated as exact zeros when assembling states
# (absorbs rounding residue such as cos(pi) != -1 at the operating point).
AMPLITUDE_PRUNE_TOL = 1e-14

Occupation = tuple[tuple[tuple[int, str], int], ...]


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


@dataclass(frozen=True)
class NetworkLayout:
    """Deterministic routing of each (source atom, linear polarization) pair
    to one of the three output spatial modes.

    Validity requires every output mode to receive exactly one V route and
    one H route, so each output carries at most one photon per polarization
    before the half-wave plates.  The routing is kept sorted, so equal
    routes compare equal and share one compiled network.
    """

    routing: tuple[tuple[tuple[str, str], int], ...]

    def __post_init__(self):
        object.__setattr__(self, "routing", tuple(sorted(self.routing)))
        table = dict(self.routing)
        if len(table) != len(self.routing):
            raise ValueError(f"routing repeats an (atom, polarization) key: {self.routing}")
        expected_keys = {(atom, pol) for atom in ATOMS for pol in ("V", "H")}
        if set(table) != expected_keys:
            raise ValueError(f"routing must cover exactly {sorted(expected_keys)}, got {sorted(table)}")
        for pol in ("V", "H"):
            targets = sorted(table[(atom, pol)] for atom in ATOMS)
            if targets != sorted(OUTPUT_MODES):
                raise ValueError(f"{pol} routes must hit each output mode once, got {targets}")

    def route(self, atom: str, pol: str) -> int:
        return dict(self.routing)[(atom, pol)]


# H photons from each cavity join the V output of the cyclically preceding
# cavity; of the 36 valid layouts this is the only one whose network output
# matches reference_output_state, and the one the protocol runs.
DEFAULT_LAYOUT = NetworkLayout(((("a", "V"), 7), (("a", "H"), 9), (("b", "V"), 8),
                                (("b", "H"), 7), (("c", "V"), 9), (("c", "H"), 8)))


_SQ2 = 1.0 / math.sqrt(2.0)


def _expand_superposition_photons(photons) -> dict:
    """Occupation amplitudes of a product of single-photon superposition
    states, each given as (mode, sign) meaning (|H_mode> + sign |V_mode>)/sqrt2,
    keyed by the photon count of every slot in DETECTOR_SLOTS order; exact
    zeros (two photons cancelling on one mode) are left out.

    Implemented by polynomial multiplication of creation operators followed by
    the sqrt(n!) occupation normalization.
    """
    poly = {(0,) * len(DETECTOR_SLOTS): 1.0}
    for mode, sign in photons:
        new_poly: dict = {}
        for counts, coeff in poly.items():
            for pol, weight in (("H", _SQ2), ("V", sign * _SQ2)):
                grown = list(counts)
                grown[DETECTOR_SLOTS.index((mode, pol))] += 1
                key = tuple(grown)
                new_poly[key] = new_poly.get(key, 0.0) + coeff * weight
        poly = new_poly
    amplitudes: dict = {}
    for counts, coeff in poly.items():
        factor = 1.0
        for count in counts:
            factor *= math.sqrt(math.factorial(count))
        if coeff != 0.0:
            amplitudes[counts] = coeff * factor
    return amplitudes


# Per-photon element rules: the quarter-wave plate turns L into V and R into
# H, and the half-wave plate sends H to (H + V)/sqrt2 and V to (H - V)/sqrt2.
_QWP = {"L": "V", "R": "H"}
_HWP_SIGN = {"H": 1.0, "V": -1.0}


@dataclass(frozen=True)
class NetworkMap:
    """The network of one layout as a linear map.

    Column s of ``matrix`` (n_occ x 27) is the output state of emission slot
    s, the row-major index over ATOMS of each cavity's entry in EMISSIONS
    (last atom fastest); row o is the detector-slot occupation whose photon
    counts, in DETECTOR_SLOTS order, are ``counts[o]``.  Both arrays are
    read-only.
    """

    matrix: np.ndarray
    counts: np.ndarray


@functools.lru_cache(maxsize=None)  # keyed by layout; there are 36 valid ones
def network_map(layout: NetworkLayout) -> NetworkMap:
    """Compile the quarter-wave plates, beam-splitter routing and half-wave
    plates of ``layout`` into one map, photon by photon: each emitted photon
    passes the quarter-wave plate, is routed to its output mode, and becomes
    the half-wave plate's image there; the photons of one emission slot then
    multiply as creation operators, which keeps the two-photon sectors exact.
    """
    columns = []
    for emission in itertools.product(EMISSIONS, repeat=len(ATOMS)):
        photons = []
        for atom, circular in zip(ATOMS, emission):
            if circular is not None:
                pol = _QWP[circular]
                photons.append((layout.route(atom, pol), _HWP_SIGN[pol]))
        columns.append(_expand_superposition_photons(photons))
    occupations = sorted({counts for column in columns for counts in column})
    row = {counts: index for index, counts in enumerate(occupations)}
    matrix = np.zeros((len(occupations), len(columns)), dtype=np.complex128)
    for s, column in enumerate(columns):
        for counts, amp in column.items():
            matrix[row[counts], s] = amp
    counts = np.array(occupations, dtype=np.intp)
    matrix.setflags(write=False)
    counts.setflags(write=False)
    return NetworkMap(matrix, counts)


def full_network(state: JointAtomPhotonState, layout: NetworkLayout = DEFAULT_LAYOUT,
                 allow_vacuum: bool = False) -> JointAtomPhotonState:
    """The complete path from cavity emission to the detector slots, term by
    term: the cavity photons of each term (at most one L or R photon per
    source mode) name an emission slot, and that column of
    ``network_map(layout)`` is the term's output.

    Unless ``allow_vacuum`` is set, every term must carry one photon per
    cavity (the lossless operating point); a term with an empty cavity is
    rejected as an operating-time violation.
    """
    network = network_map(layout)
    entries = []
    for (config, occ), amp in state.terms.items():
        emission = dict.fromkeys(SOURCE_MODES)
        for slot, count in occ:
            mode, pol = slot
            if mode not in emission or pol not in ("L", "R"):
                raise ValueError(f"slot {slot} is not a cavity-polarization slot")
            if count > 1 or emission[mode] is not None:
                raise ValueError(f"term {config} holds more than one photon in cavity {mode}")
            emission[mode] = pol
        if not allow_vacuum and None in emission.values():
            occupied = sorted(mode for mode, pol in emission.items() if pol is not None)
            raise ValueError(f"term {config} has photon content only on modes {occupied}; "
                             "every cavity must hold one photon at the operating time")
        slot_index = np.ravel_multi_index([EMISSIONS.index(pol) for pol in emission.values()],
                                          (len(EMISSIONS),) * len(ATOMS))
        column = network.matrix[:, slot_index]
        for o in np.flatnonzero(column):
            entries.append((config, dict(zip(DETECTOR_SLOTS, network.counts[o])), amp * column[o]))
    return JointAtomPhotonState.from_terms(state.atoms, entries)


def reference_output_state() -> JointAtomPhotonState:
    """Analytic post-network state of the standard three-atom pipeline,
    expanded term by term from the known interference pattern.

    Serves as a structural reference for ``network_map`` and
    ``full_network`` that names no layout: eight atomic configurations with
    coefficient magnitudes
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
        for counts, amp in _expand_superposition_photons(photons).items():
            entries.append((config, dict(zip(DETECTOR_SLOTS, counts)), coeff * scale * amp))
    return JointAtomPhotonState.from_terms(ATOMS, entries)

