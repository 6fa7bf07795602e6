"""Polarized-photon propagation through the wave-plate / beam-splitter network.

Photons leaving the three cavities are tracked as occupation numbers per
(spatial mode, polarization) slot attached to each atomic configuration.
Circular cavity polarizations are written "L"/"R", and the detector slots
hold the linear polarizations "H"/"V" of the three output modes.

The network is passive linear optics: the quarter-wave plates, polarizing
beam splitters and half-wave plates each act on one photon.  So
``_mode_matrix`` states it once, as the 6x6 single-photon matrix from
(atom, L/R) to the detector slots, and every multi-photon amplitude follows
from it by the bosonic rule: stacking two photons in one slot contributes
the usual sqrt(2) factor, which keeps the map an exact isometry (two photons
meeting on one mode interfere Hong-Ou-Mandel style into |2,0> - |0,2>).

``network_map`` compiles that rule for one layout into a single linear map
from the 27 emission slots of the three cavities (each empty, or holding one
L or one R photon) to detector-slot occupations; the protocol runs on it,
and ``full_network`` is its term-by-term view.  Both are checked against the
element-by-element stages in ``tests/staged_reference.py``.
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
# matches the analytic state in ``checks``, and the one the protocol runs.
DEFAULT_LAYOUT = NetworkLayout(((("a", "V"), 7), (("a", "H"), 9), (("b", "V"), 8),
                                (("b", "H"), 7), (("c", "V"), 9), (("c", "H"), 8)))


def _mode_matrix(layout: NetworkLayout) -> np.ndarray:
    """The network's action on one photon: column 2a + p is where atom a's
    photon of circular polarization ("L", "R")[p] ends up, over
    DETECTOR_SLOTS.  The quarter-wave plate turns L into V and R into H,
    ``layout`` routes the photon to its output mode, and the half-wave plate
    there sends H to (H + V)/sqrt2 and V to (H - V)/sqrt2."""
    weight = 1.0 / math.sqrt(2.0)
    matrix = np.zeros((len(DETECTOR_SLOTS), 2 * len(ATOMS)))
    for a, atom in enumerate(ATOMS):
        for p, (pol, v_weight) in enumerate((("V", -weight), ("H", weight))):
            mode = layout.route(atom, pol)
            matrix[DETECTOR_SLOTS.index((mode, "H")), 2 * a + p] = weight
            matrix[DETECTOR_SLOTS.index((mode, "V")), 2 * a + p] = v_weight
    return matrix


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
    """Compile ``layout``'s network from its single-photon matrix T by the
    bosonic rule: an emission slot's photons enter columns i_1..i_k of T, and
    occupation n gets sqrt(prod n_o!) times the sum of prod_j T[o_j, i_j]
    over the ordered detector slots (o_1..o_k) with counts n, which is
    Perm(T[rows(n), inputs]) / sqrt(prod n_o!).  Only nonzero entries of T
    are visited, and exact zeros (photons cancelling on one mode) are left out.
    """
    outputs = [[(o, amp) for o, amp in enumerate(column) if amp != 0.0] for column in _mode_matrix(layout).T.tolist()]
    columns = []
    for emission in itertools.product(EMISSIONS, repeat=len(ATOMS)):
        inputs = [2 * a + ("L", "R").index(c) for a, c in enumerate(emission) if c is not None]
        sums: dict = {}
        for path in itertools.product(*(outputs[i] for i in inputs)):
            counts, amp = [0] * len(DETECTOR_SLOTS), 1.0
            for o, weight in path:
                counts[o] += 1
                amp *= weight
            sums[tuple(counts)] = sums.get(tuple(counts), 0.0) + amp
        columns.append({counts: amp * math.prod(math.sqrt(math.factorial(n)) for n in counts)
                        for counts, amp in sums.items() if amp != 0.0})
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
