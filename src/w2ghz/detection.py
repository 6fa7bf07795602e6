"""Non-number-resolving photon detection with finite efficiency.

Each output mode feeds a pair of detectors, one per linear polarization.  A
detector with efficiency eta_d misses each photon independently, so the
no-click element on a slot holding k photons weighs (1 - eta_d)^k and the
click element weighs the complement.  Dark counts are neglected.

A run is accepted when every output mode fires exactly one of its two
detectors; the parity of fired V detectors then decides which of the two
maximally entangled three-atom states the atoms collapse to.  Everything
else (double clicks, silent modes) is rejected.

``measure`` and ``enumerate_outcomes`` return state objects and a report;
``detect_amplitudes``, run by ``run_protocol`` and the estimators, arrays only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .atom_cavity import EFFECTIVE_LEVELS, EMITTED_LEVELS, GROUND_LEVELS
from .hilbert import DensityMatrix, HilbertSpace
from .photonics import DETECTOR_SLOTS, OUTPUT_MODES, JointAtomPhotonState

DETECTORS = tuple(f"D{mode}{pol}" for mode, pol in DETECTOR_SLOTS)
_DETECTOR_SLOT = dict(zip(DETECTORS, DETECTOR_SLOTS))
_SLOT_INDEX = {slot: index for index, slot in enumerate(DETECTOR_SLOTS)}


class OutcomeClass(Enum):
    GHZ_PLUS = "GHZ_PLUS"
    GHZ_MINUS = "GHZ_MINUS"
    REJECT = "REJECT"


@dataclass(frozen=True)
class ClickPattern:
    """A subset of the six detectors that fired."""

    fired: frozenset[str]

    def __post_init__(self):
        unknown = set(self.fired) - set(DETECTORS)
        if unknown:
            raise ValueError(f"unknown detector name(s) {sorted(unknown)}; valid: {DETECTORS}")
        object.__setattr__(self, "fired", frozenset(self.fired))

    @classmethod
    def of(cls, *names: str) -> "ClickPattern":
        return cls(frozenset(names))

    @property
    def sorted_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.fired))

    @property
    def v_count(self) -> int:
        return sum(1 for name in self.fired if name.endswith("V"))


def all_patterns() -> list[ClickPattern]:
    """The complete exclusive outcome algebra: all 2^6 click subsets."""
    out = []
    for n in range(len(DETECTORS) + 1):
        for combo in itertools.combinations(DETECTORS, n):
            out.append(ClickPattern.of(*combo))
    return out


def classify_pattern(pattern: ClickPattern) -> OutcomeClass:
    """Accepted patterns fire exactly one detector per output mode; an odd
    number of fired V detectors signals the (+) entangled class, an even
    number the (-) class.  Everything else is rejected."""
    for mode in OUTPUT_MODES:
        fired_here = [name for name in pattern.fired if _DETECTOR_SLOT[name][0] == mode]
        if len(fired_here) != 1:
            return OutcomeClass.REJECT
    return OutcomeClass.GHZ_PLUS if pattern.v_count % 2 == 1 else OutcomeClass.GHZ_MINUS


# The 64 patterns classified once.  Accepted ones fire three detectors, so
# their indices, like DETECTORS, run in ``sorted_names`` (report) order.
_PATTERNS = tuple(all_patterns())
_CLASSES = tuple(classify_pattern(pattern) for pattern in _PATTERNS)
_ACCEPTED_INDICES = tuple(i for i, outcome in enumerate(_CLASSES) if outcome is not OutcomeClass.REJECT)


def _infer_atom_basis(configs) -> tuple[str, ...]:
    levels = {level for config in configs for level in config}
    if levels <= set(EMITTED_LEVELS):
        return EMITTED_LEVELS
    if levels <= set(GROUND_LEVELS):
        return GROUND_LEVELS
    return EFFECTIVE_LEVELS


def atomic_space(atoms, basis=EMITTED_LEVELS) -> HilbertSpace:
    return HilbertSpace.of(*((atom, len(basis)) for atom in atoms))


def _firing_sets(patterns) -> np.ndarray:
    """Each pattern's fired detectors as the bits of an integer, detector d
    of DETECTORS at bit d: its row of ``_weight_table``."""
    return np.array([sum(1 << d for d, name in enumerate(DETECTORS) if name in pattern.fired)
                     for pattern in patterns], dtype=np.intp)


def _weight_table(counts: np.ndarray, eta_d: float) -> np.ndarray:
    """table[s, o]: the probability that occupation o, with counts[o]
    photons per detector in DETECTORS order, fires exactly the detectors in
    firing set s (see ``_firing_sets``), for all 2^6 sets.

    The POVM elements are diagonal in the occupation basis, so the weight is
    the product of the six detector factors, (1 - eta_d)^k for a silent slot
    with k photons and its complement for a fired one, multiplied one at a
    time in DETECTORS order so every entry rounds exactly as a scalar
    product would.  The table grows in place in one buffer: once the first
    d detectors fill its first 2^d rows, detector d's fired factor writes
    rows 2^d to 2^(d+1) and its silent factor scales the first 2^d.
    """
    off_power = np.array([1.0] + [(1.0 - eta_d) ** k for k in range(1, int(counts.max(initial=0)) + 1)])
    off = off_power[counts.T]
    fired = 1.0 - off
    table = np.empty((2 ** len(DETECTORS), len(counts)))
    table[0], table[1] = off[0], fired[0]
    for d in range(1, len(DETECTORS)):
        rows = 1 << d
        np.multiply(table[:rows], fired[d], out=table[rows:2 * rows])
        table[:rows] *= off[d]
    return table


# Each pattern's row of ``_weight_table``, in ``_PATTERNS`` order.
_PATTERN_SETS = _firing_sets(_PATTERNS)


def _detect(state: JointAtomPhotonState, firing_sets: np.ndarray, eta_d: float, keep) -> tuple[list, dict]:
    """Probabilities of the patterns with the given firing sets (see
    ``_firing_sets``) and the conditional atomic states of those whose index
    is in ``keep``.

    The pattern probability is the occupation-weighted squared amplitude,
    and the conditional state coherently combines atomic configurations that
    share an occupation.  Returns the probabilities as a list in
    ``firing_sets`` order and a dict from kept index to state; a kept
    pattern of zero probability gets no state.
    """
    if not 0.0 <= eta_d <= 1.0:
        raise ValueError(f"eta_d must lie in [0, 1], got {eta_d}")
    by_occupation: dict = {}
    for (config, occ), amp in state.terms.items():
        by_occupation.setdefault(occ, []).append((config, amp))
    groups = list(by_occupation.items())

    # Photons per (occupation, detector); slots no detector watches stay unseen.
    counts = np.zeros((len(groups), len(DETECTORS)), dtype=np.intp)
    for row, (occ, _) in enumerate(groups):
        for slot, count in occ:
            if slot in _SLOT_INDEX:
                counts[row, _SLOT_INDEX[slot]] = count
    weights = _weight_table(counts, eta_d)[firing_sets]

    probabilities = np.zeros(len(firing_sets))
    for row, (_, members) in enumerate(groups):
        for _, amp in members:
            probabilities = probabilities + weights[:, row] * abs(amp) ** 2

    states = {}
    for index in keep:
        probability = float(probabilities[index])
        if probability <= 0.0:
            continue
        weighted: dict = {}
        for row, (_, members) in enumerate(groups):
            w = float(weights[index, row])
            if w == 0.0:
                continue
            for (c1, a1), (c2, a2) in itertools.product(members, members):
                weighted[(c1, c2)] = weighted.get((c1, c2), 0.0) + w * a1 * np.conj(a2)
        configs = {c for pair in weighted for c in pair}
        basis = _infer_atom_basis(configs)
        space = atomic_space(state.atoms, basis)
        flat = {c: space.basis_index(*(basis.index(level) for level in c)) for c in configs}
        rho = np.zeros((space.total_dim, space.total_dim), dtype=np.complex128)
        for (c1, c2), value in weighted.items():
            rho[flat[c1], flat[c2]] += value
        states[index] = DensityMatrix(space, rho / probability, normalized=True)
    return [float(p) for p in probabilities], states


def measure(state: JointAtomPhotonState, pattern: ClickPattern, eta_d: float):
    """Probability of a click pattern and the conditional atomic state.

    A zero-probability pattern returns (0.0, None) rather than failing on
    normalization.
    """
    (probability,), states = _detect(state, _firing_sets([pattern]), eta_d, keep=[0])
    return probability, states.get(0)


@dataclass(frozen=True)
class DetectionReport:
    """Full outcome distribution over the 2^6 click patterns.

    ``pattern_probabilities`` sums to the squared norm of the measured state
    (1 for a normalized input).  Conditional states are stored for accepted
    patterns with non-zero probability.
    """

    pattern_probabilities: dict
    conditional_states: dict
    total_success_probability: float

    def probability(self, pattern: ClickPattern) -> float:
        return self.pattern_probabilities.get(pattern, 0.0)


def _report(probabilities: list, conditionals: dict) -> DetectionReport:
    # Added one by one: sum() compensates rounding from Python 3.12 on.
    success = 0.0
    for i in _ACCEPTED_INDICES:
        success += probabilities[i]
    return DetectionReport(dict(zip(_PATTERNS, probabilities)), conditionals, success)


def enumerate_outcomes(state: JointAtomPhotonState, eta_d: float) -> DetectionReport:
    """Evaluate every click pattern of the exclusive outcome algebra in one
    pass, building conditional states only for the accepted patterns."""
    probabilities, states = _detect(state, _PATTERN_SETS, eta_d, keep=_ACCEPTED_INDICES)
    return _report(probabilities, {_PATTERNS[i]: rho for i, rho in states.items()})


def detect_amplitudes(psi: np.ndarray, counts: np.ndarray, eta_d: float,
                      emitted_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Detection of the state sum_{c,o} psi[c, o] |c>|o>, c running over the
    64 configurations of three atoms in the four-level (EFFECTIVE_LEVELS)
    basis and o over occupations with counts[o] photons per detector.

    The weight table is contracted once with the occupation weights and its
    64 sums are picked in pattern order.  An accepted pattern fires all three
    modes, so only the ``emitted_rows``, where every atom emitted (in
    emitted-level basis order), carry weight for it.  Returns arrays only:
    the 64 pattern probabilities in ``_PATTERNS`` order, the unvalidated
    (k, 8, 8) stack of the conditional states over the emitted levels of the
    accepted patterns with p > 0, and the ``_PATTERNS`` index of each row.
    """
    if not 0.0 <= eta_d <= 1.0:
        raise ValueError(f"eta_d must lie in [0, 1], got {eta_d}")
    table = _weight_table(counts, eta_d)
    probabilities = (table @ (np.abs(psi) ** 2).sum(axis=0))[_PATTERN_SETS]
    kept = [i for i in _ACCEPTED_INDICES if probabilities[i] > 0.0]
    sub = psi[emitted_rows]
    stack = ((sub * table[_PATTERN_SETS[kept], None, :]) @ sub.conj().T) / probabilities[kept, None, None]
    return probabilities, stack, kept
