import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from staged_reference import (
    ALIGNED_LAYOUT,
    MINUS_TRIPLES,
    PLUS_TRIPLES,
    accepted_patterns,
    ghz_pair_states,
    norm_sq,
    reference_measure,
    success_probability_ideal,
)

from w2ghz.atom_cavity import SystemParams
from w2ghz.detection import (
    _ACCEPTED_INDICES,
    _CLASSES,
    _PATTERN_SETS,
    _PATTERNS,
    DETECTORS,
    ClickPattern,
    OutcomeClass,
    _weight_table,
    all_patterns,
    atomic_space,
    classify_pattern,
    enumerate_outcomes,
    measure,
)
from w2ghz.dynamics import EvolutionCoefficients
from w2ghz.hilbert import DensityMatrix, fidelity
from w2ghz.photonics import ATOMS, JointAtomPhotonState, full_network
from w2ghz.protocol import (
    _MINUS,
    apply_hadamard_pulses,
    cavity_interaction,
    heralded_states,
    prepare_w_state,
    transfer_coefficients,
)

IDEAL = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0)


def network_state():
    return full_network(cavity_interaction(apply_hadamard_pulses(prepare_w_state()), IDEAL))


def decaying_network_state(params: SystemParams, fraction: float = 1.0):
    """The network state of a decaying run at ``fraction`` of the operating
    time; vacuum branches remain, so conditional states span four levels."""
    coeffs = transfer_coefficients(params, params.operating_time * fraction)
    joint = cavity_interaction(apply_hadamard_pulses(prepare_w_state()), params, coefficients=coeffs)
    return full_network(joint, allow_vacuum=True)


DECAYING = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.004)
ORACLE_STATES = {
    "lossless": network_state,
    "decaying": lambda: decaying_network_state(DECAYING, fraction=0.8),
    "aligned-layout": lambda: decaying_network_state(DECAYING, fraction=0.8),
}
# The routing an oracle state runs on in place of the paper's, if another.
ORACLE_ROUTINGS = {"aligned-layout": ALIGNED_LAYOUT}


# Every occupation with 0-2 photons per detector, the most a network output
# holds, in DETECTORS order.
OCCUPATIONS = np.array(list(itertools.product(range(3), repeat=len(DETECTORS))), dtype=np.intp)


class TestPovm:
    """The pattern weight table detection applies is the six detectors' POVM."""

    def test_completeness_exact(self):
        # Exact where every detector factor is 0 or 1, to rounding elsewhere.
        for eta, tolerance in ((0.0, 0.0), (0.4, 1e-14), (1.0, 0.0)):
            weights = _weight_table(OCCUPATIONS, eta)[_PATTERN_SETS]
            assert np.all((weights >= 0.0) & (weights <= 1.0))
            assert np.max(np.abs(weights.sum(axis=0) - 1.0)) <= tolerance

    @pytest.mark.parametrize("occupations, eta", [
        (1, 0.0), (1, 1.0), (1, None), (37, 0.0), (37, 1.0), (37, None), (800, 0.0), (800, 1.0), (800, None),
    ])
    def test_weights_are_scalar_products(self, occupations, eta):
        # Each entry equals, bit for bit, the product of the six detector
        # factors multiplied one at a time in DETECTORS order, with the rows
        # in pattern order.
        rng = np.random.default_rng(occupations)
        eta = float(rng.random()) if eta is None else eta
        counts = rng.integers(0, 4, size=(occupations, len(DETECTORS)))
        off = [[(1.0 - eta) ** k for k in row] for row in counts.tolist()]
        expected = [[math.prod(1.0 - f if name in pattern.fired else f for name, f in zip(DETECTORS, row))
                     for row in off] for pattern in all_patterns()]
        weights = _weight_table(counts, eta)[_PATTERN_SETS]
        assert weights.shape == (len(expected), occupations)
        assert (weights == np.array(expected)).all()

    def test_perfect_detector_limit(self):
        # Each occupation fires exactly the detectors holding photons.
        weights = _weight_table(OCCUPATIONS, 1.0)[_PATTERN_SETS]
        fired = (OCCUPATIONS > 0) @ (1 << np.arange(len(DETECTORS)))
        assert np.array_equal(weights, (_PATTERN_SETS[:, None] == fired[None, :]).astype(float))

    def test_click_weights(self):
        eta = 0.35
        counts = np.zeros((3, len(DETECTORS)), dtype=np.intp)
        counts[:, 0] = (0, 1, 2)
        weights = _weight_table(counts, eta)[_PATTERN_SETS]
        patterns = all_patterns()
        click, silent = patterns.index(ClickPattern.of(DETECTORS[0])), patterns.index(ClickPattern.of())
        assert weights[click].tolist() == pytest.approx([0.0, eta, 1 - (1 - eta) ** 2])
        assert weights[silent].tolist() == pytest.approx([1.0, 1 - eta, (1 - eta) ** 2])

    def test_invalid_efficiency_rejected(self):
        for eta in (1.2, -0.1):
            with pytest.raises(ValueError, match="eta_d"):
                enumerate_outcomes(network_state(), eta)

    @pytest.mark.parametrize("eta", [1.2, -0.1, float("nan")])
    def test_invalid_efficiency_rejected_on_compiled_route(self, eta):
        # The route run_protocol and the estimators take, past the
        # SystemParams validation that guards it there.
        with pytest.raises(ValueError, match=f"^eta_d must lie in \\[0, 1\\], got {eta}$"):
            heralded_states(EvolutionCoefficients(0.0, 1.0), eta)


class TestClassification:
    def test_listed_plus_triples(self):
        for names in PLUS_TRIPLES:
            assert classify_pattern(ClickPattern.of(*names)) is OutcomeClass.GHZ_PLUS

    def test_listed_minus_triples(self):
        for names in MINUS_TRIPLES:
            assert classify_pattern(ClickPattern.of(*names)) is OutcomeClass.GHZ_MINUS

    def test_double_click_rejected(self):
        assert classify_pattern(ClickPattern.of("D7H", "D7V", "D8H")) is OutcomeClass.REJECT

    def test_silent_mode_rejected(self):
        assert classify_pattern(ClickPattern.of("D7H", "D8H")) is OutcomeClass.REJECT
        assert classify_pattern(ClickPattern.of()) is OutcomeClass.REJECT

    def test_exactly_eight_accepted(self):
        # classify_pattern accepts exactly the listed triples, the patterns
        # the staged oracle's accepted_patterns() reads off them.
        accepted = [p for p in all_patterns() if classify_pattern(p) is not OutcomeClass.REJECT]
        assert accepted == accepted_patterns()
        got = [set(p.fired) for p in accepted]
        assert len(got) == 8
        for names in PLUS_TRIPLES + MINUS_TRIPLES:
            assert names in got

    def test_parity_rule_separates_classes(self):
        for pattern in all_patterns():
            if classify_pattern(pattern) is OutcomeClass.REJECT:
                continue
            expected = OutcomeClass.GHZ_PLUS if pattern.v_count % 2 else OutcomeClass.GHZ_MINUS
            assert classify_pattern(pattern) is expected

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match="unknown detector"):
            ClickPattern.of("D6H")


class TestOutcomeTable:
    """The patterns classified once at import, which the array route indexes."""

    def test_classes_match_classify_pattern(self):
        assert len(_PATTERNS) == len(_CLASSES) == 2 ** len(DETECTORS)
        for pattern, outcome in zip(_PATTERNS, _CLASSES):
            assert classify_pattern(pattern) is outcome

    def test_accepted_rows_in_report_order(self):
        # run_protocol reports the accepted patterns in table order, which
        # must be sorted_names order.
        names = [_PATTERNS[i].sorted_names for i in _ACCEPTED_INDICES]
        assert len(names) == 8 and names == sorted(names)
        assert _ACCEPTED_INDICES == tuple(i for i, pattern in enumerate(_PATTERNS)
                                          if classify_pattern(pattern) is not OutcomeClass.REJECT)

    def test_minus_mask_marks_minus_rows(self):
        assert _MINUS.shape == (len(_PATTERNS),)
        expected = [classify_pattern(pattern) is OutcomeClass.GHZ_MINUS for pattern in _PATTERNS]
        assert _MINUS.tolist() == expected and sum(expected) == 4


class TestMeasure:
    def test_perfect_detection_accepted_pattern(self):
        state = network_state()
        p, rho = measure(state, ClickPattern.of("D7H", "D8H", "D9V"), 1.0)
        assert p == pytest.approx(3 / 32, abs=1e-12)
        plus, _ = ghz_pair_states(rho.space)
        assert fidelity(rho, plus) == pytest.approx(1.0, abs=1e-10)

    def test_minus_class_pattern_state(self):
        state = network_state()
        p, rho = measure(state, ClickPattern.of("D7H", "D8H", "D9H"), 1.0)
        assert p == pytest.approx(3 / 32, abs=1e-12)
        _, minus = ghz_pair_states(rho.space)
        assert fidelity(rho, minus) == pytest.approx(1.0, abs=1e-10)

    def test_single_mode_double_click_impossible(self):
        state = network_state()
        p, rho = measure(state, ClickPattern.of("D7H", "D7V"), 1.0)
        assert p == 0.0
        assert rho is None

    def test_blind_detectors(self):
        state = network_state()
        assert measure(state, ClickPattern.of(), 0.0)[0] == pytest.approx(1.0, abs=1e-12)
        for name in DETECTORS:
            assert measure(state, ClickPattern.of(name), 0.0)[0] == 0.0

    def test_conditional_states_for_all_accepted(self):
        state = network_state()
        for pattern in accepted_patterns():
            p, rho = measure(state, pattern, 1.0)
            assert p == pytest.approx(3 / 32, abs=1e-12)
            plus, minus = ghz_pair_states(rho.space)
            target = plus if classify_pattern(pattern) is OutcomeClass.GHZ_PLUS else minus
            assert fidelity(rho, target) == pytest.approx(1.0, abs=1e-10)


class TestEnumerateOutcomes:
    def test_ideal_distribution(self):
        report = enumerate_outcomes(network_state(), 1.0)
        assert report.total_success_probability == pytest.approx(0.75, abs=1e-12)
        for pattern in accepted_patterns():
            assert report.probability(pattern) == pytest.approx(3 / 32, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        for eta in (0.3, 0.8, 1.0):
            report = enumerate_outcomes(network_state(), eta)
            assert sum(report.pattern_probabilities.values()) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_state_all_off(self):
        vacuum = JointAtomPhotonState.from_terms(ATOMS, [(("gL", "gL", "gL"), {}, 1.0)])
        report = enumerate_outcomes(vacuum, 0.8)
        assert report.probability(ClickPattern.of()) == pytest.approx(1.0)
        assert report.total_success_probability == 0.0

    def test_accepted_total_matches_closed_form(self):
        state = network_state()
        for eta in (0.25, 0.5, 0.75, 1.0):
            report = enumerate_outcomes(state, eta)
            assert abs(report.total_success_probability - success_probability_ideal(eta)) < 1e-12


class TestOnePassOracle:
    """The one-pass kernel must reproduce the per-pattern loop bit for bit."""

    @pytest.mark.parametrize("eta", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("name", sorted(ORACLE_STATES))
    def test_enumerate_and_measure_equal_reference(self, put_routing, name, eta):
        if name in ORACLE_ROUTINGS:
            put_routing(ORACLE_ROUTINGS[name])
        state = ORACLE_STATES[name]()
        report = enumerate_outcomes(state, eta)
        assert list(report.pattern_probabilities) == all_patterns()
        expected_conditionals = []
        success = 0.0
        for pattern in all_patterns():
            p_ref, rho_ref = reference_measure(state, pattern, eta)
            p, rho = measure(state, pattern, eta)
            assert p == p_ref and type(p) is float
            assert report.probability(pattern) == p_ref
            assert (rho is None) == (rho_ref is None)
            if rho is not None:
                assert rho.space == rho_ref.space
                assert rho.elements.tobytes() == rho_ref.elements.tobytes()
            if classify_pattern(pattern) is not OutcomeClass.REJECT:
                success += p_ref
                if rho_ref is not None:
                    expected_conditionals.append(pattern)
                    got = report.conditional_states[pattern]
                    assert got.elements.tobytes() == rho_ref.elements.tobytes()
        assert list(report.conditional_states) == expected_conditionals
        assert report.total_success_probability == success

    def test_oracle_covers_four_level_states(self):
        # Rejected patterns of a decaying state keep atoms that never emitted.
        state = ORACLE_STATES["decaying"]()
        states = [measure(state, pattern, 0.37)[1] for pattern in all_patterns()]
        assert {rho.space.total_dim for rho in states if rho is not None} == {8, 64}

    def test_only_accepted_states_are_built(self, monkeypatch):
        built = []
        validate = DensityMatrix.__post_init__

        def counting(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        for state in (network_state(), decaying_network_state(DECAYING, fraction=0.8)):
            built.clear()
            report = enumerate_outcomes(state, 0.37)
            nonzero = sum(1 for p in report.pattern_probabilities.values() if p > 0.0)
            assert nonzero > len(report.conditional_states) > 0
            assert len(built) == len(report.conditional_states)

    @settings(max_examples=40, deadline=None)
    @given(eta=st.floats(0.0, 1.0),
           eta_over_kappa=st.floats(0.5, 500.0),
           fraction=st.floats(0.0, 2.0))
    def test_pattern_probabilities_sum_to_surviving_norm(self, eta, eta_over_kappa, fraction):
        coupling = 1.0
        params = SystemParams(delta=20.0, lambda_c=coupling, omega=coupling,
                              kappa=(coupling**2 / 20.0) / eta_over_kappa)
        state = decaying_network_state(params, fraction=fraction)
        report = enumerate_outcomes(state, eta)
        assert len(report.pattern_probabilities) == 64
        assert abs(sum(report.pattern_probabilities.values()) - norm_sq(state)) < 1e-12


def test_all_patterns_is_complete_algebra():
    patterns = all_patterns()
    assert len(patterns) == 2 ** len(DETECTORS)
    assert len({p.fired for p in patterns}) == 64


def test_atomic_space_shape():
    space = atomic_space(("a", "b", "c"))
    assert space.subsystems == (("a", 2), ("b", 2), ("c", 2))
    assert space.total_dim == 8
