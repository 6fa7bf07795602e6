import math

import numpy as np
import pytest

from w2ghz.atom_cavity import SystemParams
from w2ghz.photonics import (
    ATOMS,
    DEFAULT_LAYOUT,
    JointAtomPhotonState,
    NetworkLayout,
    apply_hwp,
    apply_pbs_routing,
    emit_and_qwp,
    full_network,
    max_amplitude_deviation,
    reference_output_state,
    search_routing_layouts,
    states_equal_up_to_phase,
)
from w2ghz.protocol import apply_hadamard_pulses, cavity_interaction, prepare_w_state

IDEAL = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0)


def pipeline_state():
    return cavity_interaction(apply_hadamard_pulses(prepare_w_state()), IDEAL)


def single_term(config, occupation, amp=1.0):
    return JointAtomPhotonState.from_terms(ATOMS, [(config, occupation, amp)])


class TestJointState:
    def test_merges_and_prunes(self):
        state = JointAtomPhotonState.from_terms(ATOMS, [
            (("eL", "eL", "eL"), {(1, "L"): 1}, 0.5),
            (("eL", "eL", "eL"), {(1, "L"): 1}, 0.5),
            (("eR", "eR", "eR"), {(1, "R"): 1}, 1e-16),
        ])
        assert len(state.terms) == 1
        assert state.norm_sq() == pytest.approx(1.0)

    def test_photon_number_bookkeeping(self):
        state = single_term(("eL", "eL", "eR"), {(1, "L"): 1, (2, "L"): 1, (3, "R"): 1})
        assert state.photon_numbers() == {3}
        state.require_photon_number(3)
        with pytest.raises(ValueError, match="exactly 2"):
            state.require_photon_number(2)


class TestLayout:
    def test_default_routing_table(self):
        expected = {("a", "V"): 7, ("b", "V"): 8, ("c", "V"): 9,
                    ("a", "H"): 9, ("b", "H"): 7, ("c", "H"): 8}
        for (atom, pol), mode in expected.items():
            assert DEFAULT_LAYOUT.route(atom, pol) == mode

    def test_json_roundtrip(self):
        doc = DEFAULT_LAYOUT.to_json_dict()
        assert NetworkLayout.from_dict(doc) == DEFAULT_LAYOUT

    def test_each_output_gets_one_route_per_polarization(self):
        with pytest.raises(ValueError, match="once"):
            NetworkLayout.from_dict({"a": {"V": 7, "H": 9},
                                     "b": {"V": 7, "H": 8},
                                     "c": {"V": 9, "H": 7}})

    def test_missing_entries_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            NetworkLayout.from_dict({"a": {"V": 7, "H": 9}})


class TestEmitAndQwp:
    def test_circular_to_linear_map(self):
        state = single_term(("eL", "eR", "eL"), {(1, "L"): 1, (2, "R"): 1, (3, "L"): 1})
        out = emit_and_qwp(state)
        (key, amp), = out.terms.items()
        assert dict(key[1]) == {(1, "V"): 1, (2, "H"): 1, (3, "V"): 1}
        assert amp == pytest.approx(1.0)

    def test_amplitudes_preserved(self):
        state = pipeline_state()
        out = emit_and_qwp(state)
        assert out.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-12)

    def test_vacuum_term_rejected(self):
        state = single_term(("gL", "eL", "eL"), {(2, "L"): 1, (3, "L"): 1})
        with pytest.raises(ValueError, match="operating time"):
            emit_and_qwp(state)
        out = emit_and_qwp(state, allow_vacuum=True)
        assert out.photon_numbers() == {2}


class TestPbsRouting:
    def test_all_left_goes_to_distinct_outputs(self):
        state = single_term(("eL", "eL", "eL"), {(1, "V"): 1, (2, "V"): 1, (3, "V"): 1})
        out = apply_pbs_routing(state)
        (key, _), = out.terms.items()
        assert dict(key[1]) == {(7, "V"): 1, (8, "V"): 1, (9, "V"): 1}

    def test_mixed_polarizations_can_share_an_output(self):
        # V from atom b and H from atom c both land on output 8.
        state = single_term(("eL", "eL", "eR"), {(1, "V"): 1, (2, "V"): 1, (3, "H"): 1})
        out = apply_pbs_routing(state)
        (key, _), = out.terms.items()
        assert dict(key[1]) == {(7, "V"): 1, (8, "V"): 1, (8, "H"): 1}

    def test_unrouted_slot_rejected(self):
        state = single_term(("eL", "eL", "eL"), {(7, "V"): 1})
        with pytest.raises(ValueError, match="unrouted"):
            apply_pbs_routing(state)


class TestHalfWavePlate:
    def test_single_photon_images(self):
        v_in = single_term(("eL", "eL", "eL"), {(7, "V"): 1})
        out = apply_hwp(v_in, modes=(7,))
        items = {tuple(dict(k[1]).items()): a for k, a in out.terms.items()}
        assert items[(((7, "H"), 1),)] == pytest.approx(1 / math.sqrt(2))
        assert items[(((7, "V"), 1),)] == pytest.approx(-1 / math.sqrt(2))
        h_in = single_term(("eL", "eL", "eL"), {(7, "H"): 1})
        out_h = apply_hwp(h_in, modes=(7,))
        assert all(a == pytest.approx(1 / math.sqrt(2)) for a in out_h.terms.values())

    def test_double_application_is_identity(self):
        state = pipeline_state()
        routed = apply_pbs_routing(emit_and_qwp(state))
        twice = apply_hwp(apply_hwp(routed))
        assert states_equal_up_to_phase(twice, routed, atol=1e-12)

    def test_single_photon_matrix_squares_to_identity(self):
        w = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(w @ w, np.eye(2), atol=1e-15)

    def test_two_photon_interference(self):
        # One V and one H photon on the same mode bunch into |2H> - |2V>.
        state = single_term(("eL", "eL", "eR"), {(8, "V"): 1, (8, "H"): 1})
        out = apply_hwp(state, modes=(8,))
        items = {tuple(dict(k[1]).items()): a for k, a in out.terms.items()}
        assert items[(((8, "H"), 2),)] == pytest.approx(1 / math.sqrt(2))
        assert items[(((8, "V"), 2),)] == pytest.approx(-1 / math.sqrt(2))
        assert len(items) == 2

    def test_isometry(self):
        state = apply_pbs_routing(emit_and_qwp(pipeline_state()))
        out = apply_hwp(state)
        assert out.norm_sq() == pytest.approx(state.norm_sq(), abs=1e-12)

    def test_more_than_two_photons_rejected(self):
        state = single_term(("eL", "eL", "eL"), {(7, "V"): 2, (7, "H"): 1})
        with pytest.raises(ValueError, match="two-photon"):
            apply_hwp(state, modes=(7,))


class TestFullNetwork:
    def test_matches_reference_state(self):
        produced = full_network(pipeline_state())
        assert max_amplitude_deviation(produced, reference_output_state()) < 1e-12

    def test_photon_number_conserved(self):
        produced = full_network(pipeline_state())
        produced.require_photon_number(3)

    def test_norm_is_one(self):
        assert full_network(pipeline_state()).norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_reference_configuration_weights(self):
        # Eight atomic configurations with photonic weights 3,3,1,...,1 over
        # 2 sqrt 6.
        ref = reference_output_state()
        weights = {}
        for (config, _), amp in ref.terms.items():
            weights[config] = weights.get(config, 0.0) + abs(amp) ** 2
        scale = 1.0 / 24.0
        assert len(weights) == 8
        assert weights[("eL", "eL", "eL")] == pytest.approx(9 * scale, abs=1e-13)
        assert weights[("eR", "eR", "eR")] == pytest.approx(9 * scale, abs=1e-13)
        for config, w in weights.items():
            if config not in (("eL", "eL", "eL"), ("eR", "eR", "eR")):
                assert w == pytest.approx(scale, abs=1e-13)

    def test_corrupted_layout_breaks_reference(self):
        swapped = NetworkLayout.from_dict({"a": {"V": 8, "H": 9},
                                           "b": {"V": 7, "H": 7},
                                           "c": {"V": 9, "H": 8}})
        produced = full_network(pipeline_state(), swapped)
        assert max_amplitude_deviation(produced, reference_output_state()) > 0.1


def test_routing_search_recovers_unique_layout():
    matches = search_routing_layouts(pipeline_state())
    assert matches == [DEFAULT_LAYOUT]
