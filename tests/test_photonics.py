import itertools
import math

import numpy as np
import pytest

from staged_reference import (
    CORRUPTED_LAYOUT,
    all_layouts,
    apply_hwp,
    apply_pbs_routing,
    emit_and_qwp,
    layout_of,
    max_amplitude_deviation,
    photon_numbers,
    require_photon_number,
    search_routing_layouts,
    staged_network,
    states_equal_up_to_phase,
)
from w2ghz.atom_cavity import SystemParams
from w2ghz.photonics import (
    ATOMS,
    DEFAULT_LAYOUT,
    DETECTOR_SLOTS,
    EMISSIONS,
    SOURCE_MODES,
    JointAtomPhotonState,
    NetworkLayout,
    full_network,
    network_map,
    reference_output_state,
)
from w2ghz.protocol import apply_hadamard_pulses, cavity_interaction, prepare_w_state

IDEAL = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0)
DECAYING = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.004)


def pipeline_state(params=IDEAL, fraction=1.0):
    return cavity_interaction(apply_hadamard_pulses(prepare_w_state()), params, fraction * params.operating_time)


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
        assert photon_numbers(state) == {3}
        require_photon_number(state, 3)
        with pytest.raises(ValueError, match="exactly 2"):
            require_photon_number(state, 2)


class TestLayout:
    def test_default_routing_table(self):
        expected = {("a", "V"): 7, ("b", "V"): 8, ("c", "V"): 9,
                    ("a", "H"): 9, ("b", "H"): 7, ("c", "H"): 8}
        for (atom, pol), mode in expected.items():
            assert DEFAULT_LAYOUT.route(atom, pol) == mode

    def test_each_output_gets_one_route_per_polarization(self):
        with pytest.raises(ValueError, match="once"):
            layout_of({"a": {"V": 7, "H": 9}, "b": {"V": 7, "H": 8}, "c": {"V": 9, "H": 7}})

    def test_missing_entries_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            layout_of({"a": {"V": 7, "H": 9}})

    def test_routing_order_is_canonical(self):
        # The same routes in another order are the same layout, and compile
        # to the same cached network.
        reordered = NetworkLayout(tuple(reversed(DEFAULT_LAYOUT.routing)))
        assert reordered == DEFAULT_LAYOUT and hash(reordered) == hash(DEFAULT_LAYOUT)
        assert reordered.routing == tuple(sorted(DEFAULT_LAYOUT.routing))
        assert network_map(reordered) is network_map(DEFAULT_LAYOUT)

    def test_repeated_route_rejected(self):
        # A seventh entry repeating ("a", "V") with its own mode would
        # otherwise collapse into a valid table.
        with pytest.raises(ValueError, match="repeats"):
            NetworkLayout(DEFAULT_LAYOUT.routing + ((("a", "V"), DEFAULT_LAYOUT.route("a", "V")),))


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
        # The emission check lives in the full_network view.
        state = single_term(("gL", "eL", "eL"), {(2, "L"): 1, (3, "L"): 1})
        with pytest.raises(ValueError, match="operating time"):
            full_network(state)
        out = full_network(state, allow_vacuum=True)
        assert photon_numbers(out) == {2}


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
        # The full_network view reads cavity slots only.
        for slot in ((7, "V"), (1, "V")):
            state = single_term(("eL", "eL", "eL"), {slot: 1, (2, "L"): 1, (3, "L"): 1})
            with pytest.raises(ValueError, match="not a cavity-polarization slot"):
                full_network(state, allow_vacuum=True)


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
        # Each cavity emits at most one photon, so no output mode of a valid
        # layout can receive more than two; the full_network view rejects a
        # doubly occupied cavity, here one that would send three photons to
        # output 7.
        for cavity in ({(1, "L"): 2}, {(1, "L"): 1, (1, "R"): 1}):
            state = single_term(("eL", "eL", "eL"), {**cavity, (2, "R"): 1})
            with pytest.raises(ValueError, match="more than one photon in cavity 1"):
                full_network(state, allow_vacuum=True)


class TestFullNetwork:
    def test_matches_reference_state(self):
        produced = full_network(pipeline_state())
        assert max_amplitude_deviation(produced, reference_output_state()) < 1e-12

    def test_photon_number_conserved(self):
        produced = full_network(pipeline_state())
        require_photon_number(produced, 3)

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
        produced = full_network(pipeline_state(), CORRUPTED_LAYOUT)
        assert max_amplitude_deviation(produced, reference_output_state()) > 0.1


def test_routing_search_recovers_unique_layout():
    matches = search_routing_layouts(pipeline_state())
    assert matches == [DEFAULT_LAYOUT]


def layout_id(layout):
    return "".join(str(mode) for _, mode in layout.routing)


class TestFullNetworkView:
    """full_network reads its columns off network_map; the staged network
    must give the same terms."""

    @pytest.mark.parametrize("layout", all_layouts(), ids=layout_id)
    def test_matches_staged_network(self, layout):
        # Lossless at the operating time, and decaying off it, where vacuum
        # branches remain.
        for state in (pipeline_state(), pipeline_state(DECAYING, 0.7)):
            view = full_network(state, layout, allow_vacuum=True)
            staged = staged_network(state, layout)
            assert set(view.terms) == set(staged.terms)
            assert max(abs(view.terms[key] - amp) for key, amp in staged.terms.items()) <= 1e-14


class TestNetworkMap:
    @pytest.mark.parametrize("layout", all_layouts(), ids=layout_id)
    def test_isometry_equal_to_staged_network(self, layout):
        network = network_map(layout)
        m = network.matrix
        assert m.shape == (len(network.counts), len(EMISSIONS) ** len(ATOMS))
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))) <= 1e-14
        row = {tuple(counts): o for o, counts in enumerate(network.counts.tolist())}
        for s, emission in enumerate(itertools.product(EMISSIONS, repeat=len(ATOMS))):
            photons = {(source, circular): 1 for source, circular in zip(SOURCE_MODES, emission) if circular}
            staged = staged_network(single_term(("eL", "eL", "eL"), photons), layout)
            column = np.zeros(len(row), dtype=complex)
            for (_, occ), amp in staged.terms.items():
                occupation = dict(occ)
                column[row[tuple(occupation.get(slot, 0) for slot in DETECTOR_SLOTS)]] = amp
            assert np.max(np.abs(m[:, s] - column)) <= 1e-14

    def test_cached_per_layout(self):
        assert network_map(DEFAULT_LAYOUT) is network_map(DEFAULT_LAYOUT)
        assert not network_map(DEFAULT_LAYOUT).matrix.flags.writeable
