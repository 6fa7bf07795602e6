import hashlib
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
    max_amplitude_deviation,
    norm_sq,
    photon_numbers,
    reference_output_state,
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
    OUTPUT_MODES,
    SOURCE_MODES,
    JointAtomPhotonState,
    _mode_matrix,
    full_network,
    network_map,
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
        assert norm_sq(state) == pytest.approx(1.0)

    def test_photon_number_bookkeeping(self):
        state = single_term(("eL", "eL", "eR"), {(1, "L"): 1, (2, "L"): 1, (3, "R"): 1})
        assert photon_numbers(state) == {3}
        require_photon_number(state, 3)
        with pytest.raises(ValueError, match="exactly 2"):
            require_photon_number(state, 2)


@pytest.mark.parametrize("occupation, message", [
    ({(1, "L"): -1}, r"negative photon count -1 on slot \(1, 'L'\)"),
], ids=["negative-count"])
def test_joint_state_refused(occupation, message):
    with pytest.raises(ValueError, match=message):
        single_term(("eL", "eL", "eL"), occupation)


class TestLayout:
    def test_default_routing_table(self):
        expected = {("a", "V"): 7, ("b", "V"): 8, ("c", "V"): 9,
                    ("a", "H"): 9, ("b", "H"): 7, ("c", "H"): 8}
        assert dict(DEFAULT_LAYOUT) == expected

    def test_routing_tables_are_valid(self):
        # Each table lists the six (atom, polarization) keys once, in sorted
        # order, and sends one V and one H route to each output mode; the
        # 36 tables all_layouts() yields are distinct, the paper's among them.
        keys = sorted((atom, pol) for atom in ATOMS for pol in ("V", "H"))
        tables = all_layouts()
        assert len(tables) == len(set(tables)) == 36 and DEFAULT_LAYOUT in tables
        for table in [DEFAULT_LAYOUT, *tables]:
            assert [key for key, _ in table] == keys
            for pol in ("V", "H"):
                assert sorted(mode for (_, p), mode in table if p == pol) == list(OUTPUT_MODES)


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
        assert norm_sq(out) == pytest.approx(norm_sq(state), abs=1e-12)

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
        assert norm_sq(out) == pytest.approx(norm_sq(state), abs=1e-12)

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
        assert norm_sq(full_network(pipeline_state())) == pytest.approx(1.0, abs=1e-12)

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

    def test_corrupted_layout_breaks_reference(self, put_routing):
        put_routing(CORRUPTED_LAYOUT)
        produced = full_network(pipeline_state())
        assert max_amplitude_deviation(produced, reference_output_state()) > 0.1

    def test_other_routing_refused(self):
        # The paper's table may be named; any other routing is refused.
        state = pipeline_state()
        assert full_network(state, DEFAULT_LAYOUT).terms == full_network(state).terms
        with pytest.raises(ValueError, match="runs the paper's routing DEFAULT_LAYOUT only"):
            full_network(state, CORRUPTED_LAYOUT)


def test_routing_search_recovers_unique_layout():
    matches = search_routing_layouts(pipeline_state())
    assert matches == [DEFAULT_LAYOUT]


def layout_id(layout):
    return "".join(str(mode) for _, mode in layout)


class TestFullNetworkView:
    """full_network reads its columns off network_map; the staged network
    must give the same terms, on each routing put in place of the paper's."""

    @pytest.mark.parametrize("layout", all_layouts(), ids=layout_id)
    def test_matches_staged_network(self, put_routing, layout):
        # Lossless at the operating time, and decaying off it, where vacuum
        # branches remain.
        put_routing(layout)
        for state in (pipeline_state(), pipeline_state(DECAYING, 0.7)):
            view = full_network(state, allow_vacuum=True)
            staged = staged_network(state, layout)
            assert set(view.terms) == set(staged.terms)
            assert max(abs(view.terms[key] - amp) for key, amp in staged.terms.items()) <= 1e-14


class TestNetworkMap:
    @pytest.mark.parametrize("layout", all_layouts(), ids=layout_id)
    def test_isometry_equal_to_staged_network(self, put_routing, layout):
        put_routing(layout)
        network = network_map()
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

    @pytest.mark.parametrize("layout", all_layouts(), ids=layout_id)
    def test_mode_matrix_is_orthogonal_and_the_one_photon_columns(self, put_routing, layout):
        # The single-photon matrix loses no photon, and each of its columns
        # is the map's column for that photon emitted alone.
        put_routing(layout)
        t = _mode_matrix()
        assert np.max(np.abs(t.T @ t - np.eye(2 * len(ATOMS)))) <= 1e-15
        network = network_map()
        single = np.flatnonzero(network.counts.sum(axis=1) == 1)
        for a in range(len(ATOMS)):
            for p, circular in enumerate(("L", "R")):
                emission = [0] * len(ATOMS)
                emission[a] = EMISSIONS.index(circular)
                s = np.ravel_multi_index(emission, (len(EMISSIONS),) * len(ATOMS))
                column = np.zeros(len(DETECTOR_SLOTS), dtype=complex)
                column[network.counts[single].argmax(axis=1)] = network.matrix[single, s]
                assert np.count_nonzero(network.matrix[:, s]) == np.count_nonzero(column) == 2
                assert np.array_equal(column, t[:, 2 * a + p])

    def test_hong_ou_mandel(self):
        # Emission slot 19: a holds R, b is empty, c holds L.  On the
        # paper's network both photons reach output mode 9, one as H and
        # one as V, and the half-wave plate there makes them bunch:
        # +1/sqrt2 on two H photons, -1/sqrt2 on two V photons, and no
        # (9H, 9V) coincidence row at all.
        assert [EMISSIONS[i] for i in np.unravel_index(19, (len(EMISSIONS),) * len(ATOMS))] == ["R", None, "L"]
        network = network_map()
        h, v = DETECTOR_SLOTS.index((9, "H")), DETECTOR_SLOTS.index((9, "V"))
        two_h, two_v, coincidence = np.zeros((3, len(DETECTOR_SLOTS)), dtype=np.intp)
        two_h[h], two_v[v], coincidence[[h, v]] = 2, 2, 1
        column = {tuple(counts): amp for counts, amp in zip(network.counts.tolist(), network.matrix[:, 19]) if amp}
        assert column.keys() == {tuple(two_h), tuple(two_v)}
        assert column[tuple(two_h)] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert column[tuple(two_v)] == pytest.approx(-1 / math.sqrt(2), abs=1e-15)
        assert not (network.counts == coincidence).all(axis=1).any()

    def test_compiled_bits_pinned(self, put_routing):
        # The matrix and counts of the paper's map, and of each routing put
        # in its place, to the last bit.
        def digest():
            network = network_map()
            return hashlib.sha256(network.matrix.tobytes() + network.counts.astype("<i8").tobytes()).hexdigest()

        assert digest() == "9069fbfd419341195bed162d932ec75d6fb6cc7e6286b9ca4d90b3f560b0cd76"
        combined = hashlib.sha256()
        for layout in all_layouts():
            put_routing(layout)
            combined.update(digest().encode())
        assert combined.hexdigest() == "0cc5c55ba2f29979e43484e06a05a59383ac0aee4ee973681990e45343eda3ad"

    def test_cached_per_layout(self):
        # One compiled map for the routing in place, until another is put.
        assert network_map() is network_map()
        assert not network_map().matrix.flags.writeable
