import math
import random
from dataclasses import replace

import numpy as np
import pytest
from staged_reference import (
    ALIGNED_LAYOUT,
    ghz_pair_states,
    lossless_coefficients,
    norm_sq,
    photon_numbers,
    require_photon_number,
    staged_cavity_interaction,
    staged_run,
)
from unit_reference import eliminated_emission, to_density_matrix

from w2ghz.atom_cavity import SystemParams
from w2ghz.detection import OutcomeClass, atomic_space
from w2ghz.dynamics import decay_coefficients
from w2ghz import hilbert
from w2ghz.hilbert import DensityMatrix, StateVector, fidelity
from w2ghz.photonics import DEFAULT_LAYOUT
from w2ghz.protocol import (
    apply_hadamard_pulses,
    cavity_interaction,
    ghz_target,
    ground_state_space,
    prepare_w_state,
    raman_mapping,
    require_modelled,
    run_protocol,
    sign_correction,
    transfer_coefficients,
)

IDEAL = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0)
DECAYING = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.02)

# Post-pulse amplitudes of the eight ground configurations, ordered
# (LLL, LLR, LRL, LRR, RLL, RLR, RRL, RRR) over 2 sqrt 6.
POST_PULSE_NUMERATORS = [3, 1, 1, -1, 1, -1, -1, -3]


class TestStatePreparation:
    def test_w_state_amplitudes(self):
        w = prepare_w_state()
        space = w.space
        assert w.norm() == pytest.approx(1.0, abs=1e-14)
        assert w.amplitudes[space.basis_index(0, 0, 1)] == pytest.approx(1 / math.sqrt(3))
        assert w.amplitudes[space.basis_index(0, 1, 0)] == pytest.approx(1 / math.sqrt(3))
        assert w.amplitudes[space.basis_index(1, 0, 0)] == pytest.approx(1 / math.sqrt(3))
        assert w.amplitudes[space.basis_index(1, 1, 1)] == 0.0
        assert w.amplitudes[space.basis_index(0, 0, 0)] == 0.0

    def test_hadamard_produces_expected_coefficients(self):
        state = apply_hadamard_pulses(prepare_w_state())
        expected = np.array(POST_PULSE_NUMERATORS) / (2 * math.sqrt(6))
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-14

    def test_hadamard_is_involution(self):
        w = prepare_w_state()
        back = apply_hadamard_pulses(apply_hadamard_pulses(w))
        assert np.max(np.abs(back.amplitudes - w.amplitudes)) < 1e-14

    def test_hadamard_requires_qubits(self):
        bad = StateVector(atomic_space(("a",), ("gL", "gR", "eL", "eR")), [1, 0, 0, 0])
        with pytest.raises(ValueError, match="qubits"):
            apply_hadamard_pulses(bad)

    def test_ghz_target_form(self):
        t = ghz_target()
        assert t.amplitudes[t.space.basis_index(0, 0, 0)] == pytest.approx(1 / math.sqrt(2))
        assert t.amplitudes[t.space.basis_index(1, 1, 1)] == pytest.approx(1 / math.sqrt(2))


class TestCavityInteraction:
    def test_zero_time_keeps_ground_state(self):
        state = apply_hadamard_pulses(prepare_w_state())
        joint = cavity_interaction(state, IDEAL, t=0.0)
        assert photon_numbers(joint) == {0}
        amps = {config: amp for (config, occ), amp in joint.terms.items()}
        assert amps[("gL", "gL", "gL")] == pytest.approx(3 / (2 * math.sqrt(6)))

    def test_operating_point_emits_everywhere(self):
        state = apply_hadamard_pulses(prepare_w_state())
        joint = cavity_interaction(state, IDEAL)
        require_photon_number(joint, 3)
        amps = {config: amp for (config, occ), amp in joint.terms.items()}
        # Every ground level became the matching emitted level with a sign
        # flip cubed.
        assert amps[("eL", "eL", "eL")] == pytest.approx(-3 / (2 * math.sqrt(6)), abs=1e-12)
        assert amps[("eR", "eR", "eR")] == pytest.approx(3 / (2 * math.sqrt(6)), abs=1e-12)

    def test_norm_follows_coefficient_weight(self):
        state = apply_hadamard_pulses(prepare_w_state())
        for t in (0.7, 1.9):
            coeffs = decay_coefficients(DECAYING, t)
            joint = cavity_interaction(state, DECAYING, t=t)
            assert norm_sq(joint) == pytest.approx(coeffs.weight ** 3, abs=1e-12)

    def test_transfer_coefficients_dispatch(self):
        # One route for every kappa; only the default time is added.
        for params in (IDEAL, DECAYING, SystemParams(delta=14.0, lambda_c=2.86, omega=2.9, kappa=0.01)):
            assert transfer_coefficients(params, 1.1) == decay_coefficients(params, 1.1)
            assert transfer_coefficients(params) == decay_coefficients(params, params.operating_time)

    def test_requires_ground_space(self):
        bad = StateVector(atomic_space(("a", "b"), ("gL", "gR")), [1, 0, 0, 0])
        with pytest.raises(ValueError, match="three-atom"):
            cavity_interaction(bad, IDEAL)

    @pytest.mark.parametrize("kappa", [0.0, 0.004])
    def test_matches_staged_branch_loop(self, kappa):
        # The view reads the compiled route's configuration table; the
        # branch-by-branch loop must give the same terms.
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=kappa)
        rng = np.random.default_rng(11)
        states = [apply_hadamard_pulses(prepare_w_state())]
        for _ in range(5):
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            states.append(StateVector(ground_state_space(), amps / np.linalg.norm(amps)))
        for fraction in (0.3, 1.0):
            coeffs = transfer_coefficients(params, fraction * params.operating_time)
            for state in states:
                view = cavity_interaction(state, params, coefficients=coeffs)
                staged = staged_cavity_interaction(state, coeffs)
                assert set(view.terms) == set(staged.terms)
                assert max(abs(view.terms[key] - amp) for key, amp in staged.terms.items()) <= 1e-15

    @pytest.mark.parametrize("kappa", [0.0, 0.01])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bad_time_rejected(self, t, kappa):
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=kappa)
        state = apply_hadamard_pulses(prepare_w_state())
        for call in (lambda: cavity_interaction(state, params, t), lambda: run_protocol(params, t=t)):
            with pytest.raises(ValueError, match="t must be a finite non-negative time"):
                call()


class TestSignCorrection:
    def test_minus_class_maps_to_plus(self):
        space = atomic_space(("a", "b", "c"))
        plus, minus = ghz_pair_states(space)
        corrected = sign_correction(to_density_matrix(minus), OutcomeClass.GHZ_MINUS)
        assert fidelity(corrected, plus) == pytest.approx(1.0, abs=1e-12)

    def test_plus_class_untouched(self):
        space = atomic_space(("a", "b", "c"))
        plus, _ = ghz_pair_states(space)
        rho = to_density_matrix(plus)
        assert sign_correction(rho, OutcomeClass.GHZ_PLUS) is rho

    def test_flip_is_involution(self):
        rng = np.random.default_rng(43)
        space = atomic_space(("a", "b", "c"))
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = g @ g.conj().T
        rho = DensityMatrix(space, m / np.trace(m).real)
        twice = sign_correction(sign_correction(rho, OutcomeClass.GHZ_MINUS), OutcomeClass.GHZ_MINUS)
        assert np.max(np.abs(twice.elements - rho.elements)) < 1e-14

    def test_reject_class_refused(self):
        space = atomic_space(("a", "b", "c"))
        plus, _ = ghz_pair_states(space)
        with pytest.raises(ValueError, match="accepted"):
            sign_correction(to_density_matrix(plus), OutcomeClass.REJECT)


class TestRamanMapping:
    def test_plus_state_maps_to_ghz(self):
        space = atomic_space(("a", "b", "c"))
        plus, _ = ghz_pair_states(space)
        mapped = raman_mapping(to_density_matrix(plus))
        assert mapped.space == ground_state_space()
        assert fidelity(mapped, ghz_target()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_stays_maximally_mixed(self):
        space = atomic_space(("a", "b", "c"))
        rho = DensityMatrix(space, np.eye(8) / 8)
        mapped = raman_mapping(rho)
        assert np.allclose(mapped.elements, np.eye(8) / 8)
        assert np.trace(mapped.elements).real == pytest.approx(1.0)

    def test_four_level_input_rejected(self):
        # The relabeling is a change of space for two-level states only;
        # four-level atoms are not accepted even with purely emitted support.
        space = atomic_space(("a", "b", "c"), ("gL", "gR", "eL", "eR"))
        amps = np.zeros(space.total_dim, dtype=complex)
        amps[space.basis_index(2, 2, 2)] = 1 / math.sqrt(2)
        amps[space.basis_index(3, 3, 3)] = 1 / math.sqrt(2)
        with pytest.raises(ValueError, match="two-level"):
            raman_mapping(to_density_matrix(StateVector(space, amps)))


class TestRunProtocol:
    def test_ideal_end_to_end(self):
        run = run_protocol(IDEAL)
        assert run.success_probability == pytest.approx(0.75, abs=1e-10)
        assert run.fidelity == pytest.approx(1.0, abs=1e-10)
        assert run.reject_probability == pytest.approx(0.25, abs=1e-10)
        assert len(run.results) == 8

    def test_every_accepted_pattern_reaches_target(self):
        run = run_protocol(IDEAL)
        classes = set()
        for result in run.results:
            assert result.probability == pytest.approx(3 / 32, abs=1e-12)
            assert result.fidelity == pytest.approx(1.0, abs=1e-10)
            assert fidelity(result.final, ghz_target()) == pytest.approx(1.0, abs=1e-10)
            classes.add(result.outcome)
        assert classes == {OutcomeClass.GHZ_PLUS, OutcomeClass.GHZ_MINUS}

    def test_detector_efficiency_scaling(self):
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, eta_d=0.8)
        run = run_protocol(params)
        assert run.success_probability == pytest.approx(3 * 0.8**3 / 4, abs=1e-12)
        assert run.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_off_operating_time_only_costs_probability(self):
        # Incomplete transfer feeds the reject mass; the post-selected state
        # itself stays perfect because all three atoms share one amplitude.
        t = 0.6 * IDEAL.operating_time
        run = run_protocol(IDEAL, t=t)
        beta = lossless_coefficients(IDEAL, t).beta
        assert run.success_probability == pytest.approx(0.75 * abs(beta) ** 6, abs=1e-12)
        assert run.success_probability < 0.75
        assert run.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_decay_success_matches_closed_form(self):
        run = run_protocol(DECAYING)
        coeffs = decay_coefficients(DECAYING, DECAYING.operating_time)
        assert run.success_probability == pytest.approx(0.75 * abs(coeffs.beta) ** 6, abs=1e-12)
        assert run.fidelity == pytest.approx(1.0, abs=1e-10)

    def test_decay_outcome_algebra_complete(self):
        run = run_protocol(DECAYING)
        # In-algebra probabilities sum to the surviving weight; the jump
        # branch tops the reject mass up to one.
        in_algebra = sum(run.report.pattern_probabilities.values())
        coeffs = decay_coefficients(DECAYING, DECAYING.operating_time)
        assert in_algebra == pytest.approx(coeffs.weight ** 3, abs=1e-10)
        assert run.success_probability + run.reject_probability == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_over_accepted_range(self):
        # On the eliminated model each cavity emits at most one photon, and
        # an accepted pattern fires one detector in each of modes 7, 8 and
        # 9, so it needs all three photons, each detected: every accepted
        # pattern has probability (3/32) eta_d^3 |beta|^6 and fidelity 1.
        # |beta|^2 is the 40-digit one of unit_reference.  The bound scales
        # with the largest value P can take, (3/4) eta_d^3, not with P, as a
        # relative bound is ill-conditioned near the zeros of beta.
        rng = random.Random(7)
        for _ in range(300):
            params = SystemParams(delta=rng.uniform(0.5, 60.0), lambda_c=rng.uniform(0.1, 3.0),
                                  omega=rng.uniform(0.1, 3.0),
                                  kappa=0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.5),
                                  eta_d=rng.uniform(0.05, 1.0))
            t = rng.uniform(0.2, 2.0) * params.operating_time
            run = run_protocol(params, t)
            exact = 0.75 * params.eta_d**3 * eliminated_emission(params, t) ** 3
            bound = 1e-13 * 0.75 * params.eta_d**3
            assert abs(run.success_probability - exact) <= bound, (params, t)
            assert len(run.results) == 8
            for result in run.results:
                assert abs(8.0 * result.probability - exact) <= bound, (params, t)
                assert abs(result.fidelity - 1.0) <= 1e-13, (params, t)

    def test_json_report(self):
        doc = run_protocol(IDEAL).to_json_dict()
        assert doc["success_probability"] == pytest.approx(0.75)
        assert doc["fidelity"] == pytest.approx(1.0)
        assert len(doc["patterns"]) == 8
        assert all(set(p) == {"detectors", "class", "probability", "fidelity"} for p in doc["patterns"])


class TestCompiledRouteOracle:
    """run_protocol runs on the compiled network map; the staged term-by-term
    pipeline must give every field to 1e-14, on the paper's network and, put
    in its place, on another routing."""

    @pytest.mark.parametrize("layout", [DEFAULT_LAYOUT, ALIGNED_LAYOUT], ids=["default", "aligned"])
    @pytest.mark.parametrize("kappa", [0.0, 0.004])
    # At 1e-5 of the operating time every emitted amplitude falls under the
    # 1e-14 prune, so no accepted pattern may keep a state.
    @pytest.mark.parametrize("fraction", [1e-5, 0.6, 1.0, 1.7])
    @pytest.mark.parametrize("eta", [0.0, 0.37, 1.0])
    def test_matches_staged_pipeline(self, put_routing, eta, fraction, kappa, layout):
        put_routing(layout)
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=kappa, eta_d=eta)
        t = fraction * params.operating_time
        run = run_protocol(params, t)
        report, results, success, mean_fidelity = staged_run(params, layout, t)
        assert run.time == t
        assert abs(run.success_probability - success) <= 1e-14
        assert abs(run.reject_probability - max(0.0, 1.0 - success)) <= 1e-14
        assert abs(run.fidelity - mean_fidelity) <= 1e-14
        assert list(run.report.pattern_probabilities) == list(report.pattern_probabilities)
        for pattern, probability in report.pattern_probabilities.items():
            assert abs(run.report.probability(pattern) - probability) <= 1e-14
        assert abs(run.report.total_success_probability - report.total_success_probability) <= 1e-14
        assert list(run.report.conditional_states) == list(report.conditional_states)
        assert len(run.results) == len(results)
        for got, (pattern, outcome, probability, conditional, final, f) in zip(run.results, results):
            assert (got.pattern, got.outcome) == (pattern, outcome)
            assert abs(got.probability - probability) <= 1e-14
            assert got.conditional is run.report.conditional_states[pattern]
            for mine, theirs in ((got.conditional, conditional), (got.final, final)):
                assert (mine.space, mine.normalized) == (theirs.space, theirs.normalized)
                assert not mine.elements.flags.writeable
                assert np.max(np.abs(mine.elements - theirs.elements)) <= 1e-14
            assert abs(got.fidelity - f) <= 1e-14

    def test_every_returned_matrix_is_validated(self, monkeypatch):
        checked = []
        validate = hilbert.validate_density_stack

        def counting(elements, normalized=True):
            checked.extend(elements)
            validate(elements, normalized)

        monkeypatch.setattr(hilbert, "validate_density_stack", counting)
        run = run_protocol(DECAYING)
        returned = [m for r in run.results for m in (r.conditional.elements, r.final.elements)]
        assert len(checked) == len(returned) == 16
        for matrix in returned:
            assert any(np.array_equal(matrix, seen) for seen in checked)

    @pytest.mark.parametrize("field", ["probability", "fidelity"])
    @pytest.mark.parametrize("value", [-1e-9, 1.0 + 1e-9, float("nan")])
    def test_result_out_of_range_refused(self, field, value):
        result = run_protocol(IDEAL).results[0]
        with pytest.raises(ValueError, match=f"^{field} out of range: {value}$"):
            replace(result, **{field: value})

    def test_spontaneous_decay_rejected(self):
        with pytest.raises(ValueError, match="gamma_a"):
            run_protocol(SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, gamma_a=0.5))

    @pytest.mark.parametrize("t", [1e17, 1e308])
    def test_time_past_phase_resolution_rejected(self, t):
        for call in (lambda: require_modelled(IDEAL, t), lambda: run_protocol(IDEAL, t=t)):
            with pytest.raises(ValueError, match="past double resolution"):
                call()

    def test_model_coverage(self):
        # Cavity decay is modelled at any drive; spontaneous decay is not.
        asymmetric = dict(delta=14.0, lambda_c=2.86, omega=2.9)
        with pytest.raises(ValueError):
            require_modelled(SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, gamma_a=0.5))
        for params in (SystemParams(**asymmetric), SystemParams(**asymmetric, kappa=0.01), IDEAL, DECAYING):
            require_modelled(params)


def test_run_protocol_runtime_under_one_second():
    import time
    start = time.perf_counter()
    run_protocol(IDEAL)
    assert time.perf_counter() - start < 1.0
