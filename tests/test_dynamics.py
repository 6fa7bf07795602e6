import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w2ghz.atom_cavity import (
    EFFECTIVE_LEVELS,
    FULL_LEVELS,
    SystemParams,
    collapse_operators,
    conditional_hamiltonian,
    effective_hamiltonian,
    effective_space,
    full_hamiltonian,
    full_space,
)
from w2ghz.dynamics import (
    IntegratorConfig,
    compare_full_vs_effective,
    decay_coefficients,
    ideal_coefficients,
    lindblad_evolve,
    schrodinger_evolve,
)
from w2ghz.hilbert import DensityMatrix, HilbertSpace, Operator, StateVector, propagator

SYMMETRIC = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0)
ASYMMETRIC = SystemParams(delta=20.0, lambda_c=1.3, omega=0.9)


def ground_vacuum(space):
    return StateVector.basis_state(space, 0, 0, 0)


def coefficient_indices(n_max=1):
    space = effective_space(n_max)
    return (space.basis_index(EFFECTIVE_LEVELS.index("gL"), 0, 0),
            space.basis_index(EFFECTIVE_LEVELS.index("eL"), 1, 0))


class TestIdealCoefficients:
    def test_no_evolution_at_zero_time(self):
        c = ideal_coefficients(ASYMMETRIC, 0.0)
        assert c.alpha == pytest.approx(1.0, abs=1e-15)
        assert c.beta == pytest.approx(0.0, abs=1e-15)

    def test_operating_point_full_transfer(self):
        c = ideal_coefficients(SYMMETRIC, SYMMETRIC.operating_time)
        assert abs(c.alpha) < 1e-15
        assert c.beta == pytest.approx(-1.0, abs=1e-15)

    @given(t=st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=60, deadline=None)
    def test_unitarity_of_pair(self, t):
        c = ideal_coefficients(ASYMMETRIC, t)
        assert c.weight == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("params", [SYMMETRIC, ASYMMETRIC,
                                        SystemParams(delta=2.0, lambda_c=1.0, omega=0.6)])
    @pytest.mark.parametrize("frac", [0.25, 0.7, 1.0])
    def test_matches_integration_oracle(self, params, frac):
        h = effective_hamiltonian(params)
        t = frac * params.operating_time
        out = schrodinger_evolve(h, ground_vacuum(h.space), t, IntegratorConfig(dt=2e-3 * params.delta / 20.0))
        i_g, i_e = coefficient_indices()
        c = ideal_coefficients(params, t)
        assert abs(out.amplitudes[i_g] - c.alpha) < 1e-8
        assert abs(out.amplitudes[i_e] - c.beta) < 1e-8

    def test_fock_cutoff_truncation_negligible(self):
        # The transfer dynamics never populate two-photon states, so raising
        # the cutoff must not move the amplitudes.
        wide = SystemParams(delta=20.0, lambda_c=1.3, omega=0.9, n_max=2)
        h = effective_hamiltonian(wide)
        psi0 = StateVector.basis_state(h.space, 0, 0, 0)
        t = 0.6 * wide.operating_time
        out = schrodinger_evolve(h, psi0, t, IntegratorConfig(dt=2e-3))
        space = effective_space(2)
        c = ideal_coefficients(wide, t)
        assert abs(out.amplitudes[space.basis_index(0, 0, 0)] - c.alpha) < 1e-8
        assert abs(out.amplitudes[space.basis_index(2, 1, 0)] - c.beta) < 1e-8
        two_photon = [space.basis_index(k, 2, 0) for k in range(4)]
        assert max(abs(out.amplitudes[i]) for i in two_photon) < 1e-12


class TestDecayCoefficients:
    DECAYING = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.03)

    def test_zero_decay_limit_matches_ideal(self):
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.0)
        for t in (0.3, 5.0, params.operating_time):
            ideal = ideal_coefficients(params, t)
            decay = decay_coefficients(params, t)
            assert abs(ideal.alpha - decay.alpha) < 1e-10
            assert abs(ideal.beta - decay.beta) < 1e-10

    def test_small_decay_converges_to_ideal(self):
        eta = SYMMETRIC.derived.eta
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=1e-8 * eta)
        period = 2 * np.pi * params.delta / (params.lambda_c**2 + params.omega**2)
        for t in np.linspace(0.0, period, 13):
            ideal = ideal_coefficients(params, t)
            decay = decay_coefficients(params, t)
            assert abs(ideal.alpha - decay.alpha) < 1e-6
            assert abs(ideal.beta - decay.beta) < 1e-6

    def test_asymmetric_drive_rejected(self):
        with pytest.raises(ValueError, match="lambda_c == omega"):
            decay_coefficients(ASYMMETRIC, 1.0)

    def test_emitted_weight_closed_form(self):
        # |beta'|^2 = 2 eta^2 (1 - cos(phi' t)) e^{-kappa t} / phi'^2 in the
        # underdamped regime.
        d = self.DECAYING.derived
        phi_p = d.phi_prime.real
        for t in (0.4, 2.0, 7.3):
            c = decay_coefficients(self.DECAYING, t)
            expected = 2 * d.eta**2 * (1 - np.cos(phi_p * t)) * np.exp(-self.DECAYING.kappa * t) / phi_p**2
            assert abs(c.beta) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_matches_conditional_integration_oracle(self):
        h = conditional_hamiltonian(self.DECAYING)
        for t in (0.9, 3.0):
            out = schrodinger_evolve(h, ground_vacuum(h.space), t, IntegratorConfig(dt=1e-3))
            i_g, i_e = coefficient_indices()
            c = decay_coefficients(self.DECAYING, t)
            assert abs(out.amplitudes[i_g] - c.alpha) < 1e-8
            assert abs(out.amplitudes[i_e] - c.beta) < 1e-8

    def test_weight_never_exceeds_one(self):
        for t in np.linspace(0.0, 30.0, 50):
            assert decay_coefficients(self.DECAYING, t).weight <= 1.0 + 1e-10

    def test_critical_damping_branch_is_continuous(self):
        # kappa = 2 eta makes the discriminant vanish; the series branch must
        # join the generic branch smoothly.
        eta = 1.0 / 20.0
        exact = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=2 * eta)
        near = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=2 * eta * (1 + 1e-9))
        for t in (0.5, 4.0, 20.0):
            c0 = decay_coefficients(exact, t)
            c1 = decay_coefficients(near, t)
            assert abs(c0.alpha - c1.alpha) < 1e-7
            assert abs(c0.beta - c1.beta) < 1e-7


class TestSchrodingerEvolve:
    def test_null_generator(self):
        space = HilbertSpace.of(("s", 3))
        h = Operator(space, np.zeros((3, 3)), hermitian=True)
        psi0 = StateVector(space, [0, 1, 0])
        out = schrodinger_evolve(h, psi0, 2.0, IntegratorConfig(dt=0.1))
        assert np.max(np.abs(out.amplitudes - psi0.amplitudes)) < 1e-14

    def test_matches_propagator_on_random_hermitian(self):
        rng = np.random.default_rng(41)
        space = HilbertSpace.of(("s", 4))
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = Operator(space, 0.5 * (raw + raw.conj().T), hermitian=True)
        psi0 = StateVector(space, np.array([1, 1j, -1, 0.5]) / np.sqrt(3.25))
        expected = propagator(h, 1.3).elements @ psi0.amplitudes
        out = schrodinger_evolve(h, psi0, 1.3, IntegratorConfig(dt=5e-4))
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-8

    def test_raman_period(self):
        params = SystemParams(delta=4.0, lambda_c=1.0, omega=1.0)
        h = effective_hamiltonian(params)
        period = 2 * np.pi * params.delta / (params.lambda_c**2 + params.omega**2)
        out = schrodinger_evolve(h, ground_vacuum(h.space), period, IntegratorConfig(dt=1e-3))
        i_g, _ = coefficient_indices()
        assert abs(abs(out.amplitudes[i_g]) - 1.0) < 1e-8

    def test_dimension_mismatch_rejected(self):
        h = Operator(HilbertSpace.of(("s", 3)), np.zeros((3, 3)), hermitian=True)
        psi = StateVector(HilbertSpace.of(("t", 2)), [1, 0])
        with pytest.raises(ValueError, match="mismatch"):
            schrodinger_evolve(h, psi, 1.0)

    def test_conditional_norm_monotone(self):
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.2)
        h = conditional_hamiltonian(params)
        psi = ground_vacuum(h.space)
        norms = []
        cfg = IntegratorConfig(dt=1e-3)
        for t in np.linspace(0.5, 8.0, 8):
            norms.append(schrodinger_evolve(h, psi, t, cfg).norm())
        assert all(a >= b - 1e-10 for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1.0


class TestLindbladEvolve:
    def test_closed_system_matches_unitary(self):
        params = ASYMMETRIC
        h = full_hamiltonian(params)
        rho0 = ground_vacuum(h.space).to_density_matrix()
        out = lindblad_evolve(h, collapse_operators(params), rho0, 2.0, IntegratorConfig(dt=1e-3))
        u = propagator(h, 2.0).elements
        expected = u @ rho0.elements @ u.conj().T
        assert np.max(np.abs(out.elements - expected)) < 1e-8

    def test_amplitude_damping_rate(self):
        # Single lossy mode, no Hamiltonian: one-photon population decays as
        # e^{-kappa t}.
        kappa, t = 0.7, 1.9
        space = HilbertSpace.of(("mode", 2))
        h = Operator(space, np.zeros((2, 2)), hermitian=True)
        a = Operator(space, np.array([[0, 1], [0, 0]], dtype=complex))
        rho0 = StateVector(space, [0, 1]).to_density_matrix()
        out = lindblad_evolve(h, [(kappa, a)], rho0, t, IntegratorConfig(dt=1e-3))
        assert out.elements[1, 1].real == pytest.approx(np.exp(-kappa * t), abs=1e-8)

    def test_upper_level_total_decay_rate(self):
        # Prepared in fL with only spontaneous channels: the two branches at
        # gamma_a/2 drain the level at total rate gamma_a.
        params = SystemParams(delta=20.0, lambda_c=0.0, omega=0.0, gamma_a=0.35)
        space = full_space(1)
        h = Operator(space, np.zeros((space.total_dim,) * 2), hermitian=True)
        i_f = space.basis_index(FULL_LEVELS.index("fL"), 0, 0)
        rho0 = StateVector.basis_state(space, FULL_LEVELS.index("fL"), 0, 0).to_density_matrix()
        t = 2.4
        out = lindblad_evolve(h, collapse_operators(params), rho0, t, IntegratorConfig(dt=1e-3))
        assert out.elements[i_f, i_f].real == pytest.approx(np.exp(-params.gamma_a * t), abs=1e-8)

    def test_preserves_density_properties(self):
        params = SystemParams(delta=14.0, lambda_c=2.86, omega=2.9, kappa=0.1, gamma_a=0.1)
        h = full_hamiltonian(params)
        rho0 = ground_vacuum(h.space).to_density_matrix()
        out = lindblad_evolve(h, collapse_operators(params), rho0, 1.0, IntegratorConfig(dt=1e-3))
        m = out.elements
        assert abs(np.trace(m).real - 1.0) < 1e-8
        assert np.max(np.abs(m - m.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(m)) > -1e-8

    def test_rejects_mismatched_spaces(self):
        h = Operator(HilbertSpace.of(("s", 2)), np.zeros((2, 2)), hermitian=True)
        rho = DensityMatrix(HilbertSpace.of(("t", 2)), np.eye(2) / 2)
        with pytest.raises(ValueError, match="mismatch"):
            lindblad_evolve(h, [], rho, 1.0)

    def test_rejects_negative_rate(self):
        space = HilbertSpace.of(("s", 2))
        h = Operator(space, np.zeros((2, 2)), hermitian=True)
        a = Operator(space, np.array([[0, 1], [0, 0]], dtype=complex))
        rho = DensityMatrix(space, np.eye(2) / 2)
        with pytest.raises(ValueError, match="non-negative"):
            lindblad_evolve(h, [(-0.1, a)], rho, 1.0)


class TestIntegratorConfig:
    def test_positive_step_required(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)

    def test_step_advisory(self):
        cfg = IntegratorConfig(dt=0.01)
        assert not cfg.step_advisory(5.0)
        assert cfg.step_advisory(5.1)


class TestCompareFullVsEffective:
    @staticmethod
    def one_period_grid(params, points=48):
        period = 2 * np.pi * params.delta / (params.lambda_c**2 + params.omega**2)
        return np.linspace(0.0, period, points)

    def test_far_detuned_deviation_small(self):
        params = SystemParams(delta=100.0, lambda_c=1.0, omega=1.0)
        report = compare_full_vs_effective(params, self.one_period_grid(params))
        assert report.max_distance < 0.05
        # Regression baseline measured on this grid.
        assert report.max_distance < 2e-3

    def test_deviation_decreases_with_detuning(self):
        distances = []
        for delta in (20.0, 40.0, 80.0):
            params = SystemParams(delta=delta, lambda_c=1.0, omega=1.0)
            report = compare_full_vs_effective(params, self.one_period_grid(params))
            distances.append(report.max_distance)
        assert distances[0] > distances[1] > distances[2]

    def test_decoupled_cavity_deviation_negligible(self):
        # Only the far-detuned drive remains; the residual is the tiny
        # ground<->upper oscillation of order 2 (omega/delta)^2.
        params = SystemParams(delta=100.0, lambda_c=0.0, omega=1.0)
        report = compare_full_vs_effective(params, np.linspace(0.0, 20.0, 40))
        assert report.max_distance < 1e-3

    def test_leakage_tracks_upper_population(self):
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0)
        report = compare_full_vs_effective(params, self.one_period_grid(params))
        assert 0.0 <= report.max_leakage < 0.05
        assert report.points[0].distance < 1e-12
