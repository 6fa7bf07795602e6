import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from elimination_view import compare_full_vs_effective
from staged_reference import lossless_coefficients, symmetric_decay_coefficients
from unit_reference import (
    basis_state,
    block_of,
    conditional_hamiltonian,
    effective_hamiltonian,
    effective_space,
    lindblad_evolve,
    propagator,
    schrodinger_evolve,
    tensor_space_deviation,
    to_density_matrix,
    unit_outputs,
)

import w2ghz.dynamics as dynamics
from w2ghz.analysis import pd_closed_form, pd_numeric
from w2ghz.atom_cavity import (
    EFFECTIVE_LEVELS,
    FULL_LEVELS,
    SystemParams,
    collapse_operators,
    full_hamiltonian,
    full_space,
)
from w2ghz.dynamics import (
    IntegratorConfig,
    decay_coefficients,
    emitted_block,
    propagate_matrix,
)
from w2ghz.hilbert import DensityMatrix, HilbertSpace, Operator, StateVector

SYMMETRIC = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0)
ASYMMETRIC = SystemParams(delta=20.0, lambda_c=1.3, omega=0.9)


def ground_vacuum(space):
    return basis_state(space, 0, 0, 0)


def coefficient_indices(n_max=1):
    space = effective_space(n_max)
    return (space.basis_index(EFFECTIVE_LEVELS.index("gL"), 0, 0),
            space.basis_index(EFFECTIVE_LEVELS.index("eL"), 1, 0))


class TestIdealCoefficients:
    """decay_coefficients in the lossless cavity (kappa = 0)."""

    def test_no_evolution_at_zero_time(self):
        c = decay_coefficients(ASYMMETRIC, 0.0)
        assert c.alpha == pytest.approx(1.0, abs=1e-15)
        assert c.beta == pytest.approx(0.0, abs=1e-15)

    def test_operating_point_full_transfer(self):
        c = decay_coefficients(SYMMETRIC, SYMMETRIC.operating_time)
        assert abs(c.alpha) < 1e-15
        assert c.beta == pytest.approx(-1.0, abs=1e-15)

    @given(t=st.floats(min_value=0.0, max_value=200.0))
    @settings(max_examples=60, deadline=None)
    def test_unitarity_of_pair(self, t):
        c = decay_coefficients(ASYMMETRIC, t)
        assert c.weight == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("params", [SYMMETRIC, ASYMMETRIC,
                                        SystemParams(delta=2.0, lambda_c=1.0, omega=0.6)])
    @pytest.mark.parametrize("frac", [0.25, 0.7, 1.0])
    def test_matches_integration_oracle(self, params, frac):
        h = effective_hamiltonian(params)
        t = frac * params.operating_time
        out = schrodinger_evolve(h, ground_vacuum(h.space), t, IntegratorConfig(dt=2e-3 * params.delta / 20.0))
        i_g, i_e = coefficient_indices()
        c = decay_coefficients(params, t)
        assert abs(out.amplitudes[i_g] - c.alpha) < 1e-8
        assert abs(out.amplitudes[i_e] - c.beta) < 1e-8

    def test_fock_cutoff_truncation_negligible(self):
        # The transfer dynamics never populate two-photon states, so the
        # eliminated model at a two-photon cutoff must give the amplitudes.
        h = effective_hamiltonian(ASYMMETRIC, n_max=2)
        psi0 = basis_state(h.space, 0, 0, 0)
        t = 0.6 * ASYMMETRIC.operating_time
        out = schrodinger_evolve(h, psi0, t, IntegratorConfig(dt=2e-3))
        space = effective_space(2)
        c = decay_coefficients(ASYMMETRIC, t)
        assert abs(out.amplitudes[space.basis_index(0, 0, 0)] - c.alpha) < 1e-8
        assert abs(out.amplitudes[space.basis_index(2, 1, 0)] - c.beta) < 1e-8
        two_photon = [space.basis_index(k, 2, 0) for k in range(4)]
        assert max(abs(out.amplitudes[i]) for i in two_photon) < 1e-12

    @pytest.mark.parametrize("params", [SYMMETRIC, ASYMMETRIC,
                                        SystemParams(delta=2.0, lambda_c=1.0, omega=0.6)])
    def test_matches_lossless_closed_form(self, params):
        times = np.concatenate([np.linspace(0.0, 200.0, 2001), np.random.default_rng(3).uniform(0.0, 200.0, 500)])
        grid = decay_coefficients(params, times)
        for k, t in enumerate(times.tolist()):
            oracle = lossless_coefficients(params, t)
            c = decay_coefficients(params, t)
            for got in ((c.alpha, c.beta), (grid.alpha[k], grid.beta[k])):
                assert abs(got[0] - oracle.alpha) <= 1e-14
                assert abs(got[1] - oracle.beta) <= 1e-14


class TestDecayCoefficients:
    DECAYING = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.03)

    def test_zero_decay_limit_matches_ideal(self):
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.0)
        for t in (0.3, 5.0, params.operating_time):
            ideal = lossless_coefficients(params, t)
            decay = decay_coefficients(params, t)
            assert abs(ideal.alpha - decay.alpha) < 1e-10
            assert abs(ideal.beta - decay.beta) < 1e-10

    def test_small_decay_converges_to_ideal(self):
        eta = SYMMETRIC.eta
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=1e-8 * eta)
        period = 2 * np.pi * params.delta / (params.lambda_c**2 + params.omega**2)
        for t in np.linspace(0.0, period, 13):
            ideal = lossless_coefficients(params, t)
            decay = decay_coefficients(params, t)
            assert abs(ideal.alpha - decay.alpha) < 1e-6
            assert abs(ideal.beta - decay.beta) < 1e-6

    @pytest.mark.parametrize("kappa", [0.03, 0.1, 0.5])
    def test_matches_symmetric_drive_closed_form(self, kappa):
        # Underdamped, critical (kappa = 2 eta) and overdamped at lambda_c = Omega.
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=kappa)
        times = np.linspace(0.0, 60.0, 601)
        grid, oracle = decay_coefficients(params, times), symmetric_decay_coefficients(params, times)
        assert np.max(np.abs(grid.alpha - oracle.alpha)) <= 1e-13
        assert np.max(np.abs(grid.beta - oracle.beta)) <= 1e-13

    def test_emitted_weight_closed_form(self):
        # |beta'|^2 = 2 eta^2 (1 - cos(phi' t)) e^{-kappa t} / phi'^2 in the
        # underdamped regime.
        eta, kappa = self.DECAYING.eta, self.DECAYING.kappa
        phi_p = np.sqrt(4 * eta**2 - kappa**2)
        for t in (0.4, 2.0, 7.3):
            c = decay_coefficients(self.DECAYING, t)
            expected = 2 * eta**2 * (1 - np.cos(phi_p * t)) * np.exp(-kappa * t) / phi_p**2
            assert abs(c.beta) ** 2 == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def assert_matches_conditional_integration(params):
        h = conditional_hamiltonian(params)
        for t in (0.9, 3.0):
            out = schrodinger_evolve(h, ground_vacuum(h.space), t, IntegratorConfig(dt=1e-3))
            i_g, i_e = coefficient_indices()
            c = decay_coefficients(params, t)
            assert abs(out.amplitudes[i_g] - c.alpha) < 1e-8
            assert abs(out.amplitudes[i_e] - c.beta) < 1e-8

    def test_matches_conditional_integration_oracle(self):
        self.assert_matches_conditional_integration(self.DECAYING)

    def test_overdamped_matches_conditional_integration_oracle(self):
        # kappa = 0.5 > 2 eta = 0.1.
        self.assert_matches_conditional_integration(SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.5))

    @pytest.mark.parametrize("params", [
        SystemParams(delta=14.0, lambda_c=2.86, omega=2.9, kappa=0.3),
        SystemParams(delta=20.0, lambda_c=1.3, omega=0.9, kappa=0.03),
        SystemParams(delta=20.0, lambda_c=1.3, omega=0.9, kappa=0.5),
    ], ids=["reference", "asymmetric-underdamped", "asymmetric-overdamped"])
    def test_off_symmetric_drive_matches_conditional_integration_oracle(self, params):
        self.assert_matches_conditional_integration(params)

    @settings(max_examples=200, deadline=None)
    @given(delta=st.floats(0.5, 50.0), lambda_c=st.floats(0.0, 5.0), omega=st.floats(0.0, 5.0),
           kappa=st.one_of(st.just(0.0), st.floats(0.0, 10.0)), t=st.floats(0.0, 1e3))
    # A subnormal kappa once divided by a denominator that underflowed to 0.
    @example(delta=0.5, lambda_c=0.0, omega=0.5, kappa=5e-324, t=0.0)
    def test_weight_bounded_for_any_drive(self, delta, lambda_c, omega, kappa, t):
        # The no-jump evolution never gains norm, and loses none without decay.
        params = SystemParams(delta=delta, lambda_c=lambda_c, omega=omega, kappa=kappa)
        weight = decay_coefficients(params, t).weight
        assert weight <= 1.0 + 1e-12
        if kappa == 0.0:
            assert weight == pytest.approx(1.0, abs=1e-12)

    def test_uncoupled_ground_level_keeps_its_norm(self):
        # lambda_c = 0 leaves |g_j, 0> a pure phase.  -kappa/2 + Re s once
        # cancelled to a rounding error there, which grew the norm by 1e-12
        # at kappa t = 5.5e3; the block is dissipative, so it must not.
        params = SystemParams(delta=3.0, lambda_c=0.0, omega=2.0, kappa=9.69340421405007)
        for t in (564.0, np.linspace(0.0, 1e3, 101)):
            assert np.all(decay_coefficients(params, t).weight <= 1.0 + 1e-15)

    @pytest.mark.parametrize("delta, lambda_c, omega, kappa, t, weight", [
        (6.356, 1.19e-5, 2.098, 8.245, 584.0, 0.9999999978302874),
        (2.23, 2.5e-3, 1.08e-3, 85.9, 1.83e6, 0.9999999375394641),
        (3.0, 1e-4, 1.0, 50.0, 2.0e4, 0.9999991111523437),
        (20.0, 1e-3, 0.5, 1.0, 5.0e5, 0.9993752947237832),
    ])
    def test_weight_where_the_decay_rate_cancels(self, delta, lambda_c, omega, kappa, t, weight):
        # lambda_c Omega/Delta << kappa, where kappa/2 - Re s cancels if taken
        # as a difference (it was off by up to 1e-8 relative here).  The
        # references are a 50-digit exponential of the 2x2 block, made once
        # with mpmath from these inputs.
        params = SystemParams(delta=delta, lambda_c=lambda_c, omega=omega, kappa=kappa)
        for times in (t, np.array([0.0, t])):
            assert np.ravel(decay_coefficients(params, times).weight)[-1] == pytest.approx(weight, rel=1e-14, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_drive_leaves_ground_state(self):
        for kappa in (0.0, 0.2):
            params = SystemParams(delta=20.0, lambda_c=0.0, omega=0.0, kappa=kappa)
            for t in (0.0, 1.0, np.array([0.0, 1.0, 1e5])):
                c = decay_coefficients(params, t)
                assert np.all(c.alpha == 1.0) and np.all(c.beta == 0.0)

    @pytest.mark.parametrize("scale", [1e-160, 1e-100, 1e100, 1e150])
    @pytest.mark.parametrize("params", [
        SystemParams(delta=14.0, lambda_c=2.86, omega=2.9, kappa=0.3),
        SystemParams(delta=20.0, lambda_c=1.0, omega=1.0),
        SystemParams(delta=20.0, lambda_c=1.3, omega=0.9, kappa=0.5),
    ], ids=["reference", "symmetric", "asymmetric-overdamped"])
    def test_scale_free(self, params, scale):
        # Every rate times s and every time over s leaves the amplitudes
        # unchanged; the rates are formed as ratios before any square.
        scaled = SystemParams(delta=params.delta * scale, lambda_c=params.lambda_c * scale,
                              omega=params.omega * scale, kappa=params.kappa * scale)
        times = np.linspace(0.0, 3.0, 31) * params.operating_time
        expected, got = decay_coefficients(params, times), decay_coefficients(scaled, times / scale)
        for a, b in ((got.alpha, expected.alpha), (got.beta, expected.beta)):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_weight_never_exceeds_one(self):
        for t in np.linspace(0.0, 30.0, 50):
            assert decay_coefficients(self.DECAYING, t).weight <= 1.0 + 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overdamped_large_kappa_t_finite(self):
        # cosh and sinh of phi t/2 overflow here; the envelope decays faster.
        params = SystemParams(delta=10.0, lambda_c=1.0, omega=1.0, kappa=1.0)
        for t in (1500.0, 2000.0, 1e5):
            c = decay_coefficients(params, t)
            assert np.isfinite(c.alpha) and np.isfinite(c.beta)
            assert 0.0 <= c.weight < 1e-12

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
            schrodinger_evolve(h, psi, 1.0, IntegratorConfig(dt=1e-3))

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
        rho0 = to_density_matrix(ground_vacuum(h.space))
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
        rho0 = to_density_matrix(StateVector(space, [0, 1]))
        out = lindblad_evolve(h, [(kappa, a)], rho0, t, IntegratorConfig(dt=1e-3))
        assert out.elements[1, 1].real == pytest.approx(np.exp(-kappa * t), abs=1e-8)

    def test_upper_level_total_decay_rate(self):
        # Prepared in fL with only spontaneous channels: the two branches at
        # gamma_a/2 drain the level at total rate gamma_a.
        params = SystemParams(delta=20.0, lambda_c=0.0, omega=0.0, gamma_a=0.35)
        space = full_space(1)
        h = Operator(space, np.zeros((space.total_dim,) * 2), hermitian=True)
        i_f = space.basis_index(FULL_LEVELS.index("fL"), 0, 0)
        rho0 = to_density_matrix(basis_state(space, FULL_LEVELS.index("fL"), 0, 0))
        t = 2.4
        out = lindblad_evolve(h, collapse_operators(params), rho0, t, IntegratorConfig(dt=1e-3))
        assert out.elements[i_f, i_f].real == pytest.approx(np.exp(-params.gamma_a * t), abs=1e-8)

    def test_preserves_density_properties(self):
        params = SystemParams(delta=14.0, lambda_c=2.86, omega=2.9, kappa=0.1, gamma_a=0.1)
        h = full_hamiltonian(params)
        rho0 = to_density_matrix(ground_vacuum(h.space))
        out = lindblad_evolve(h, collapse_operators(params), rho0, 1.0, IntegratorConfig(dt=1e-3))
        m = out.elements
        assert abs(np.trace(m).real - 1.0) < 1e-8
        assert np.max(np.abs(m - m.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(m)) > -1e-8

    def test_rejects_mismatched_spaces(self):
        h = Operator(HilbertSpace.of(("s", 2)), np.zeros((2, 2)), hermitian=True)
        rho = DensityMatrix(HilbertSpace.of(("t", 2)), np.eye(2) / 2)
        with pytest.raises(ValueError, match="mismatch"):
            lindblad_evolve(h, [], rho, 1.0, IntegratorConfig(dt=1e-3))

    def test_rejects_negative_rate(self):
        space = HilbertSpace.of(("s", 2))
        h = Operator(space, np.zeros((2, 2)), hermitian=True)
        a = Operator(space, np.array([[0, 1], [0, 0]], dtype=complex))
        rho = DensityMatrix(space, np.eye(2) / 2)
        with pytest.raises(ValueError, match="non-negative"):
            lindblad_evolve(h, [(-0.1, a)], rho, 1.0, IntegratorConfig(dt=1e-3))

    @pytest.mark.parametrize("dt", [0.09, 1.0])
    def test_rejects_step_beyond_rk4_stability(self, dt):
        # 2 ||H|| + sum rate ||c^dag c|| is about 39.9 here, so RK4 is
        # stable only up to dt ~ 0.0709.
        params = SystemParams(delta=14.0, lambda_c=2.86, omega=2.9, kappa=0.1, gamma_a=0.1)
        h = full_hamiltonian(params)
        rho0 = to_density_matrix(ground_vacuum(h.space))
        with pytest.raises(ValueError, match="dt.*stability"):
            lindblad_evolve(h, collapse_operators(params), rho0, 1.0, IntegratorConfig(dt=dt))


class TestStepBudget:
    @pytest.mark.parametrize("dt", [1e-300, 1e-9, 2.9e-5])
    def test_too_many_steps_rejected_before_stepping(self, monkeypatch, dt):
        # t = 3 over dt = 2.9e-5 is about 1.03e5 steps, just over the budget.
        steps = []
        integrate = dynamics._rk4_propagate

        def counting(rhs, y0, t, step):
            def counted(y):
                steps.append(t)
                return rhs(y)
            return integrate(counted, y0, t, step)

        monkeypatch.setattr(dynamics, "_rk4_propagate", counting)
        params = SystemParams(delta=14.0, lambda_c=2.86, omega=2.9, kappa=0.1, gamma_a=0.1)
        h = full_hamiltonian(params)
        rho0 = to_density_matrix(ground_vacuum(h.space))
        with pytest.raises(ValueError, match="dt = .* RK4 steps"):
            propagate_matrix(h, collapse_operators(params), rho0.elements, 3.0, IntegratorConfig(dt=dt))
        with pytest.raises(ValueError, match="dt = .* RK4 steps"):
            schrodinger_evolve(h, ground_vacuum(h.space), 3.0, IntegratorConfig(dt=dt))
        assert steps == []


class TestArrayTimes:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_time_in_array_rejected(self, bad):
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.01)
        with pytest.raises(ValueError, match="t must be a finite non-negative time"):
            decay_coefficients(params, np.array([0.0, 1.0, bad, 2.0]))

    def test_weight_of_array(self):
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.01)
        t = np.linspace(0.0, 40.0, 9)
        weights = decay_coefficients(params, t).weight
        assert weights.shape == t.shape
        assert weights == pytest.approx([decay_coefficients(params, tk).weight for tk in t.tolist()],
                                        rel=1e-15, abs=0.0)


def bits(value):
    """The hex of a number's real and imaginary parts, signed zeros included."""
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def seeded_drives(count=60):
    """(params, times) at seeded drives, every other one symmetric: kappa 0,
    up to 10, or 1e3 to 1e8 times the light-shift sum S, and times 0, one in
    the 1e-6 series window, within 3 operating times, and 3 and 50 of them."""
    rng = np.random.default_rng(30)
    for k in range(count):
        delta = float(np.exp(rng.uniform(np.log(0.5), np.log(300.0))))
        lambda_c = float(rng.uniform(0.05, 5.0))
        omega = lambda_c if k % 2 else float(rng.uniform(0.05, 5.0))
        shift = (lambda_c**2 + omega**2) / delta
        kappa = (0.0, float(rng.uniform(0.0, 10.0)), shift * 10.0 ** float(rng.uniform(3.0, 8.0)))[k % 3]
        params = SystemParams(delta=delta, lambda_c=lambda_c, omega=omega, kappa=kappa)
        top = params.operating_time
        times = np.array([0.0, float(rng.uniform(0.0, 1e-7)) / (kappa + shift),
                          float(rng.uniform(0.0, 3.0)) * top, 3.0 * top, 50.0 * top])
        yield params, times


class TestTimeAloneMatchesArray:
    """A time alone and the same time in an array give the same bits."""

    def test_transfer_amplitudes(self):
        for params, times in seeded_drives():
            grid = decay_coefficients(params, times)
            for k, t in enumerate(times.tolist()):
                alone = decay_coefficients(params, t)
                assert (bits(alone.alpha), bits(alone.beta)) == (bits(grid.alpha[k]), bits(grid.beta[k])), (params, t)

    @pytest.mark.parametrize("route", [pd_closed_form, pd_numeric])
    def test_success_probability(self, route):
        drives = [(params, times) for params, times in seeded_drives() if params.lambda_c == params.omega]
        assert len(drives) == 30
        for params, times in drives:
            grid = route(params, times)
            for k, t in enumerate(times.tolist()):
                assert route(params, t).hex() == float(grid[k]).hex(), (params, t)

    def test_infinite_fast_phase(self):
        # (kappa + S) t overflows while the rates and t are finite: a
        # non-finite result, which the callers refuse, and the same one
        # either way.
        asymmetric = SystemParams(delta=1e-300, lambda_c=1.0, omega=0.5)
        symmetric = SystemParams(delta=1e-300, lambda_c=1.0, omega=1.0)
        times = np.array([0.0, 1e10])
        values = []
        with np.errstate(over="ignore", invalid="ignore"):
            for params in (asymmetric, symmetric):
                alone, grid = decay_coefficients(params, 1e10), decay_coefficients(params, times)
                values += [(alone.alpha, grid.alpha[1]), (alone.beta, grid.beta[1])]
            values += [(route(symmetric, 1e10), route(symmetric, times)[1]) for route in (pd_closed_form, pd_numeric)]
        for alone, element in values:
            assert not np.isfinite(alone)
            assert bits(alone) == bits(element)


class TestPhaseResolution:
    # (kappa + light-shift sum) = 0.01 + 0.05 + 0.05: the fast phase reaches
    # 2^50 rad at t = 2^50 / 0.11.
    PARAMS = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.01)
    LIMIT = 2.0**50 / 0.11

    @pytest.mark.parametrize("route", ["decay", "closed"])
    def test_time_past_resolution_rejected(self, route):
        call = decay_coefficients if route == "decay" else pd_closed_form
        for t in (0.99 * self.LIMIT, np.array([0.0, 0.99 * self.LIMIT])):
            call(self.PARAMS, t)
        for t in (1.01 * self.LIMIT, 1e308, np.array([0.0, 1.01 * self.LIMIT, 1.0])):
            with pytest.raises(ValueError, match="past double resolution"):
                call(self.PARAMS, t)

    def test_drive_past_float_range_rejected(self):
        # Light shifts (1e170 * 1e160) past the float range: refused by name,
        # at a time as at an array of times, instead of dividing by t = 0.
        params = SystemParams(delta=1e-10, lambda_c=1e160, omega=1e160)
        for t in (0.0, np.array([0.0, 1.0])):
            with pytest.raises(ValueError, match="fields 'lambda_c', 'omega' and 'delta': a light shift "
                                                 r"\(inf, inf\) or the Raman coupling .* past the float range"):
                decay_coefficients(params, t)

    def test_overdamped_cavity_counts(self):
        # Past critical damping the envelope's exponent is a difference of
        # terms of size kappa t, so kappa alone can exhaust the resolution.
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=1e10)
        decay_coefficients(params, 1e4)
        with pytest.raises(ValueError, match="t = 1000000.0 puts the fast phase"):
            decay_coefficients(params, 1e6)


class TestPropagateMatrix:
    def test_stack_equals_separate_calls(self):
        params = SystemParams(delta=14.0, lambda_c=2.86, omega=2.9, kappa=0.1, gamma_a=0.1)
        h, collapse = full_hamiltonian(params), collapse_operators(params)
        rng = np.random.default_rng(5)
        dim = h.space.total_dim
        stack = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim, dim))
        cfg = IntegratorConfig(dt=1e-2)
        out = propagate_matrix(h, collapse, stack, 0.7, cfg)
        for k in range(3):
            assert np.array_equal(out[k], propagate_matrix(h, collapse, stack[k], 0.7, cfg))


class TestIntegratorConfig:
    def test_positive_step_required(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)


def block_is_state(m):
    """Whether M is Hermitian PSD with populations at most 1, to 1e-12."""
    return (abs(m[0, 1] - np.conj(m[1, 0])) == 0.0 and np.all(np.diag(m).imag == 0.0)
            and np.linalg.eigvalsh(m).min() >= -1e-12 and np.diag(m).real.max() <= 1.0 + 1e-12)


NOISY_UNIT = dict(delta=st.floats(1.0, 300.0), lambda_c=st.floats(0.1, 5.0), omega=st.floats(0.1, 5.0),
                  kappa=st.floats(0.0, 10.0), gamma_a=st.floats(0.0, 10.0), fraction=st.floats(0.0, 3.0))


class TestEmittedBlock:
    @settings(max_examples=200, deadline=None)
    @given(**NOISY_UNIT)
    def test_is_a_state(self, delta, lambda_c, omega, kappa, gamma_a, fraction):
        params = SystemParams(delta=delta, lambda_c=lambda_c, omega=omega, kappa=kappa, gamma_a=gamma_a)
        assert block_is_state(emitted_block(params, fraction * params.operating_time))

    @settings(max_examples=8, deadline=None)
    @given(**NOISY_UNIT)
    def test_matches_full_space_exponential(self, delta, lambda_c, omega, kappa, gamma_a, fraction):
        # scipy's expm of the whole unit's 576x576 Liouvillian.  Its scaling
        # and squaring rounds the slow modes by up to 2^-52 per radian of
        # delta t (2.0e-10 at delta = 300, lambda_c = omega = 0.1 and three
        # operating times, where the route is within 2.2e-15 of a 40-digit
        # reference), so the bound grows past 1e-10 with it.
        params = SystemParams(delta=delta, lambda_c=lambda_c, omega=omega, kappa=kappa, gamma_a=gamma_a)
        t = fraction * params.operating_time
        oracle = block_of(unit_outputs(params, t))
        assert np.max(np.abs(emitted_block(params, t) - oracle)) <= max(1e-10, 2.0**-52 * delta * t)

    @pytest.mark.parametrize("params, population, coherence", [
        (SystemParams(delta=300.0, lambda_c=0.1, omega=0.1, gamma_a=10.0), 0.8924050441737653, 0.8599516849651274),
        (SystemParams(delta=300.0, lambda_c=0.1, omega=0.1), 0.9999999999989034, 0.9999999999989034),
    ], ids=["spontaneous", "lossless"])
    def test_matches_high_precision_reference_at_long_times(self, params, population, coherence):
        # Three operating times at the far corner of the range above, where
        # delta t is 4e7 rad.  The references are a 40-digit exponential of
        # the 9x9 branch generators (mpmath), made once.
        m = emitted_block(params, 3.0 * params.operating_time)
        assert np.max(np.abs(m - [[population, coherence], [coherence, population]])) <= 1e-14

    @pytest.mark.parametrize("params, t", [
        (SystemParams(delta=1e200, lambda_c=1.0, omega=1.0), None),
        (SystemParams(delta=14.0, lambda_c=2.86, omega=2.9), 1.7e308),
        (SystemParams(delta=1e20, lambda_c=1e10, omega=1e10), None),
    ], ids=["delta-t", "fast-phase", "squarings"])
    def test_generator_past_float_range_rejected(self, params, t):
        # At the first operating time the fast phase is pi, but delta t is
        # past the float range; at the second the phase itself is.  At the
        # third delta t is 1.6e20, finite, but 69 squarings overflow; no
        # RuntimeWarning may escape on the way to the refusal.
        t = params.operating_time if t is None else t
        with pytest.raises(ValueError, match=re.escape(f"t = {t!r} puts the unit's generator")):
            emitted_block(params, t)

    @pytest.mark.parametrize("delta", [1e6, 1e16])
    def test_far_detuned_drive_emits(self, delta):
        # lambda_c = omega = sqrt(delta): light shifts of 1, so the operating
        # time is pi/2 and the lossless unit emits fully (to 1e-11 at
        # delta = 1e6, below 1e-15 from 1e10), through up to 55 squarings.
        params = SystemParams(delta=delta, lambda_c=delta**0.5, omega=delta**0.5)
        assert np.max(np.abs(emitted_block(params, params.operating_time) - 1.0)) <= 1e-10

    def test_far_detuned_scan_refused_by_name_or_emits(self):
        # delta = 10^14 ... 10^18 in steps of 10^0.02 at light shifts of 1.
        # Bounded only by the eliminated model's fast phase, drives from
        # 10^16.98 on raised "not a state" or returned blocks off full
        # emission by more than 1e-10 (21 of them; which ones depends on the
        # rounding of delta).  Each drive is now refused by its generator's
        # norm, from one delta above 1e16 on, or emits fully.
        refused = []
        for delta in np.logspace(14.0, 18.0, 201).tolist():
            params = SystemParams(delta=delta, lambda_c=delta**0.5, omega=delta**0.5)
            t = params.operating_time
            try:
                block = emitted_block(params, t)
            except ValueError as exc:
                assert str(exc).startswith(f"t = {t!r} puts the unit's generator times t at norm ")
                refused.append(delta)
                continue
            assert not refused, delta
            assert np.max(np.abs(block - 1.0)) <= 1e-10, delta
        assert 1e16 < refused[0] <= 10**16.98 and refused[-1] == 1e18

    def test_slow_drive_past_fast_phase_resolution_accepted(self):
        # The eliminated model's fast phase (kappa + light shifts) t is 2e15
        # rad here, past its 2^50 bound, yet the unit's generator times t is
        # of norm 4002, and the block matches the whole-space exponential.
        params = SystemParams(delta=1e-12, lambda_c=1.0, omega=1.0, kappa=0.001, gamma_a=0.002)
        block = emitted_block(params, 1000.0)
        assert np.max(np.abs(block - block_of(unit_outputs(params, 1000.0)))) <= 1e-10
        assert block[0, 0].real == pytest.approx(0.0614214673, abs=1e-10)


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

    @pytest.mark.parametrize("params", [
        SYMMETRIC,
        ASYMMETRIC,
        SystemParams(delta=14.0, lambda_c=2.86, omega=2.9),
        SystemParams(delta=2.0, lambda_c=1.0, omega=0.6),
        SystemParams(delta=20.0, lambda_c=0.0, omega=1.0),
        SystemParams(delta=20.0, lambda_c=1.3, omega=0.9, kappa=0.2),
    ], ids=["symmetric", "asymmetric", "reference", "near-resonant", "no-cavity", "kappa-ignored"])
    def test_matches_tensor_space_oracle(self, params):
        grid = self.one_period_grid(params) if params.lambda_c else np.linspace(0.0, 20.0, 40)
        self.assert_matches_oracle(compare_full_vs_effective(params, grid), tensor_space_deviation(params, grid))

    @staticmethod
    def assert_matches_oracle(report, oracle):
        assert len(report.points) == len(oracle.points)
        for got, expected in zip(report.points, oracle.points):
            assert got.time == expected.time
            assert abs(got.distance - expected.distance) <= 1e-12
            assert abs(got.leakage - expected.leakage) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(detuning=st.floats(2.0, 200.0), lambda_c=st.floats(0.1, 3.0), omega=st.floats(0.1, 3.0),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    def test_random_drives_match_tensor_space_oracle(self, detuning, lambda_c, omega, fractions):
        # A double-precision diagonalisation of the six-level block leaves a
        # phase error of order 1e-16 r t, with r = Delta + lambda_c + Omega
        # bounding its spectrum: measured against a 40-digit reference, both
        # routes stray about 1e-12 at r t ~ 1e4, and agree with each other no
        # better.  The grid stops at r t = 2000.
        params = SystemParams(delta=detuning * lambda_c, lambda_c=lambda_c, omega=omega)
        horizon = 2000.0 / (params.delta + params.lambda_c + params.omega)
        grid = [0.0, *(horizon * f for f in fractions)]
        report = compare_full_vs_effective(params, grid)
        self.assert_matches_oracle(report, tensor_space_deviation(params, grid))
        # Both are physical distances and populations, up to rounding.
        for point in report.points:
            assert 0.0 <= point.distance <= 1.0 + 1e-12
            assert 0.0 <= point.leakage <= 1.0 + 1e-12
        assert report.points[0].distance <= 1e-12

    def test_same_report_at_any_fock_cutoff(self):
        # From |gL, vacuum> no second photon is ever made, so the tensor-space
        # oracle gives the branch block's report at every cutoff.
        params = SystemParams(delta=14.0, lambda_c=2.86, omega=2.9)
        grid = self.one_period_grid(params)
        report = compare_full_vs_effective(params, grid)
        for n_max in (1, 2, 3):
            self.assert_matches_oracle(report, tensor_space_deviation(params, grid, n_max))

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_time_rejected(self, bad):
        with pytest.raises(ValueError, match="t must be a finite non-negative time"):
            compare_full_vs_effective(SYMMETRIC, [0.0, 1.0, bad])

    @pytest.mark.parametrize("grid", [[], np.empty(0), np.zeros((2, 2))], ids=["list", "array", "matrix"])
    def test_grid_must_be_non_empty_and_flat(self, grid):
        with pytest.raises(ValueError, match="t_grid must be a non-empty one-dimensional grid"):
            compare_full_vs_effective(SYMMETRIC, grid)

