import functools
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from staged_reference import ALIGNED_LAYOUT, ghz_pair_states, lossless_heralded
from unit_reference import block_of, unit_channels, unit_hamiltonian, unit_levels, unit_outputs, unit_space

import w2ghz.analysis as analysis
from w2ghz import dynamics
from w2ghz.analysis import (
    CurvePoint,
    FidelityEstimates,
    SweepSpec,
    master_equation_estimates,
    params_for_eta_over_kappa,
    pd_closed_form,
    pd_numeric,
    pd_sweep,
    pd_sweep_table,
    reference_drive,
    reference_noise_params,
)
from w2ghz.atom_cavity import (
    EMITTED_LEVELS,
    FULL_LEVELS,
    SystemParams,
    branch_levels,
    full_space,
)
from w2ghz.cli import main
from w2ghz.detection import OutcomeClass, atomic_space
from w2ghz.dynamics import decay_coefficients, emitted_block
from w2ghz.photonics import ATOMS, DEFAULT_LAYOUT
from w2ghz.protocol import run_protocol

# Off the reference drive: an asymmetric drive, which the oracles also run at
# a two-photon cutoff, and an overdamped cavity (kappa > 2 lambda_c^2/Delta).
ASYMMETRIC = SystemParams(delta=5.0, lambda_c=1.3, omega=0.7, kappa=0.2, gamma_a=0.3)
OVERDAMPED = SystemParams(delta=3.0, lambda_c=1.0, omega=1.0, kappa=1.5, gamma_a=0.05)


@functools.cache
def rk4_block(params, dt):
    """The emitted block of RK4 at step dt on the whole unit space, at the
    operating time; each RK4 run takes seconds, so tests share it."""
    return block_of(unit_outputs(params, params.operating_time, dt))


def estimate_gap(got, expected):
    """Largest difference over the four FidelityEstimates fields."""
    return max(abs(getattr(got, f.name) - getattr(expected, f.name)) for f in fields(FidelityEstimates))


class TestClosedFormCurve:
    def test_reference_points(self):
        params = params_for_eta_over_kappa(100.0)
        assert pd_closed_form(params, 0.0156582) == pytest.approx(0.715584, abs=5e-4)
        assert pd_closed_form(params, 0.9896) == pytest.approx(0.03853, abs=5e-4)

    def test_zero_decay_limit_is_three_quarters(self):
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=0.0)
        assert pd_closed_form(params, params.operating_time) == pytest.approx(0.75, abs=1e-12)

    def test_identity_with_coefficient_route(self):
        # Overdamped, both sides of critical damping, and underdamped.
        for ratio in (0.1, 0.45, 0.5 * (1 - 1e-10), 0.5 * (1 + 1e-10), 3.0, 10.0, 100.0, 107.3, 250.0):
            spec = SweepSpec("kappa_t", 1e-3, 3.0, 1000, params_for_eta_over_kappa(ratio))
            for point in pd_sweep(spec):
                assert point.abs_difference <= 1e-12 * max(point.closed_form, 1e-300)

    def test_symmetric_drive_required(self):
        params = SystemParams(delta=14.0, lambda_c=2.86, omega=2.9, kappa=0.01)
        with pytest.raises(ValueError, match="require lambda_c == omega"):
            pd_closed_form(params, 1.0)
        with pytest.raises(ValueError, match="require lambda_c == omega"):
            pd_sweep(SweepSpec("kappa_t", 1e-3, 3.0, 10, params))

    def test_overdamped_regime_positive(self):
        # kappa > 2 eta: the oscillation turns into a hyperbolic envelope.
        params = SystemParams(delta=10.0, lambda_c=1.0, omega=1.0, kappa=1.0)
        assert params.kappa > 2 * params.eta
        for t in (0.2, 1.0, 4.0):
            value = pd_closed_form(params, t)
            assert 0.0 <= value < 0.75
            assert value == pytest.approx(pd_numeric(params, t), rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ratio", [0.1, 0.3, 0.45])
    def test_overdamped_large_kappa_t_finite(self, ratio):
        # sinh and cosh of phi t/2 overflow from kappa*t ~ 1500 here, while
        # the decay envelope drives the product to (nearly) zero.
        params = params_for_eta_over_kappa(ratio)
        for kt in (1500.0, 2000.0, 1e5):
            closed, numeric = pd_closed_form(params, kt), pd_numeric(params, kt)
            assert 0.0 <= closed < 1e-20
            assert abs(closed - numeric) <= 1e-12 * closed

    def test_critical_damping_branch(self):
        eta = 1.0 / 20.0
        params = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=2 * eta)
        near = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0, kappa=2 * eta * (1 + 1e-10))
        for t in (0.5, 3.0):
            assert pd_closed_form(params, t) == pytest.approx(pd_closed_form(near, t), rel=1e-6)

    def test_curve_bounded_and_zero_at_origin(self):
        spec = SweepSpec("kappa_t", 1e-4, 5.0, 500, params_for_eta_over_kappa(10.0))
        values = [p.closed_form for p in pd_sweep(spec)]
        assert all(0.0 <= v <= 0.75 for v in values)

    def test_local_maxima_at_odd_half_periods(self):
        # Interior maxima of the curve sit near odd multiples of pi of the
        # oscillation phase phi' t (shifted only by the decay envelope).
        params = params_for_eta_over_kappa(100.0)
        phi_p = np.sqrt(4 * params.eta**2 - params.kappa**2)
        spec = SweepSpec("kappa_t", 1e-3, 0.2, 4000, params)
        points = pd_sweep(spec)
        values = [p.closed_form for p in points]
        for i in range(1, len(values) - 1):
            if values[i] > values[i - 1] and values[i] > values[i + 1]:
                phase = phi_p * points[i].abscissa / params.kappa
                k = round((phase / np.pi - 1) / 2)
                assert abs(phase - (2 * k + 1) * np.pi) < 0.05

    def test_sweep_spec_validation(self):
        params = params_for_eta_over_kappa(10.0)
        with pytest.raises(ValueError, match="steps"):
            SweepSpec("kappa_t", 0.0, 1.0, 1, params)
        with pytest.raises(ValueError, match="minimum"):
            SweepSpec("kappa_t", 2.0, 1.0, 10, params)
        with pytest.raises(ValueError, match="kappa_t"):
            pd_sweep(SweepSpec("delta", 0.1, 1.0, 10, params))


def assert_matches_scalar(grid_value, scalar_value):
    """Within 1e-15 relative, or exactly where the scalar value is 0."""
    if scalar_value == 0:
        assert grid_value == 0
    else:
        assert abs(grid_value - scalar_value) <= 1e-15 * abs(scalar_value)


# eta/kappa of each damping regime (kappa = 1): kappa = 2 eta is critical.
REGIMES = {
    "underdamped": st.floats(0.51, 1000.0),
    "critical": st.sampled_from([0.5 / (1 - 1e-10), 0.5, 0.5 / (1 + 1e-10)]),
    "overdamped": st.floats(0.01, 0.49),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestGridRoute:
    """pd_sweep and array-valued times against per-point scalar calls."""

    @staticmethod
    def check_grid(params, kappa_t):
        t = kappa_t / params.kappa
        closed, numeric = pd_closed_form(params, t), pd_numeric(params, t)
        coeffs = decay_coefficients(params, t)
        assert closed.shape == numeric.shape == coeffs.alpha.shape == coeffs.beta.shape == t.shape
        for k, tk in enumerate(t.ravel().tolist()):
            scalar = decay_coefficients(params, tk)
            assert isinstance(scalar.alpha, complex) and isinstance(scalar.beta, complex)
            assert_matches_scalar(coeffs.alpha.ravel()[k], scalar.alpha)
            assert_matches_scalar(coeffs.beta.ravel()[k], scalar.beta)
            assert_matches_scalar(closed.ravel()[k], pd_closed_form(params, tk))
            assert_matches_scalar(numeric.ravel()[k], pd_numeric(params, tk))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), regime=st.sampled_from(sorted(REGIMES)),
           ends=st.lists(st.floats(0.0, 1e5), min_size=2, max_size=2, unique=True),
           steps=st.integers(2, 40))
    def test_sweep_matches_scalar_calls(self, data, regime, ends, steps):
        params = params_for_eta_over_kappa(data.draw(REGIMES[regime]))
        spec = SweepSpec("kappa_t", min(ends), max(ends), steps, params)
        points = pd_sweep(spec)
        assert [p.abscissa for p in points] == spec.grid().tolist()
        for point in points:
            t = point.abscissa / params.kappa
            closed, numeric = pd_closed_form(params, t), pd_numeric(params, t)
            assert isinstance(closed, float) and isinstance(numeric, float)
            assert_matches_scalar(point.closed_form, closed)
            assert_matches_scalar(point.numeric, numeric)
            assert point.abs_difference == abs(point.closed_form - point.numeric)
        self.check_grid(params, spec.grid())

    @pytest.mark.parametrize("ratio", [100.0, 0.5, 0.3])
    def test_grid_from_zero_across_critical_window(self, ratio):
        # At eta/kappa = 100 both the critical window of pd_closed_form and
        # the small-x series of decay_coefficients end near kappa*t = 1e-8.
        params = params_for_eta_over_kappa(ratio)
        grid = np.concatenate([np.linspace(0.0, 3e-8, 31), [1e-9, 1e-6, 1.0, 1e3, 1e5]])
        self.check_grid(params, grid)
        self.check_grid(params, grid.reshape(4, 9))
        assert pd_closed_form(params, 0.0) == pd_numeric(params, 0.0) == 0.0
        for point in pd_sweep(SweepSpec("kappa_t", 1e-9, 3e-8, 30, params)):
            assert point.abs_difference <= 1e-12 * point.closed_form

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_bad_time_rejected(self, bad):
        params = params_for_eta_over_kappa(10.0)
        for t in (bad, np.array([0.0, bad, 1.0])):
            for route in (pd_closed_form, pd_numeric):
                with pytest.raises(ValueError, match="t must be a finite non-negative time"):
                    route(params, t)

    def test_sweep_evaluates_each_route_once(self, monkeypatch):
        calls = []

        def counted(name, function):
            def wrapper(*args):
                calls.append(name)
                return function(*args)
            return wrapper

        monkeypatch.setattr(analysis, "decay_coefficients", counted("decay", analysis.decay_coefficients))
        monkeypatch.setattr(analysis, "pd_closed_form", counted("closed", analysis.pd_closed_form))
        for ratio in (10.0, 0.3):
            calls.clear()
            assert len(pd_sweep(SweepSpec("kappa_t", 1e-3, 3.0, 1000, params_for_eta_over_kappa(ratio)))) == 1000
            assert sorted(calls) == ["closed", "decay"]

    def test_sweep_steps_capped(self):
        params = params_for_eta_over_kappa(10.0)
        assert SweepSpec("kappa_t", 0.0, 1.0, 10**6, params).steps == 10**6
        for steps in (10**6 + 1, 10**9, 111111111111111111111111111111):
            with pytest.raises(ValueError, match="steps must be at most 1000000"):
                SweepSpec("kappa_t", 0.0, 1.0, steps, params)


class TestRateScaling:
    # Rates are in units of an arbitrary gamma: every rate times s and every
    # time over s must leave each dimensionless output unchanged, over the
    # whole range the arithmetic is meant to cover.
    @given(exponent=st.floats(min_value=-150.0, max_value=150.0),
           delta=st.floats(min_value=1.0, max_value=50.0),
           lambda_c=st.floats(min_value=0.1, max_value=3.0),
           omega=st.floats(min_value=0.1, max_value=3.0),
           kappa=st.floats(min_value=0.0, max_value=0.5),
           gamma_a=st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=60, deadline=None)
    def test_outputs_invariant_under_rate_scaling(self, exponent, delta, lambda_c, omega, kappa, gamma_a):
        s = 10.0**exponent

        def scaled(params):
            return SystemParams(delta=params.delta * s, lambda_c=params.lambda_c * s,
                                omega=params.omega * s, kappa=params.kappa * s, gamma_a=params.gamma_a * s)

        def assert_close(got, expected):
            got, expected = np.asarray(got), np.asarray(expected)
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

        params = SystemParams(delta=delta, lambda_c=lambda_c, omega=omega, kappa=kappa)
        times = np.linspace(0.0, 3.0, 31) * params.operating_time
        expected, got = decay_coefficients(params, times), decay_coefficients(scaled(params), times / s)
        assert_close(got.alpha, expected.alpha)
        assert_close(got.beta, expected.beta)

        symmetric = SystemParams(delta=delta, lambda_c=lambda_c, omega=lambda_c, kappa=kappa)
        times = np.linspace(0.0, 3.0, 31) * symmetric.operating_time
        assert_close(pd_closed_form(scaled(symmetric), times / s), pd_closed_form(symmetric, times))

        expected, got = run_protocol(params), run_protocol(scaled(params))
        assert got.time == pytest.approx(expected.time / s, rel=1e-14)
        assert got.success_probability == pytest.approx(expected.success_probability, rel=1e-12)
        assert got.fidelity == pytest.approx(expected.fidelity, rel=1e-12)

        noisy = replace(params, gamma_a=gamma_a)
        expected, got = master_equation_estimates(noisy), master_equation_estimates(scaled(noisy))
        for field in fields(FidelityEstimates):
            assert getattr(got, field.name) == pytest.approx(getattr(expected, field.name), rel=1e-12, abs=0.0)


class TestBinaryRateScaling:
    # A power-of-two s multiplies every rate and divides every time exactly,
    # so with no absolute rate scale in the package each output is the same
    # float, bit for bit, over TestRateScaling's range, where that test
    # allows 1e-12 for its decimal s.
    @given(k=st.integers(min_value=-150, max_value=150),
           delta=st.floats(min_value=1.0, max_value=50.0),
           lambda_c=st.floats(min_value=0.1, max_value=3.0),
           omega=st.floats(min_value=0.1, max_value=3.0),
           kappa=st.floats(min_value=0.0, max_value=0.5),
           gamma_a=st.floats(min_value=0.0, max_value=0.5))
    # ROADMAP item 13's draw, which TestRateScaling's s = 100 fails by 1.07e-12.
    @example(k=7, delta=45.44064341836843, lambda_c=0.125, omega=0.25, kappa=0.5, gamma_a=0.0)
    @settings(max_examples=60, deadline=None)
    def test_outputs_exact_under_binary_scaling(self, k, delta, lambda_c, omega, kappa, gamma_a):
        s = 2.0**k

        def scaled(params):
            return SystemParams(delta=params.delta * s, lambda_c=params.lambda_c * s,
                                omega=params.omega * s, kappa=params.kappa * s, gamma_a=params.gamma_a * s)

        def same_bits(got, expected):
            return np.asarray(got).tobytes() == np.asarray(expected).tobytes()

        params = SystemParams(delta=delta, lambda_c=lambda_c, omega=omega, kappa=kappa)
        times = np.linspace(0.0, 3.0, 31) * params.operating_time
        expected, got = decay_coefficients(params, times), decay_coefficients(scaled(params), times / s)
        assert same_bits(got.alpha, expected.alpha) and same_bits(got.beta, expected.beta)

        symmetric = SystemParams(delta=delta, lambda_c=lambda_c, omega=lambda_c, kappa=kappa)
        times = np.linspace(0.0, 3.0, 31) * symmetric.operating_time
        assert same_bits(pd_closed_form(scaled(symmetric), times / s), pd_closed_form(symmetric, times))

        expected, got = run_protocol(params), run_protocol(scaled(params))
        assert same_bits([got.time * s, got.success_probability, got.fidelity],
                         [expected.time, expected.success_probability, expected.fidelity])

        noisy = replace(params, gamma_a=gamma_a)
        expected, got = master_equation_estimates(noisy), master_equation_estimates(scaled(noisy))
        assert same_bits([getattr(got, field.name) for field in fields(FidelityEstimates)],
                         [getattr(expected, field.name) for field in fields(FidelityEstimates)])


@pytest.mark.parametrize("call, message", [
    (lambda: pd_sweep_table(SweepSpec("kappa_t", 0.0, 1.0, 10, SystemParams(delta=20.0, lambda_c=1.0, omega=1.0))),
     "decay sweep needs kappa > 0"),
    (lambda: reference_noise_params(0.0), "lambda_c/gamma_a must be positive, got 0.0"),
], ids=["sweep-without-decay", "no-spontaneous-ratio"])
def test_input_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestReferenceParams:
    def test_experimental_convention_pins_cavity(self):
        p250 = reference_noise_params(250.0)
        p50 = reference_noise_params(50.0)
        assert p250.kappa == pytest.approx(2.86 / 250)
        assert p50.kappa == pytest.approx(2.86 / 250)
        assert p50.gamma_a == pytest.approx(2.86 / 50)
        # At the experimental point the two reported rates coincide.
        assert p250.kappa == pytest.approx(p250.gamma_a)


class TestMasterEquationFidelity:
    def test_reported_noise_points(self):
        f250 = master_equation_estimates(reference_noise_params(250.0)).product_fidelity
        f50 = master_equation_estimates(reference_noise_params(50.0)).product_fidelity
        assert f250 == pytest.approx(0.9104, abs=0.02)
        assert f50 == pytest.approx(0.9009, abs=0.02)
        assert f250 > f50

    def test_noiseless_fidelity_grows_with_detuning(self):
        values = []
        for scale in (1.0, 2.0, 4.0):
            params = SystemParams(delta=14.0 * scale, lambda_c=2.86, omega=2.9)
            values.append(master_equation_estimates(params).product_fidelity)
        # The residual dressing error is first order in the coupling over the
        # detuning, so quadrupling the detuning quarters the infidelity.
        assert values[0] < values[1] < values[2] < 1.0
        assert (1.0 - values[2]) < 0.35 * (1.0 - values[0])
        # Regression baseline for the reference detuning.
        assert values[0] == pytest.approx(0.94286, abs=5e-4)

    @pytest.mark.parametrize("dt", [0.09, 0.2, 100.0])
    def test_step_beyond_rk4_stability_rejected(self, dt):
        # The estimator runs no integrator; its RK4 oracle on the whole unit
        # space still refuses a step past the stability limit at the
        # reference drive rather than returning a non-physical state.
        params = reference_noise_params(250.0)
        with pytest.raises(ValueError, match="dt"):
            unit_outputs(params, params.operating_time, dt)

    @pytest.mark.parametrize("t", [float("nan"), -1.0, float("inf"), 1e300])
    def test_bad_time_rejected(self, t):
        # The estimators run at the operating time; the block they read
        # refuses a time that is not finite and non-negative, or past double
        # resolution.
        with pytest.raises(ValueError, match="^t "):
            emitted_block(reference_noise_params(250.0), t)

    def test_subsystem_fidelity_bounds(self):
        f = master_equation_estimates(reference_noise_params(250.0)).subsystem_fidelity
        assert 0.0 <= f <= 1.0
        assert master_equation_estimates(reference_noise_params(250.0)).product_fidelity == f**3

    def test_runs_no_integrator(self, monkeypatch, capsys):
        calls = []

        def spy(function):
            def wrapper(*args, **kwargs):
                calls.append(function.__name__)
                return function(*args, **kwargs)
            return wrapper

        for name in ("propagate_matrix", "_rk4_propagate"):
            monkeypatch.setattr(dynamics, name, spy(getattr(dynamics, name)))
        master_equation_estimates(reference_noise_params(250.0))
        assert main(["fidelity-surface", "--grid-steps", "2"]) == 0
        assert capsys.readouterr().out.count("\n") == 5
        assert calls == []

    def test_non_state_block_rejected(self, monkeypatch):
        # A coherence larger than the populations allow is no state; the
        # third exponential is the coherence block's.
        exact, calls = dynamics._expm_minus_identity, []

        def inflated(x):
            calls.append(x)
            out = exact(x)
            out[8, 0] *= 1.01 if len(calls) == 3 else 1.0
            return out

        monkeypatch.setattr(dynamics, "_expm_minus_identity", inflated)
        with pytest.raises(RuntimeError, match="not a state"):
            master_equation_estimates(reference_noise_params(250.0))

    def test_estimators_reported_together(self):
        est = master_equation_estimates(reference_noise_params(250.0))
        assert isinstance(est, FidelityEstimates)
        assert est.product_fidelity == pytest.approx(est.subsystem_fidelity**3)
        # Post-selection filters photon loss, so the conditioned estimator
        # sits above the product estimator.
        assert est.network_fidelity > est.product_fidelity
        assert 0.0 < est.accepted_probability <= 1.0

    def test_network_estimator_ideal_limit(self):
        params = SystemParams(delta=56.0, lambda_c=2.86, omega=2.9)
        est = master_equation_estimates(params)
        assert est.network_fidelity == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("layout", [DEFAULT_LAYOUT, ALIGNED_LAYOUT])
    def test_network_estimator_follows_layout(self, put_routing, layout):
        # Noiseless and deep in the dispersive regime, estimator b must
        # reproduce the lossless protocol on whatever network is put in
        # place of the paper's.
        put_routing(layout)
        params = SystemParams(delta=56.0, lambda_c=2.86, omega=2.86)
        est = master_equation_estimates(params)
        assert est.network_fidelity == pytest.approx(run_protocol(params).fidelity, abs=1e-3)
        # Only the paper's network gives GHZ states, so the substitution
        # reached both.
        assert (est.network_fidelity > 0.99) == (layout == DEFAULT_LAYOUT)

    @pytest.mark.parametrize("params, layout, n_max", [
        (reference_noise_params(50.0), DEFAULT_LAYOUT, 1),
        (reference_noise_params(50.0), ALIGNED_LAYOUT, 1),
        (ASYMMETRIC, DEFAULT_LAYOUT, 2),
        (OVERDAMPED, DEFAULT_LAYOUT, 1),
        (reference_noise_params(250.0), DEFAULT_LAYOUT, 1),
        (reference_noise_params(250.0), ALIGNED_LAYOUT, 1),
        (ASYMMETRIC, ALIGNED_LAYOUT, 2),
        (OVERDAMPED, ALIGNED_LAYOUT, 1),
    ], ids=["default", "aligned", "n_max-2", "overdamped",
            "250-default", "250-aligned", "n2-al", "od-al"])
    def test_network_estimator_matches_six_level_loop(self, put_routing, params, layout, n_max):
        # Reference: each pattern's noisy state over all six levels of every
        # atom, from the unit's outputs on its whole space at Fock cutoff
        # n_max, scored against the GHZ target of its class lifted into them.
        put_routing(layout)
        est = master_equation_estimates(params)
        m_ll, m_rr, m_lr = unit_outputs(params, params.operating_time, n_max=n_max)
        space, n = unit_space(n_max), len(FULL_LEVELS)
        sel = [[space.basis_index(k, 1, 0) for k in range(n)], [space.basis_index(k, 0, 1) for k in range(n)]]
        channel = np.empty((2, 2, n, n), dtype=np.complex128)
        channel[0, 0] = m_ll[np.ix_(sel[0], sel[0])]
        channel[1, 1] = m_rr[np.ix_(sel[1], sel[1])]
        channel[0, 1] = m_lr[np.ix_(sel[0], sel[1])]
        channel[1, 0] = channel[0, 1].conj().T
        embed = np.zeros((n, len(EMITTED_LEVELS)))
        for k, level in enumerate(EMITTED_LEVELS):
            embed[FULL_LEVELS.index(level), k] = 1.0
        lift = np.kron(np.kron(embed, embed), embed)
        plus, minus = ghz_pair_states(atomic_space(ATOMS))

        # The lossless conditional states and their classes come from the
        # staged pipeline on the same routing, which shares no network or
        # detection code with estimator b.
        fidelity_acc = probability_acc = 0.0
        for probability, state, outcome in lossless_heralded(layout):
            ideal = (probability * state.elements).reshape((2,) * 6)
            rho = np.einsum("ABCabc,AaIi,BbJj,CcKk->IJKijk", ideal, channel, channel, channel).reshape(n**3, n**3)
            ghz = lift @ (plus if outcome is OutcomeClass.GHZ_PLUS else minus).amplitudes
            fidelity_acc += np.vdot(ghz, rho @ ghz).real
            probability_acc += np.trace(rho).real
        assert est.accepted_probability == pytest.approx(probability_acc, abs=1e-14)
        assert est.network_fidelity == pytest.approx(fidelity_acc / probability_acc, abs=1e-14)

    @pytest.mark.parametrize("params, n_max", [(reference_noise_params(250.0), 1), (ASYMMETRIC, 2),
                                               (OVERDAMPED, 1), (reference_noise_params(50.0), 1)],
                             ids=["reference", "n_max-2", "overdamped", "50"])
    def test_subsystem_fidelity_matches_projected_output(self, params, n_max):
        # Oracle: <t|rho_+|t> on the whole unit space at Fock cutoff n_max,
        # rho_+ the output of the (gL + gR)/sqrt2 input by linearity,
        # t = (|eL,1,0> + |eR,0,1>)/sqrt2.
        est = master_equation_estimates(params)
        m_ll, m_rr, m_lr = unit_outputs(params, params.operating_time, n_max=n_max)
        _, _, e_l, e_r = unit_levels(n_max)
        rho_plus = 0.5 * (m_ll + m_rr + m_lr + m_lr.conj().T)
        target = np.zeros(len(m_ll), dtype=np.complex128)
        target[[e_l, e_r]] = 1.0 / np.sqrt(2.0)
        overlap = np.vdot(target, rho_plus @ target).real
        assert est.subsystem_fidelity == pytest.approx(np.sqrt(max(overlap, 0.0)), abs=1e-15)

    @pytest.mark.parametrize("ratio", [250.0, 50.0])
    def test_rk4_oracle_converges_at_fourth_order(self, monkeypatch, ratio):
        # The gap is RK4's own error: halving dt shrinks it about 16-fold.
        params = reference_noise_params(ratio)
        exact = master_equation_estimates(params)
        gaps = []
        for dt in (2e-3, 1e-3):
            monkeypatch.setattr(analysis, "emitted_block", lambda params, t: rk4_block(params, dt))
            gaps.append(estimate_gap(master_equation_estimates(params), exact))
        assert gaps[1] * 12.0 <= gaps[0]

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_branch_levels_are_invariant(self, n_max):
        # The exact route rests on the hand-listed branch levels.  Placed in
        # the test-side unit at Fock cutoff n_max, the Hamiltonian has
        # exactly no entry between them and any other level, and every
        # collapse operator maps them into their branch or into a level
        # reachable from them that nothing maps back into a branch.
        space = unit_space(n_max)
        h = unit_hamiltonian(ASYMMETRIC, n_max).elements
        collapse = [op.elements for _, op in unit_channels(ASYMMETRIC, n_max)]
        branches = [np.isin(np.arange(len(h)), [space.basis_index(*map(int, np.unravel_index(i, full_space().dims)))
                                                for i in branch_levels(j)]) for j in "LR"]
        reached = branches[0] | branches[1]
        for _ in range(len(h)):
            for op in [h, *collapse]:
                reached |= (op[:, reached] != 0).any(axis=1)
        for branch in branches:
            assert np.count_nonzero(h[np.ix_(branch, ~branch)]) == np.count_nonzero(h[np.ix_(~branch, branch)]) == 0
            for c in collapse:
                assert np.count_nonzero(c[np.ix_(branch, reached & ~branch)]) == 0

    @pytest.mark.parametrize("ratio, fidelity, probability", [
        (250.0, 0.9993728312249477, 0.6363534148227254),
        (50.0, 0.9969091496773957, 0.6273536340777546),
    ])
    def test_network_estimator_regression(self, ratio, fidelity, probability):
        # Regression baseline for the default layout.
        est = master_equation_estimates(reference_noise_params(ratio))
        assert est.network_fidelity == pytest.approx(fidelity, abs=1e-12)
        assert est.accepted_probability == pytest.approx(probability, abs=1e-12)


class TestFidelitySurface:
    def grid_points(self):
        return {(kappa, gamma_a): master_equation_estimates(reference_drive(kappa, gamma_a)).product_fidelity
                for kappa in (0.0, 0.05) for gamma_a in (0.0, 0.05)}

    def test_monotone_in_both_noise_rates(self):
        points = self.grid_points()
        assert points[(0.0, 0.05)] <= points[(0.0, 0.0)]
        assert points[(0.05, 0.0)] <= points[(0.0, 0.0)]
        assert points[(0.05, 0.05)] <= points[(0.05, 0.0)]
        assert points[(0.05, 0.05)] <= points[(0.0, 0.05)]

    def test_noiseless_corner_is_maximum(self):
        points = self.grid_points()
        assert points[(0.0, 0.0)] == pytest.approx(max(points.values()))

    def test_coupling_ratio_axis(self):
        params = [reference_noise_params(ratio) for ratio in (50.0, 250.0)]
        assert params[0].kappa == params[1].kappa == reference_drive(0.0, 0.0).lambda_c / 250.0
        assert params[0].gamma_a > params[1].gamma_a
        assert params[0] == reference_drive(params[0].kappa, params[0].gamma_a)
        estimates = [master_equation_estimates(p).product_fidelity for p in params]
        assert estimates[0] < estimates[1]


def test_curve_point_record_shape():
    point = CurvePoint(0.1, 0.5, 0.5, 0.0)
    assert point.abs_difference == 0.0
