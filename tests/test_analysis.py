import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import w2ghz.analysis as analysis
from w2ghz.analysis import (
    CurvePoint,
    FidelityEstimates,
    SweepSpec,
    fidelity_curve_vs_coupling_ratio,
    fidelity_surface,
    master_equation_estimates,
    params_for_eta_over_kappa,
    pd_closed_form,
    pd_numeric,
    pd_sweep,
    reference_noise_params,
)
from w2ghz.atom_cavity import EMITTED_LEVELS, FULL_LEVELS, SystemParams, full_space
from w2ghz.detection import OutcomeClass, atomic_space, classify_pattern, ghz_pair_states
from w2ghz.dynamics import EvolutionCoefficients, IntegratorConfig, decay_coefficients, propagate_matrix
from w2ghz.photonics import ATOMS, DEFAULT_LAYOUT, NetworkLayout
from w2ghz.protocol import heralded_states, run_protocol

# Coarse but converged step for the master-equation tests (the generator's
# largest rate is the detuning, 14).
FAST = IntegratorConfig(dt=4e-3)
ALIGNED_LAYOUT = NetworkLayout.from_dict({"a": {"V": 7, "H": 7}, "b": {"V": 8, "H": 8}, "c": {"V": 9, "H": 9}})


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
        f250 = master_equation_estimates(reference_noise_params(250.0), cfg=FAST).product_fidelity
        f50 = master_equation_estimates(reference_noise_params(50.0), cfg=FAST).product_fidelity
        assert f250 == pytest.approx(0.9104, abs=0.02)
        assert f50 == pytest.approx(0.9009, abs=0.02)
        assert f250 > f50

    def test_noiseless_fidelity_grows_with_detuning(self):
        values = []
        for scale in (1.0, 2.0, 4.0):
            params = SystemParams(delta=14.0 * scale, lambda_c=2.86, omega=2.9)
            values.append(master_equation_estimates(params, cfg=IntegratorConfig(dt=4e-3 / scale)).product_fidelity)
        # The residual dressing error is first order in the coupling over the
        # detuning, so quadrupling the detuning quarters the infidelity.
        assert values[0] < values[1] < values[2] < 1.0
        assert (1.0 - values[2]) < 0.35 * (1.0 - values[0])
        # Regression baseline for the reference detuning.
        assert values[0] == pytest.approx(0.94286, abs=5e-4)

    @pytest.mark.parametrize("dt", [0.09, 0.2, 100.0])
    def test_step_beyond_rk4_stability_rejected(self, dt):
        params = reference_noise_params(250.0)
        cfg = IntegratorConfig(dt=dt)
        with pytest.raises(ValueError, match="dt"):
            master_equation_estimates(params, cfg=cfg)

    def test_subsystem_fidelity_bounds(self):
        f = master_equation_estimates(reference_noise_params(250.0), cfg=FAST).subsystem_fidelity
        assert 0.0 <= f <= 1.0
        assert master_equation_estimates(reference_noise_params(250.0), cfg=FAST).product_fidelity == f**3

    def test_one_stacked_propagation(self, monkeypatch):
        # The three basis inputs share one integrator call.
        shapes = []

        def counting(h, collapse, m0, t, cfg=None):
            shapes.append(np.shape(m0))
            return propagate_matrix(h, collapse, m0, t, cfg)

        monkeypatch.setattr(analysis, "propagate_matrix", counting)
        master_equation_estimates(reference_noise_params(250.0), cfg=FAST)
        assert shapes == [(3, 24, 24)]

    def test_coherence_trace_drift_rejected(self, monkeypatch):
        # The |gL><gR| input is traceless and must stay so.
        def drifting(h, collapse, m0, t, cfg=None):
            out = propagate_matrix(h, collapse, m0, t, cfg)
            out[2, 0, 0] += 1e-7
            return out

        monkeypatch.setattr(analysis, "propagate_matrix", drifting)
        with pytest.raises(RuntimeError, match="gL-gR"):
            master_equation_estimates(reference_noise_params(250.0), cfg=FAST)

    def test_estimators_reported_together(self):
        est = master_equation_estimates(reference_noise_params(250.0), cfg=FAST)
        assert isinstance(est, FidelityEstimates)
        assert est.product_fidelity == pytest.approx(est.subsystem_fidelity**3)
        # Post-selection filters photon loss, so the conditioned estimator
        # sits above the product estimator.
        assert est.network_fidelity > est.product_fidelity
        assert 0.0 < est.accepted_probability <= 1.0

    def test_network_estimator_ideal_limit(self):
        params = SystemParams(delta=56.0, lambda_c=2.86, omega=2.9)
        est = master_equation_estimates(params, cfg=IntegratorConfig(dt=1e-3))
        assert est.network_fidelity == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("layout", [DEFAULT_LAYOUT, ALIGNED_LAYOUT])
    def test_network_estimator_follows_layout(self, layout):
        # Noiseless and deep in the dispersive regime, estimator b must
        # reproduce the lossless protocol on whatever network it is given.
        params = SystemParams(delta=56.0, lambda_c=2.86, omega=2.86)
        est = master_equation_estimates(params, cfg=IntegratorConfig(dt=1e-3), layout=layout)
        assert est.network_fidelity == pytest.approx(run_protocol(params, layout).fidelity, abs=1e-3)

    @pytest.mark.parametrize("layout", [DEFAULT_LAYOUT, ALIGNED_LAYOUT], ids=["default", "aligned"])
    def test_network_estimator_matches_six_level_loop(self, monkeypatch, layout):
        # Reference: each pattern's noisy state over all six levels of every
        # atom, scored against the GHZ target of its class lifted into them.
        outputs = []

        def recording(h, collapse, m0, t, cfg=None):
            outputs.append(propagate_matrix(h, collapse, m0, t, cfg))
            return outputs[-1]

        monkeypatch.setattr(analysis, "propagate_matrix", recording)
        params = reference_noise_params(50.0)
        est = master_equation_estimates(params, cfg=FAST, layout=layout)
        m_ll, m_rr, m_lr = outputs[0]
        space, n = full_space(params.n_max), len(FULL_LEVELS)
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

        report, conditional = heralded_states(EvolutionCoefficients(0.0, 1.0), layout, 1.0)
        fidelity_acc = probability_acc = 0.0
        for pattern, state in zip(report.conditional_states, conditional):
            ideal = (report.probability(pattern) * state).reshape((2,) * 6)
            rho = np.einsum("ABCabc,AaIi,BbJj,CcKk->IJKijk", ideal, channel, channel, channel).reshape(n**3, n**3)
            ghz = lift @ (plus if classify_pattern(pattern) is OutcomeClass.GHZ_PLUS else minus).amplitudes
            fidelity_acc += np.vdot(ghz, rho @ ghz).real
            probability_acc += np.trace(rho).real
        assert est.accepted_probability == pytest.approx(probability_acc, abs=1e-14)
        assert est.network_fidelity == pytest.approx(fidelity_acc / probability_acc, abs=1e-14)

    @pytest.mark.parametrize("ratio, fidelity, probability", [
        (250.0, 0.999372830951915, 0.6363528423237638),
        (50.0, 0.9969091484067786, 0.6273531013803825),
    ])
    def test_network_estimator_regression(self, ratio, fidelity, probability):
        # Regression baseline for the default layout at dt = 4e-3.
        est = master_equation_estimates(reference_noise_params(ratio), cfg=FAST)
        assert est.network_fidelity == pytest.approx(fidelity, abs=1e-12)
        assert est.accepted_probability == pytest.approx(probability, abs=1e-12)


class TestFidelitySurface:
    def grid_points(self):
        kappas = [0.0, 0.05]
        gammas = [0.0, 0.05]
        return fidelity_surface(kappas, gammas, cfg=FAST)

    def test_monotone_in_both_noise_rates(self):
        points = {(p.kappa_over_gamma, p.gamma_a_over_gamma): p.estimator_a
                  for p in self.grid_points()}
        assert points[(0.0, 0.05)] <= points[(0.0, 0.0)]
        assert points[(0.05, 0.0)] <= points[(0.0, 0.0)]
        assert points[(0.05, 0.05)] <= points[(0.05, 0.0)]
        assert points[(0.05, 0.05)] <= points[(0.0, 0.05)]

    def test_noiseless_corner_is_maximum(self):
        points = self.grid_points()
        corner = next(p for p in points if p.kappa_over_gamma == 0.0 and p.gamma_a_over_gamma == 0.0)
        assert corner.estimator_a == pytest.approx(max(p.estimator_a for p in points))

    def test_coupling_ratio_axis(self):
        points = fidelity_curve_vs_coupling_ratio([50.0, 250.0], cfg=FAST)
        assert len(points) == 2
        assert points[0].gamma_a_over_gamma > points[1].gamma_a_over_gamma
        assert points[0].estimator_a < points[1].estimator_a


def test_curve_point_record_shape():
    point = CurvePoint(0.1, 0.5, 0.5, 0.0)
    assert point.abs_difference == 0.0
