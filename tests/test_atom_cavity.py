
from dataclasses import fields

import numpy as np
import pytest
from unit_reference import (
    conditional_hamiltonian,
    effective_embedding,
    effective_hamiltonian,
    effective_space,
    unit_channels,
    unit_hamiltonian,
    unit_space,
)

from w2ghz.atom_cavity import (
    DOCUMENT_FIELDS,
    EFFECTIVE_LEVELS,
    FULL_LEVELS,
    SystemParams,
    collapse_operators,
    full_hamiltonian,
    full_space,
)

PARAMS = SystemParams(delta=20.0, lambda_c=1.3, omega=0.9, kappa=0.05, gamma_a=0.02)


def full_index(level, n_l, n_r):
    return full_space().basis_index(FULL_LEVELS.index(level), n_l, n_r)


def eff_index(level, n_l, n_r, n_max=1):
    return effective_space(n_max).basis_index(EFFECTIVE_LEVELS.index(level), n_l, n_r)


class TestSystemParams:
    @pytest.mark.parametrize("bad, error", [
        (dict(delta=0.0, lambda_c=1.0, omega=1.0), ValueError),
        (dict(delta=-1.0, lambda_c=1.0, omega=1.0), ValueError),
        (dict(delta=1.0, lambda_c=-0.1, omega=1.0), ValueError),
        (dict(delta=1.0, lambda_c=1.0, omega=1.0, kappa=-2.0), ValueError),
        (dict(delta=1.0, lambda_c=1.0, omega=1.0, gamma_a=-1e-9), ValueError),
        (dict(delta=1.0, lambda_c=1.0, omega=1.0, eta_d=1.5), ValueError),
        (dict(delta=1.0, lambda_c=1.0, omega=1.0, eta_d=-0.2), ValueError),
        # The Fock cutoff is no field: one photon per mode is the model.
        (dict(delta=1.0, lambda_c=1.0, omega=1.0, n_max=0), TypeError),
    ], ids=[f"bad{k}" for k in range(8)])
    def test_invalid_params_rejected(self, bad, error):
        with pytest.raises(error):
            SystemParams(**bad)

    def test_cutoff_the_benchmark_reads(self):
        # The benchmark passes params.n_max to full_space; nothing can set it.
        params = SystemParams(delta=1.0, lambda_c=1.0, omega=1.0)
        assert params.n_max == 1
        assert full_space(params.n_max).total_dim == 24
        assert tuple(field.name for field in fields(SystemParams)) == DOCUMENT_FIELDS
        with pytest.raises(TypeError, match="n_max"):
            SystemParams(delta=1.0, lambda_c=1.0, omega=1.0, n_max=2)

    @pytest.mark.parametrize("field", ["delta", "lambda_c", "omega", "kappa", "gamma_a", "eta_d"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_params_rejected(self, field, value):
        doc = {"delta": 1.0, "lambda_c": 1.0, "omega": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SystemParams(**doc)

    def test_adiabatic_advisory_threshold(self):
        assert not SystemParams(delta=10.0, lambda_c=1.0, omega=0.5).adiabatic_advisory
        assert SystemParams(delta=9.9, lambda_c=1.0, omega=0.5).adiabatic_advisory
        assert SystemParams(delta=14.0, lambda_c=2.86, omega=2.9).adiabatic_advisory

    def test_branch_rate_is_half_total(self):
        assert SystemParams(delta=5.0, lambda_c=1.0, omega=1.0, gamma_a=0.4).branch_rate == 0.2

    def test_operating_time_needs_a_drive(self):
        assert SystemParams(delta=20.0, lambda_c=0.0, omega=1.0).operating_time == pytest.approx(20.0 * np.pi)
        for undriven in (SystemParams(delta=20.0, lambda_c=0.0, omega=0.0),
                         SystemParams(delta=1e300, lambda_c=1e-200, omega=0.0)):
            with pytest.raises(ValueError, match="lambda_c=.*omega="):
                undriven.operating_time

    @pytest.mark.parametrize("scale", [1e-160, 1e-100, 1.0, 1e100, 1e150])
    def test_operating_time_is_scale_free(self, scale):
        # Rates times s and times over s: the ratios come first, so no square
        # leaves the float range on the way.
        reference = SystemParams(delta=14.0, lambda_c=2.86, omega=2.9)
        scaled = SystemParams(delta=14.0 * scale, lambda_c=2.86 * scale, omega=2.9 * scale)
        assert scaled.operating_time * scale == pytest.approx(reference.operating_time, rel=1e-15)
        assert scaled.eta / scale == pytest.approx(reference.eta, rel=1e-15)

    @pytest.mark.parametrize("params", [
        SystemParams(delta=20.0, lambda_c=1e200, omega=1e200),
        SystemParams(delta=1e-310, lambda_c=1.0, omega=1.0),
    ], ids=["huge-drive", "subnormal-detuning"])
    def test_operating_time_past_float_range_is_value_error(self, params):
        with pytest.raises(ValueError, match="lambda_c=.*omega="):
            params.operating_time

    def test_json_roundtrip(self):
        doc = PARAMS.to_json_dict()
        assert tuple(doc) == DOCUMENT_FIELDS
        assert SystemParams.from_json_dict(doc) == PARAMS

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SystemParams.from_json_dict({"delta": 1.0, "lambda_c": 1.0, "omega": 1.0, "extra": 2})

    def test_non_numeric_field_rejected(self):
        with pytest.raises(ValueError, match="'delta'"):
            SystemParams.from_json_dict({"delta": "big", "lambda_c": 1.0, "omega": 1.0})

    def test_integer_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="field 'delta'"):
            SystemParams.from_json_dict({"delta": 10**400, "lambda_c": 1.0, "omega": 1.0})

    def test_fractional_n_max_rejected(self):
        # The Fock cutoff is no field: a document holding n_max is refused
        # as an unknown field, whatever its value.
        for n_max in (1.5, 1, 2, "1", None):
            with pytest.raises(ValueError, match=r"unknown params field\(s\): \['n_max'\]"):
                SystemParams.from_json_dict({"delta": 1.0, "lambda_c": 1.0, "omega": 1.0, "n_max": n_max})


@pytest.mark.parametrize("document, message", [
    ([], "params document must be a JSON object, got list"),
], ids=["not-an-object"])
def test_document_refused(document, message):
    with pytest.raises(ValueError, match=message):
        SystemParams.from_json_dict(document)


class TestFullHamiltonian:
    def test_is_hermitian(self):
        h = full_hamiltonian(PARAMS).elements
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_drive_element(self):
        h = full_hamiltonian(PARAMS).elements
        assert h[full_index("fL", 0, 0), full_index("gL", 0, 0)] == pytest.approx(PARAMS.omega)
        assert h[full_index("fR", 0, 0), full_index("gR", 0, 0)] == pytest.approx(PARAMS.omega)

    def test_cavity_coupling_element(self):
        h = full_hamiltonian(PARAMS).elements
        assert h[full_index("fL", 0, 0), full_index("eL", 1, 0)] == pytest.approx(PARAMS.lambda_c)
        assert h[full_index("fR", 0, 0), full_index("eR", 0, 1)] == pytest.approx(PARAMS.lambda_c)

    def test_no_cross_branch_terms(self):
        h = full_hamiltonian(PARAMS).elements
        assert h[full_index("fL", 0, 0), full_index("fR", 0, 0)] == 0.0
        assert h[full_index("fL", 0, 0), full_index("gR", 0, 0)] == 0.0

    def test_detuning_on_upper_levels(self):
        h = full_hamiltonian(PARAMS).elements
        for f in ("fL", "fR"):
            assert h[full_index(f, 0, 0), full_index(f, 0, 0)] == pytest.approx(PARAMS.delta)

    def test_higher_cutoff_scales_coupling(self):
        # On the test-side unit, which the whole-space oracles run at any
        # cutoff: a_L takes |eL,2,0> to sqrt2 |eL,1,0>.
        params = SystemParams(delta=20.0, lambda_c=1.3, omega=0.9)
        h = unit_hamiltonian(params, n_max=2).elements
        got = h[unit_space(2).basis_index(FULL_LEVELS.index("fL"), 1, 0),
                unit_space(2).basis_index(FULL_LEVELS.index("eL"), 2, 0)]
        assert got == pytest.approx(np.sqrt(2.0) * params.lambda_c)

    def test_matches_test_side_unit(self):
        # The test-side unit shares no code with these builders; at one
        # photon per mode every entry is a rate times 0 or 1, so both agree
        # exactly.
        assert np.array_equal(full_hamiltonian(PARAMS).elements, unit_hamiltonian(PARAMS).elements)
        channels = collapse_operators(PARAMS)
        assert len(channels) == len(unit_channels(PARAMS))
        for (rate, op), (oracle_rate, oracle) in zip(channels, unit_channels(PARAMS)):
            assert rate == oracle_rate
            assert np.array_equal(op.elements, oracle.elements)


class TestEffectiveHamiltonian:
    def test_is_hermitian(self):
        h = effective_hamiltonian(PARAMS).elements
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_raman_coupling_element(self):
        h = effective_hamiltonian(PARAMS).elements
        expected = -PARAMS.lambda_c * PARAMS.omega / PARAMS.delta
        assert h[eff_index("gL", 0, 0), eff_index("eL", 1, 0)] == pytest.approx(expected)

    def test_stark_shifts(self):
        h = effective_hamiltonian(PARAMS).elements
        assert h[eff_index("eL", 1, 0), eff_index("eL", 1, 0)] == pytest.approx(-PARAMS.lambda_c**2 / PARAMS.delta)
        assert h[eff_index("eL", 0, 0), eff_index("eL", 0, 0)] == 0.0
        assert h[eff_index("gL", 0, 0), eff_index("gL", 0, 0)] == pytest.approx(-PARAMS.omega**2 / PARAMS.delta)

    def test_single_excitation_block(self):
        h = effective_hamiltonian(PARAMS).elements
        idx = [eff_index("gL", 0, 0), eff_index("eL", 1, 0)]
        block = h[np.ix_(idx, idx)]
        expected = -np.array([[PARAMS.omega**2, PARAMS.lambda_c * PARAMS.omega],
                              [PARAMS.lambda_c * PARAMS.omega, PARAMS.lambda_c**2]]) / PARAMS.delta
        assert np.max(np.abs(block - expected)) < 1e-14

    def test_zero_drive_decouples_ground(self):
        params = SystemParams(delta=20.0, lambda_c=1.3, omega=0.0)
        h = effective_hamiltonian(params).elements
        assert h[eff_index("gL", 0, 0), eff_index("eL", 1, 0)] == 0.0
        # |g> column is then fully diagonal: the ground population is frozen.
        col = h[:, eff_index("gL", 0, 0)].copy()
        col[eff_index("gL", 0, 0)] = 0.0
        assert np.max(np.abs(col)) == 0.0


class TestConditionalHamiltonian:
    def test_zero_decay_matches_effective(self):
        params = SystemParams(delta=20.0, lambda_c=1.3, omega=0.9, kappa=0.0)
        assert np.array_equal(conditional_hamiltonian(params).elements,
                              effective_hamiltonian(params).elements)

    def test_anti_hermitian_part_counts_photons(self):
        h = conditional_hamiltonian(PARAMS).elements
        anti = (h - h.conj().T) / 2.0
        assert anti[eff_index("eL", 1, 0), eff_index("eL", 1, 0)] == pytest.approx(-1j * PARAMS.kappa)
        assert anti[eff_index("gL", 1, 1), eff_index("gL", 1, 1)] == pytest.approx(-2j * PARAMS.kappa)
        assert anti[eff_index("gL", 0, 0), eff_index("gL", 0, 0)] == 0.0

    def test_emitted_diagonal_element(self):
        h = conditional_hamiltonian(PARAMS).elements
        expected = -PARAMS.lambda_c**2 / PARAMS.delta - 1j * PARAMS.kappa
        assert h[eff_index("eL", 1, 0), eff_index("eL", 1, 0)] == pytest.approx(expected)

    def test_spectrum_decays_only(self):
        eigs = np.linalg.eigvals(conditional_hamiltonian(PARAMS).elements)
        assert np.max(eigs.imag) < 1e-12


class TestCollapseOperators:
    def test_six_channels(self):
        ops = collapse_operators(PARAMS)
        assert len(ops) == 6

    def test_rates(self):
        ops = collapse_operators(PARAMS)
        rates = [rate for rate, _ in ops]
        assert rates[:2] == [PARAMS.kappa, PARAMS.kappa]
        assert all(r == PARAMS.gamma_a / 2 for r in rates[2:])
        assert sum(rates[2:]) == pytest.approx(2 * PARAMS.gamma_a)
        assert all(r >= 0 for r in rates)

    def test_closed_system_limit(self):
        ops = collapse_operators(SystemParams(delta=20.0, lambda_c=1.3, omega=0.9))
        assert all(rate == 0.0 for rate, _ in ops)
        assert len(ops) == 6

    def test_cavity_channels_annihilate(self):
        ops = collapse_operators(PARAMS)
        a_l = ops[0][1].elements
        src = full_index("eL", 1, 0)
        dst = full_index("eL", 0, 0)
        assert a_l[dst, src] == pytest.approx(1.0)
        assert np.sum(np.abs(a_l[:, full_index("eL", 0, 0)])) == 0.0

    def test_atomic_channels_map_upper_to_single_target(self):
        ops = collapse_operators(PARAMS)
        seen = set()
        for _, op in ops[2:]:
            m = op.elements
            col = m[:, full_index("fL", 0, 0)]
            nonzero = np.nonzero(col)[0]
            if nonzero.size:
                assert nonzero.size == 1
                seen.add(int(nonzero[0]))
        assert seen == {full_index("gL", 0, 0), full_index("eL", 0, 0)}


def test_effective_embedding_is_isometry():
    e = effective_embedding(1)
    assert e.shape == (24, 16)
    assert np.array_equal(e.conj().T @ e, np.eye(16))
    # The embedding matches levels by name across the two orderings.
    psi_eff = np.zeros(16)
    psi_eff[eff_index("eR", 1, 0)] = 1.0
    assert np.nonzero(e @ psi_eff)[0][0] == full_index("eR", 1, 0)
