import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from unit_reference import propagator, trace_distance

from w2ghz.hilbert import (
    DensityMatrix,
    HilbertSpace,
    Operator,
    StateVector,
    density_stack,
    fidelity,
    validate_density_stack,
)


def qubit(label="q"):
    return HilbertSpace.of((label, 2))


def random_state(space, rng):
    amps = rng.normal(size=space.total_dim) + 1j * rng.normal(size=space.total_dim)
    return StateVector(space, amps / np.linalg.norm(amps))


def random_density(space, rng):
    g = rng.normal(size=(space.total_dim,) * 2) + 1j * rng.normal(size=(space.total_dim,) * 2)
    m = g @ g.conj().T
    return DensityMatrix(space, m / np.trace(m).real)


class TestHilbertSpace:
    def test_total_dim_is_product(self):
        space = HilbertSpace.of(("a", 2), ("b", 3), ("c", 4))
        assert space.total_dim == 24
        assert space.dims == (2, 3, 4)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            HilbertSpace.of(("a", 2), ("a", 3))

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ValueError):
            HilbertSpace.of(("a", 0))

    def test_basis_index_last_subsystem_fastest(self):
        space = HilbertSpace.of(("a", 2), ("b", 3))
        assert space.basis_index(0, 0) == 0
        assert space.basis_index(0, 2) == 2
        assert space.basis_index(1, 0) == 3


class TestFidelity:
    def test_pure_state_self_fidelity(self):
        rng = np.random.default_rng(17)
        psi = random_state(HilbertSpace.of(("s", 5)), rng)
        assert fidelity(psi.to_density_matrix(), psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_target(self):
        space = qubit()
        rho = StateVector(space, [1, 0]).to_density_matrix()
        assert fidelity(rho, StateVector(space, [0, 1])) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_qubit(self):
        rng = np.random.default_rng(19)
        space = qubit()
        mixed = DensityMatrix(space, np.eye(2) / 2)
        assert fidelity(mixed, random_state(space, rng)) == pytest.approx(0.5, abs=1e-12)

    def test_space_mismatch_rejected(self):
        rho = StateVector(qubit("a"), [1, 0]).to_density_matrix()
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(rho, StateVector(qubit("b"), [1, 0]))

    @given(phase=st.floats(min_value=-np.pi, max_value=np.pi))
    @settings(max_examples=25, deadline=None)
    def test_global_phase_invariance(self, phase):
        rng = np.random.default_rng(23)
        space = HilbertSpace.of(("s", 4))
        rho = random_density(space, rng)
        target = random_state(space, rng)
        rotated = StateVector(space, np.exp(1j * phase) * target.amplitudes)
        assert fidelity(rho, rotated) == pytest.approx(fidelity(rho, target), abs=1e-12)


class TestPropagator:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(29)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = Operator(HilbertSpace.of(("s", 4)), (raw + raw.conj().T) / 2, hermitian=True)
        assert np.allclose(propagator(h, 0.0).elements, np.eye(4), atol=1e-14)

    def test_diagonal_generator(self):
        h = Operator(qubit(), np.diag([1.0, -1.0]), hermitian=True)
        u = propagator(h, np.pi / 2).elements
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.allclose(u, expected, atol=1e-14)

    def test_raman_block_population_swap(self):
        # 2x2 ground/emitted block at the symmetric drive: a half transfer
        # period maps (1, 0) onto (0, -1).  Expected vector cross-checked
        # against an independent fine-step integrator below.
        delta, lam = 20.0, 1.0
        block = -np.array([[lam**2, lam**2], [lam**2, lam**2]]) / delta
        h = Operator(qubit(), block, hermitian=True)
        t = delta * np.pi / (2 * lam**2)
        u = propagator(h, t).elements
        out = u @ np.array([1.0, 0.0])
        assert np.max(np.abs(out - np.array([0.0, -1.0]))) < 1e-10

        psi, steps = np.array([1.0, 0.0], dtype=complex), 20000
        dt = t / steps
        for _ in range(steps):
            k1 = -1j * (block @ psi)
            k2 = -1j * (block @ (psi + 0.5 * dt * k1))
            k3 = -1j * (block @ (psi + 0.5 * dt * k2))
            k4 = -1j * (block @ (psi + dt * k3))
            psi = psi + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        assert np.max(np.abs(out - psi)) < 1e-8

    @pytest.mark.parametrize("t", [0.3, 12.0, 1e3])
    def test_unitary_for_hermitian(self, t):
        rng = np.random.default_rng(31)
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = Operator(HilbertSpace.of(("s", 6)), (raw + raw.conj().T) / 2, hermitian=True)
        u = propagator(h, t).elements
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-10

    def test_non_hermitian_branch_matches_series(self):
        rng = np.random.default_rng(37)
        m = 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        h = Operator(HilbertSpace.of(("s", 3)), m)
        u = propagator(h, 1.0).elements
        acc = np.eye(3, dtype=complex)
        term = np.eye(3, dtype=complex)
        for k in range(1, 40):
            term = term @ (-1j * m) / k
            acc += term
        assert np.max(np.abs(u - acc)) < 1e-12


class TestValidationFlags:
    def test_normalized_state_flag_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(qubit(), [1.0, 1.0])
        StateVector(qubit(), [1.0, 1.0], normalized=False)

    def test_hermitian_operator_flag_enforced(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Operator(qubit(), [[0, 1], [0, 0]], hermitian=True)

    def test_density_matrix_hermiticity_enforced(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(qubit(), [[0.5, 0.5], [0.0, 0.5]])

    def test_density_matrix_positivity_enforced(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(qubit(), [[1.0, 0.0], [0.0, -1.0]], normalized=False)

    def test_density_matrix_trace_flag(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(qubit(), np.eye(2))
        DensityMatrix(qubit(), np.eye(2), normalized=False)


class TestDensityStack:
    # Each bad matrix with the error DensityMatrix raised for it before the
    # checks were batched, worded and formatted as then.
    BAD = [
        ([[0.5, 0.5], [0.0, 0.5]], "density matrix is not Hermitian (max deviation 5.000e-01)"),
        ([[1.5, 0.0], [0.0, -0.5]], "density matrix has negative eigenvalue -5.000e-01"),
        ([[1.0, 0.0], [0.0, 1.0]], "density matrix flagged normalized has trace 2.0"),
    ]

    @pytest.mark.parametrize("matrix, message", BAD, ids=["hermitian", "eigenvalue", "trace"])
    def test_same_errors_as_density_matrix(self, matrix, message):
        stack = np.array([np.eye(2) / 2, matrix, np.eye(2) / 2], dtype=complex)
        for check in (lambda: validate_density_stack(stack),
                      lambda: density_stack(qubit(), stack),
                      lambda: DensityMatrix(qubit(), matrix)):
            with pytest.raises(ValueError) as excinfo:
                check()
            assert str(excinfo.value) == message

    def test_rows_are_checked_read_only_density_matrices(self):
        rng = np.random.default_rng(5)
        space = HilbertSpace.of(("a", 2), ("b", 2))
        stack = np.array([random_density(space, rng).elements for _ in range(3)])
        rows = density_stack(space, stack)
        assert len(rows) == 3 and density_stack(space, stack[:0]) == ()
        for rho, expected in zip(rows, stack):
            assert rho.space == space and rho.normalized
            assert np.array_equal(rho.elements, expected)
            assert not rho.elements.flags.writeable
        with pytest.raises(ValueError, match="k x 4 x 4"):
            density_stack(space, stack[:, :2, :2])


def test_trace_distance_extremes():
    space = qubit()
    zero = StateVector(space, [1, 0]).to_density_matrix()
    one = StateVector(space, [0, 1]).to_density_matrix()
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-14)

