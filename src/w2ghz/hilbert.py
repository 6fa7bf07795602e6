"""Dense complex states, operators and density matrices over explicit
tensor-product Hilbert spaces, one validation routine for stacks of density
matrices, and the fidelity to a pure target.  No matrix function lives here:
each time evolution is taken by the route that runs it (``dynamics``).

States, operators and density matrices carry a :class:`HilbertSpace` that
records the ordered subsystem factorisation.  Basis ordering is row-major
over the subsystem list with the *last* subsystem varying fastest, so
serialized amplitudes are comparable across runs.

Everything here is immutable after construction and every operation is a
pure function; values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


def tol(base: float) -> float:
    """The fixed validation tolerance ``base``, unscaled: an identity kept only
    for the benchmark worker's unscaled-tolerance guard (ROADMAP item 1(d))."""
    return base


def _require_finite(arr: np.ndarray, what: str) -> None:
    """Refuse NaN, which passes every tolerance check, and infinity, which turns the checks into NaN."""
    finite = np.isfinite(arr)
    if not finite.all():
        index = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"{what} has a non-finite entry {complex(arr[index])!r} at {index} ({(~finite).sum()} in all)")


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor product of labelled finite-dimensional subsystems."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.subsystems]
        if len(set(labels)) != len(labels):
            raise ValueError(f"subsystem labels must be unique, got {labels}")
        for label, dim in self.subsystems:
            if not isinstance(dim, int) or dim < 1:
                raise ValueError(f"subsystem {label!r} needs a positive integer dimension, got {dim}")

    @classmethod
    def of(cls, *subsystems: tuple[str, int]) -> "HilbertSpace":
        return cls(tuple((str(label), int(dim)) for label, dim in subsystems))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dim(self) -> int:
        out = 1
        for _, dim in self.subsystems:
            out *= dim
        return out

    def basis_index(self, *indices: int) -> int:
        """Flat index of a product-basis element (one index per subsystem)."""
        if len(indices) != len(self.subsystems):
            raise ValueError(f"expected {len(self.subsystems)} indices, got {len(indices)}")
        return int(np.ravel_multi_index(indices, self.dims)) if self.subsystems else 0


def _as_complex_array(values, shape_check) -> NDArray[np.complex128]:
    arr = np.array(values, dtype=np.complex128)
    shape_check(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over an explicit tensor-product space."""

    space: HilbertSpace
    amplitudes: NDArray[np.complex128]
    normalized: bool = True

    def __post_init__(self):
        def check(arr):
            if arr.ndim != 1 or arr.shape[0] != self.space.total_dim:
                raise ValueError(f"amplitude vector must have length {self.space.total_dim}, got shape {arr.shape}")
            _require_finite(arr, "amplitude vector")
        object.__setattr__(self, "amplitudes", _as_complex_array(self.amplitudes, check))
        if self.normalized and abs(self.norm() - 1.0) > 1e-10:
            raise ValueError(f"state flagged normalized has norm {self.norm()!r}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def validate_density_stack(elements: NDArray[np.complex128], normalized: bool = True) -> None:
    """Raise ValueError unless every matrix of a (k, d, d) stack is a density
    matrix: finite, Hermitian to 1e-10, smallest eigenvalue at least -1e-8
    and, when ``normalized``, trace 1 to 1e-8.  Each check runs over the whole
    stack in one call and reports the first matrix that fails it."""
    if elements.shape[0] == 0:
        return
    if not np.isfinite(elements).all():
        _require_finite(elements[np.flatnonzero(~np.isfinite(elements).all(axis=(1, 2)))[0]], "density matrix")
    herm_err = np.max(np.abs(elements - elements.conj().swapaxes(-1, -2)), axis=(1, 2))
    bad = np.flatnonzero(herm_err > 1e-10)
    if bad.size:
        raise ValueError(f"density matrix is not Hermitian (max deviation {float(herm_err[bad[0]]):.3e})")
    min_eig = np.min(np.linalg.eigvalsh(elements), axis=1)
    bad = np.flatnonzero(min_eig < -1e-8)
    if bad.size:
        raise ValueError(f"density matrix has negative eigenvalue {float(min_eig[bad[0]]):.3e}")
    if normalized:
        traces = np.trace(elements, axis1=1, axis2=2).real
        bad = np.flatnonzero(np.abs(traces - 1.0) > 1e-8)
        if bad.size:
            raise ValueError(f"density matrix flagged normalized has trace {float(traces[bad[0]])!r}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian positive matrix over an explicit tensor-product space."""

    space: HilbertSpace
    elements: NDArray[np.complex128]
    normalized: bool = True

    def __post_init__(self):
        d = self.space.total_dim

        def check(arr):
            if arr.shape != (d, d):
                raise ValueError(f"density matrix must be {d}x{d}, got {arr.shape}")
        object.__setattr__(self, "elements", _as_complex_array(self.elements, check))
        validate_density_stack(self.elements[None], self.normalized)


def density_stack(space: HilbertSpace, elements) -> tuple[DensityMatrix, ...]:
    """The rows of a (k, d, d) stack as normalized density matrices over
    ``space``, validated together by ``validate_density_stack``."""
    d = space.total_dim

    def check(arr):
        if arr.ndim != 3 or arr.shape[1:] != (d, d):
            raise ValueError(f"density stack must be k x {d} x {d}, got {arr.shape}")
    stack = _as_complex_array(elements, check)
    validate_density_stack(stack)
    rows = []
    for matrix in stack:
        # Checked above as part of the stack; the rows are read-only views.
        rho = object.__new__(DensityMatrix)
        object.__setattr__(rho, "space", space)
        object.__setattr__(rho, "elements", matrix)
        object.__setattr__(rho, "normalized", True)
        rows.append(rho)
    return tuple(rows)


@dataclass(frozen=True)
class Operator:
    """Square complex matrix acting on an explicit tensor-product space."""

    space: HilbertSpace
    elements: NDArray[np.complex128]
    hermitian: bool = False

    def __post_init__(self):
        d = self.space.total_dim

        def check(arr):
            if arr.shape != (d, d):
                raise ValueError(f"operator must be {d}x{d}, got {arr.shape}")
            _require_finite(arr, "operator")
        object.__setattr__(self, "elements", _as_complex_array(self.elements, check))
        if self.hermitian:
            herm_err = float(np.max(np.abs(self.elements - self.elements.conj().T))) if d else 0.0
            if herm_err > 1e-12:
                raise ValueError(f"operator flagged Hermitian deviates by {herm_err:.3e}")


def _require_same_space(a: HilbertSpace, b: HilbertSpace) -> None:
    if a != b:
        raise ValueError(f"space mismatch: {a.subsystems} vs {b.subsystems}")


def fidelity(rho: DensityMatrix, target: StateVector) -> float:
    """Overlap ⟨target|ρ|target⟩; invariant under a global phase on the target."""
    _require_same_space(rho.space, target.space)
    return float(fidelities(rho.elements[None], target.amplitudes)[0])


def fidelities(elements: NDArray[np.complex128], target: NDArray[np.complex128]) -> NDArray[np.float64]:
    """⟨target|ρ_k|target⟩ for every matrix ρ_k of a (k, d, d) stack, in one
    contraction; each value must come out real."""
    _require_finite(elements, "density stack")
    values = (elements @ target) @ target.conj()
    bad = np.flatnonzero(np.abs(values.imag) > 1e-12 * np.maximum(1.0, np.abs(values)))
    if bad.size:
        raise ValueError(f"fidelity came out non-real: {complex(values[bad[0]])!r}")
    return values.real
