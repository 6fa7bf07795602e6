"""Dense complex linear algebra over explicit tensor-product Hilbert spaces.

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
from scipy.linalg import expm

def tol(base: float) -> float:
    """The fixed validation tolerance ``base``, unscaled."""
    return base


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
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.subsystems)

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
        object.__setattr__(self, "amplitudes", _as_complex_array(self.amplitudes, check))
        if self.normalized and abs(self.norm() - 1.0) > tol(1e-10):
            raise ValueError(f"state flagged normalized has norm {self.norm()!r}")

    @classmethod
    def basis_state(cls, space: HilbertSpace, *indices: int) -> "StateVector":
        amps = np.zeros(space.total_dim, dtype=np.complex128)
        amps[space.basis_index(*indices)] = 1.0
        return cls(space, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.space, np.outer(self.amplitudes, self.amplitudes.conj()),
                             normalized=self.normalized)


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
        herm_err = float(np.max(np.abs(self.elements - self.elements.conj().T))) if d else 0.0
        if herm_err > tol(1e-10):
            raise ValueError(f"density matrix is not Hermitian (max deviation {herm_err:.3e})")
        min_eig = float(np.min(np.linalg.eigvalsh(self.elements)))
        if min_eig < -tol(1e-8):
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        if self.normalized and abs(self.trace() - 1.0) > tol(1e-8):
            raise ValueError(f"density matrix flagged normalized has trace {self.trace()!r}")

    def trace(self) -> float:
        return float(np.trace(self.elements).real)


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
        object.__setattr__(self, "elements", _as_complex_array(self.elements, check))
        if self.hermitian:
            herm_err = float(np.max(np.abs(self.elements - self.elements.conj().T))) if d else 0.0
            if herm_err > tol(1e-12):
                raise ValueError(f"operator flagged Hermitian deviates by {herm_err:.3e}")


def _require_same_space(a: HilbertSpace, b: HilbertSpace) -> None:
    if a != b:
        raise ValueError(f"space mismatch: {a.subsystems} vs {b.subsystems}")


def fidelity(rho: DensityMatrix, target: StateVector) -> float:
    """Overlap ⟨target|ρ|target⟩; invariant under a global phase on the target."""
    _require_same_space(rho.space, target.space)
    value = complex(np.vdot(target.amplitudes, rho.elements @ target.amplitudes))
    if abs(value.imag) > tol(1e-12) * max(1.0, abs(value)):
        raise ValueError(f"fidelity came out non-real: {value!r}")
    return float(value.real)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference, in [0, 1] for density matrices."""
    _require_same_space(a.space, b.space)
    eigs = np.linalg.eigvalsh(a.elements - b.elements)
    return float(0.5 * np.sum(np.abs(eigs)))


def propagator(h: Operator, t: float) -> Operator:
    """Matrix exponential exp(-i·H·t).

    Hermitian generators go through an eigendecomposition (exactly unitary up
    to rounding); general generators use scaling-and-squaring.
    """
    if h.hermitian:
        energies, vectors = np.linalg.eigh(h.elements)
        u = (vectors * np.exp(-1j * energies * t)) @ vectors.conj().T
    else:
        u = expm(-1j * t * h.elements)
    if not np.all(np.isfinite(u)):
        raise OverflowError("propagator overflowed; generator has strongly amplifying spectrum")
    return Operator(h.space, u, hermitian=False)
