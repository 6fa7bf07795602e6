"""Model of one six-level atom coupled to a two-polarization-mode cavity.

The atom has two Raman branches (left/right circular): classical driving
couples |g_j> <-> |f_j> with Rabi frequency Omega, and cavity mode a_j couples
|e_j> <-> |f_j> with strength lambda_c, both detuned by Delta from the upper
level |f_j>.  This module writes that six-level model once, in the tensor
space of the atom and both cavity modes, with its Lindblad channels.  For
large detuning the |f_j> levels stay only virtually populated and can be
eliminated, leaving Stark shifts and a Raman g <-> e,1-photon coupling; the
one place that model is written is the 2x2 no-jump block of
``dynamics.decay_coefficients``, built from the light shifts here.

All rates are dimensionless multiples of a reference rate gamma; times are in
units of 1/gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import HilbertSpace, Operator


# Fixed basis orders for the atomic manifolds used in the simulation;
# gL/gR/eL/eR are stable, the upper levels fL/fR decay.
FULL_LEVELS = ("gL", "gR", "eL", "eR", "fL", "fR")
EFFECTIVE_LEVELS = ("gL", "gR", "eL", "eR")
GROUND_LEVELS = ("gL", "gR")
EMITTED_LEVELS = ("eL", "eR")

# The fields of a params document, in SystemParams order; n_max is none.
DOCUMENT_FIELDS = ("delta", "lambda_c", "omega", "kappa", "gamma_a", "eta_d")


@dataclass(frozen=True)
class SystemParams:
    """All physical rates of one atom-cavity unit plus the detector efficiency.

    Fields are in units of a reference rate gamma: ``delta`` is the detuning,
    ``lambda_c`` the atom-cavity coupling, ``omega`` the classical Rabi
    frequency, ``kappa`` the cavity decay rate of either polarization mode,
    ``gamma_a`` the total spontaneous rate out of each upper level (split
    equally over its four decay branches), ``eta_d`` the detector quantum
    efficiency and ``n_max`` the Fock cutoff per mode, no document field.

    Two routes read ``kappa`` apart (ROADMAP.md, "One cavity-decay rate"):
    ``dynamics.decay_coefficients`` (so ``run_protocol`` and P_d) takes it
    as the paper's field decay rate, the photon population decaying at
    2 kappa; ``collapse_operators`` (so ``emitted_block`` and the fidelity
    estimators) decays the population at kappa.
    """

    delta: float
    lambda_c: float
    omega: float
    kappa: float = 0.0
    gamma_a: float = 0.0
    eta_d: float = 1.0
    n_max: int = 1

    def __post_init__(self):
        for name in DOCUMENT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        for name in ("lambda_c", "omega", "kappa", "gamma_a"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if not 0.0 <= self.eta_d <= 1.0:
            raise ValueError(f"eta_d must lie in [0, 1], got {self.eta_d}")
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max}")

    @property
    def adiabatic_advisory(self) -> bool:
        """True when delta < 10 * max(lambda_c, omega), i.e. the elimination
        of the upper levels is questionable."""
        return self.delta < 10.0 * max(self.lambda_c, self.omega)

    @property
    def branch_rate(self) -> float:
        """Spontaneous rate of each of the four f -> g/e branches (gamma_a/2)."""
        return self.gamma_a / 2.0

    @property
    def light_shifts(self) -> tuple[float, float]:
        """The light shifts (lambda_c^2/Delta, Omega^2/Delta), each formed as
        (x/Delta)*x: the ratio comes first, so no raw rate is squared and a
        result is out of range only where the shift itself is."""
        return (self.lambda_c / self.delta) * self.lambda_c, (self.omega / self.delta) * self.omega

    @property
    def operating_time(self) -> float:
        """Interaction time Delta*pi/(lambda_c^2 + Omega^2) that completes the
        ground -> emitted transfer when lambda_c = Omega, as pi over the sum
        of the light shifts.  A drive too weak or too strong for a finite,
        non-zero one (lambda_c = omega = 0, say) raises a ValueError naming
        both fields."""
        shift = sum(self.light_shifts)
        t = math.pi / shift if shift > 0.0 else math.inf
        if not 0.0 < t < math.inf:
            raise ValueError(f"no finite operating time: lambda_c={self.lambda_c}, omega={self.omega} "
                             f"give a light shift of {shift!r} at delta={self.delta}")
        return t

    @property
    def eta(self) -> float:
        """Raman rate lambda_c^2/Delta of the symmetric-drive closed forms."""
        return self.light_shifts[0]

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in DOCUMENT_FIELDS}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SystemParams":
        if not isinstance(data, dict):
            raise ValueError(f"params document must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(DOCUMENT_FIELDS)
        if unknown:
            raise ValueError(f"unknown params field(s): {sorted(unknown)}")
        kwargs = {}
        for name, value in data.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"field {name!r}: expected a number, got {value!r}")
            try:
                kwargs[name] = float(value)
            except OverflowError:
                raise ValueError(f"field {name!r}: integer too large for a float") from None
        return cls(**kwargs)


def full_space(n_max: int = 1) -> HilbertSpace:
    """Six-level atom tensored with the two cavity polarization modes."""
    return HilbertSpace.of(("atom", 6), ("ph_L", n_max + 1), ("ph_R", n_max + 1))


def branch_levels(n_max: int, branch: str) -> list[int]:
    """Indices in ``full_space(n_max)`` of |g_j,0,0>, |f_j,0,0> and |e_j,1_j>
    for branch j = "L" or "R": the levels the unit leaves from |g_j, vacuum>
    only by jumps that nothing brings back."""
    space = full_space(n_max)
    photons = (1, 0) if branch == "L" else (0, 1)
    return [space.basis_index(FULL_LEVELS.index("g" + branch), 0, 0),
            space.basis_index(FULL_LEVELS.index("f" + branch), 0, 0),
            space.basis_index(FULL_LEVELS.index("e" + branch), *photons)]


def _annihilator(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a


def _atom_op(levels, ket: str, bra: str) -> np.ndarray:
    m = np.zeros((len(levels), len(levels)), dtype=np.complex128)
    m[levels.index(ket), levels.index(bra)] = 1.0
    return m


def _embed(atom: np.ndarray, ph_l: np.ndarray, ph_r: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(atom, ph_l), ph_r)


def full_hamiltonian(params: SystemParams) -> Operator:
    """Interaction-picture Hamiltonian with the upper levels retained.

    Contains Delta |f_j><f_j|, lambda_c (a_j |f_j><e_j| + h.c.) and
    Omega (|f_j><g_j| + h.c.) for both circular branches j = L, R.
    """
    nph = params.n_max + 1
    a = _annihilator(nph)
    eye = np.eye(nph, dtype=np.complex128)
    h = np.zeros((6 * nph * nph,) * 2, dtype=np.complex128)
    for j, (g, e, f) in (("L", ("gL", "eL", "fL")), ("R", ("gR", "eR", "fR"))):
        a_l, a_r = (a, eye) if j == "L" else (eye, a)
        h += params.delta * _embed(_atom_op(FULL_LEVELS, f, f), eye, eye)
        coupling = params.lambda_c * _embed(_atom_op(FULL_LEVELS, f, e), a_l, a_r)
        drive = params.omega * _embed(_atom_op(FULL_LEVELS, f, g), eye, eye)
        h += coupling + coupling.conj().T + drive + drive.conj().T
    return Operator(full_space(params.n_max), h, hermitian=True)


def collapse_operators(params: SystemParams) -> list[tuple[float, Operator]]:
    """Lindblad channels of the full-space master equation as (rate, operator).

    Two cavity channels a_L, a_R at rate kappa and the four spontaneous
    branches |x_j><f_j| (x = g, e; j = L, R), each at rate gamma_a/2.
    """
    space = full_space(params.n_max)
    nph = params.n_max + 1
    a = _annihilator(nph)
    eye = np.eye(nph, dtype=np.complex128)
    eye6 = np.eye(6, dtype=np.complex128)
    ops: list[tuple[float, Operator]] = [
        (params.kappa, Operator(space, _embed(eye6, a, eye))),
        (params.kappa, Operator(space, _embed(eye6, eye, a))),
    ]
    for f, targets in (("fL", ("gL", "eL")), ("fR", ("gR", "eR"))):
        for x in targets:
            ops.append((params.branch_rate,
                        Operator(space, _embed(_atom_op(FULL_LEVELS, x, f), eye, eye))))
    return ops
