"""Model of one six-level atom coupled to a two-polarization-mode cavity.

The atom has two Raman branches (left/right circular): classical driving
couples |g_j> <-> |f_j> with Rabi frequency Omega, and cavity mode a_j couples
|e_j> <-> |f_j> with strength lambda_c, both detuned by Delta from the upper
level |f_j>.  For large detuning the |f_j> levels stay only virtually
populated and can be eliminated, leaving an effective ground-manifold
Hamiltonian with Stark shifts and a Raman g <-> e,1-photon coupling.

All rates are dimensionless multiples of a reference rate gamma; times are in
units of 1/gamma.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .hilbert import HilbertSpace, Operator


# Fixed basis orders for the atomic manifolds used in the simulation;
# gL/gR/eL/eR are stable, the upper levels fL/fR decay.
FULL_LEVELS = ("gL", "gR", "eL", "eR", "fL", "fR")
EFFECTIVE_LEVELS = ("gL", "gR", "eL", "eR")
GROUND_LEVELS = ("gL", "gR")
EMITTED_LEVELS = ("eL", "eR")


@dataclass(frozen=True)
class SystemParams:
    """All physical rates of one atom-cavity unit plus the detector efficiency.

    Fields are in units of a reference rate gamma: ``delta`` is the detuning,
    ``lambda_c`` the atom-cavity coupling, ``omega`` the classical Rabi
    frequency, ``kappa`` the decay rate of either cavity polarization mode,
    ``gamma_a`` the total spontaneous rate out of each upper level (split
    equally over its four decay branches), ``eta_d`` the detector quantum
    efficiency and ``n_max`` the Fock cutoff per polarization mode.
    """

    delta: float
    lambda_c: float
    omega: float
    kappa: float = 0.0
    gamma_a: float = 0.0
    eta_d: float = 1.0
    n_max: int = 1

    def __post_init__(self):
        for name in ("delta", "lambda_c", "omega", "kappa", "gamma_a", "eta_d"):
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
    def operating_time(self) -> float:
        """Interaction time Delta*pi/(lambda_c^2 + Omega^2) that completes the
        ground -> emitted transfer when lambda_c = Omega.  A drive too weak
        for a finite one (lambda_c = omega = 0) raises a ValueError naming
        both fields."""
        drive = self.lambda_c**2 + self.omega**2
        t = self.delta * math.pi / drive if drive > 0.0 else math.inf
        if not math.isfinite(t):
            raise ValueError(f"no finite operating time: lambda_c={self.lambda_c}, omega={self.omega} "
                             "give no drive")
        return t

    @property
    def eta(self) -> float:
        """Raman rate lambda_c^2/Delta of the symmetric-drive closed forms."""
        return self.lambda_c**2 / self.delta

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "lambda_c": self.lambda_c,
            "omega": self.omega,
            "kappa": self.kappa,
            "gamma_a": self.gamma_a,
            "eta_d": self.eta_d,
            "n_max": self.n_max,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SystemParams":
        if not isinstance(data, dict):
            raise ValueError(f"params document must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown params field(s): {sorted(unknown)}")
        kwargs = {}
        for name, value in data.items():
            if name == "n_max":
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"field 'n_max': expected an integer, got {value!r}")
                kwargs[name] = value
            else:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"field {name!r}: expected a number, got {value!r}")
                try:
                    kwargs[name] = float(value)
                except OverflowError:
                    raise ValueError(f"field {name!r}: integer too large for a float") from None
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "SystemParams":
        return cls.from_json_dict(json.loads(text))


def full_space(n_max: int = 1) -> HilbertSpace:
    """Six-level atom tensored with the two cavity polarization modes."""
    return HilbertSpace.of(("atom", 6), ("ph_L", n_max + 1), ("ph_R", n_max + 1))


def effective_space(n_max: int = 1) -> HilbertSpace:
    """Four-level ground manifold tensored with the two cavity modes."""
    return HilbertSpace.of(("atom", 4), ("ph_L", n_max + 1), ("ph_R", n_max + 1))


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


def effective_hamiltonian(params: SystemParams) -> Operator:
    """Ground-manifold Hamiltonian after eliminating the upper levels.

    Stark terms -(lambda_c^2/Delta) |e_j><e_j| a_j^dag a_j and
    -(Omega^2/Delta) |g_j><g_j|, plus the Raman coupling
    -(lambda_c Omega/Delta) (|g_j><e_j| a_j + h.c.).
    """
    nph = params.n_max + 1
    a = _annihilator(nph)
    num = a.conj().T @ a
    eye = np.eye(nph, dtype=np.complex128)
    stark_e = params.lambda_c**2 / params.delta
    stark_g = params.omega**2 / params.delta
    raman = params.lambda_c * params.omega / params.delta
    h = np.zeros((4 * nph * nph,) * 2, dtype=np.complex128)
    for j, (g, e) in (("L", ("gL", "eL")), ("R", ("gR", "eR"))):
        a_l, a_r = (a, eye) if j == "L" else (eye, a)
        n_l, n_r = (num, eye) if j == "L" else (eye, num)
        h -= stark_e * _embed(_atom_op(EFFECTIVE_LEVELS, e, e), n_l, n_r)
        h -= stark_g * _embed(_atom_op(EFFECTIVE_LEVELS, g, g), eye, eye)
        flip = raman * _embed(_atom_op(EFFECTIVE_LEVELS, g, e), a_l, a_r)
        h -= flip + flip.conj().T
    return Operator(effective_space(params.n_max), h, hermitian=True)


def conditional_hamiltonian(params: SystemParams) -> Operator:
    """Effective Hamiltonian minus i*kappa * sum_j a_j^dag a_j (no-jump decay)."""
    nph = params.n_max + 1
    num = _annihilator(nph).conj().T @ _annihilator(nph)
    eye4 = np.eye(4, dtype=np.complex128)
    eye = np.eye(nph, dtype=np.complex128)
    total_num = _embed(eye4, num, eye) + _embed(eye4, eye, num)
    h = effective_hamiltonian(params).elements - 1j * params.kappa * total_num
    return Operator(effective_space(params.n_max), h, hermitian=False)


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


def effective_embedding(n_max: int = 1) -> np.ndarray:
    """Isometry from the four-level effective space into the six-level full
    space (identity on the shared levels, no upper-level component).

    Returns a (6*(n_max+1)^2) x (4*(n_max+1)^2) matrix E with E^dag E = I, so
    E^dag projects full-space vectors onto the shared manifold.
    """
    nph = n_max + 1
    atom_embed = np.zeros((6, 4), dtype=np.complex128)
    for k, level in enumerate(EFFECTIVE_LEVELS):
        atom_embed[FULL_LEVELS.index(level), k] = 1.0
    eye = np.eye(nph, dtype=np.complex128)
    return _embed(atom_embed, eye, eye)
