"""Test-side view of the adiabatic elimination's error, on the branch block
the dynamics never leave.  No command runs it; it exercises the package's
``branch_levels`` and ``decay_coefficients`` against the tensor-space
oracle ``unit_reference.tensor_space_deviation``, which reads neither, and
criterion 8 reads its detuning scaling.  It lives apart from
``unit_reference`` because that module's oracles must not reach the routes
they check."""

from dataclasses import replace

import numpy as np
from unit_reference import DeviationPoint, DeviationReport

from w2ghz.atom_cavity import SystemParams, branch_levels, full_hamiltonian
from w2ghz.dynamics import _times, decay_coefficients


def compare_full_vs_effective(params: SystemParams, t_grid) -> DeviationReport:
    """Evolve |g_L, vacuum> under the six-level and the eliminated model and
    report, per grid time, the trace distance between the eliminated state
    and the (unnormalized) projection of the six-level state onto the levels
    they share, and the population leaked into the upper level f_L.

    Neither model leaves the L branch from there.  The six-level state stays
    in {|gL,0,0>, |fL,0,0>, |eL,1,0>}, whose 3x3 block of ``full_hamiltonian``
    is diagonalised once for the whole grid; the eliminated state is the
    (alpha, beta) of ``decay_coefficients`` at kappa = 0.  Both are exact
    exponentials, so the report isolates the model difference rather than
    integration error.  For the eliminated pair a and the projected pair b,

        D = sqrt((|a|^2 - |b|^2)^2 + 4 |a_0 b_1 - a_1 b_0|^2) / 2

    is the trace distance of |a><a| and |b><b|, free of any global phase; the
    Lagrange identity |a|^2 |b|^2 - |<a|b>|^2 = |a_0 b_1 - a_1 b_0|^2 gives it
    without cancellation.  The leakage |<fL,0,0|psi>|^2 equals 1 - |b|^2, and
    is read off directly so it is never negative.

    ``t_grid`` is a non-empty one-dimensional grid of finite, non-negative
    times; anything else raises ValueError.
    """
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError(f"t_grid must be a non-empty one-dimensional grid of times, got shape {times.shape}")
    times = _times(times)
    branch = branch_levels(params.n_max, "L")
    energies, vectors = np.linalg.eigh(full_hamiltonian(params).elements[np.ix_(branch, branch)])
    b0, upper, b1 = ((np.exp(-1j * np.outer(times, energies)) * vectors[0].conj()) @ vectors.T).T
    eliminated = decay_coefficients(replace(params, kappa=0.0), times)
    a0, a1 = eliminated.alpha, eliminated.beta

    def population(z):
        return z.real * z.real + z.imag * z.imag

    gap = population(a0) + population(a1) - population(b0) - population(b1)
    distance = 0.5 * np.hypot(gap, 2.0 * np.abs(a0 * b1 - a1 * b0))
    return DeviationReport(tuple(DeviationPoint(*point) for point in
                                 zip(times.tolist(), distance.tolist(), population(upper).tolist())))
