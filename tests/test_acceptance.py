"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
from elimination_view import compare_full_vs_effective
from staged_reference import (
    lossless_coefficients,
    reference_coefficients,
    staged_cavity_interaction,
    staged_detection,
    staged_network,
    success_probability_ideal,
)
from unit_reference import (
    basis_state,
    conditional_hamiltonian,
    effective_hamiltonian,
    effective_space,
    lindblad_evolve,
    propagator,
    schrodinger_evolve,
)

from w2ghz.analysis import (
    SweepSpec,
    master_equation_estimates,
    params_for_eta_over_kappa,
    pd_closed_form,
    pd_sweep,
    reference_noise_params,
)
from w2ghz.atom_cavity import EFFECTIVE_LEVELS, SystemParams
from w2ghz.dynamics import IntegratorConfig, decay_coefficients
from w2ghz.hilbert import DensityMatrix, HilbertSpace, Operator
from w2ghz.photonics import full_network
from w2ghz.protocol import apply_hadamard_pulses, cavity_interaction, prepare_w_state, run_protocol

IDEAL = SystemParams(delta=20.0, lambda_c=1.0, omega=1.0)


def report(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({description}): {status} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_ideal_end_to_end():
    start = time.perf_counter()
    run = run_protocol(IDEAL)
    elapsed = time.perf_counter() - start
    ok = (abs(run.success_probability - 0.75) < 1e-10
          and abs(run.fidelity - 1.0) < 1e-10
          and elapsed < 1.0)
    report(1, "ideal end-to-end run", ok,
           f"P = {run.success_probability:.12f}, F = {run.fidelity:.12f}, {elapsed:.2f} s")


def test_criterion_2_efficiency_formula_vs_enumeration():
    # The staged pipeline, which shares no code with the compiled route.
    state = staged_network(staged_cavity_interaction(apply_hadamard_pulses(prepare_w_state()),
                                                     reference_coefficients(IDEAL)))
    worst = 0.0
    for eta_d in (0.25, 0.5, 0.75, 1.0):
        total = staged_detection(state, eta_d).total_success_probability
        worst = max(worst, abs(total - success_probability_ideal(eta_d)))
    report(2, "success probability vs brute-force enumeration", worst < 1e-12,
           f"max |enumerated - 3 eta^3/4| = {worst:.3e} over eta_d in {{0.25,0.5,0.75,1.0}}")


def test_criterion_3_decay_curve_regression():
    start = time.perf_counter()
    params = params_for_eta_over_kappa(100.0)
    p1 = pd_closed_form(params, 0.0156582)
    p2 = pd_closed_form(params, 0.9896)
    worst_rel = 0.0
    for point in pd_sweep(SweepSpec("kappa_t", 1e-3, 3.0, 1000, params)):
        worst_rel = max(worst_rel, point.abs_difference / max(point.closed_form, 1e-300))
    elapsed = time.perf_counter() - start
    ok = (abs(p1 - 0.715584) < 5e-4 and abs(p2 - 0.03853) < 5e-4
          and worst_rel < 1e-12 and elapsed < 1.0)
    report(3, "decay success-probability regression", ok,
           f"P(0.0156582) = {p1:.6f}, P(0.9896) = {p2:.5f}, "
           f"max rel identity diff = {worst_rel:.3e}, {elapsed:.2f} s")


def test_criterion_4_coefficient_consistency():
    # The transfer route at vanishing decay against the lossless closed form,
    # and the route with and without decay against direct integration of
    # the generating Hamiltonians.
    params = SystemParams(delta=2.0, lambda_c=1.0, omega=1.0)
    eta = params.eta
    tiny = SystemParams(delta=2.0, lambda_c=1.0, omega=1.0, kappa=1e-8 * eta)
    period = 2 * np.pi * params.delta / (params.lambda_c**2 + params.omega**2)

    worst_pair = 0.0
    for t in np.linspace(0.0, period, 9):
        ci = lossless_coefficients(params, t)
        cd = decay_coefficients(tiny, t)
        worst_pair = max(worst_pair, abs(ci.alpha - cd.alpha), abs(ci.beta - cd.beta))

    space = effective_space(1)
    psi0 = basis_state(space, 0, 0, 0)
    i_g = space.basis_index(EFFECTIVE_LEVELS.index("gL"), 0, 0)
    i_e = space.basis_index(EFFECTIVE_LEVELS.index("eL"), 1, 0)
    cfg = IntegratorConfig(dt=1e-3)
    h_ideal = effective_hamiltonian(params)
    h_decay = conditional_hamiltonian(tiny)
    worst_oracle = 0.0
    for t in np.linspace(period / 8, period, 4):
        out_i = schrodinger_evolve(h_ideal, psi0, t, cfg)
        ci = decay_coefficients(params, t)
        out_d = schrodinger_evolve(h_decay, psi0, t, cfg)
        cd = decay_coefficients(tiny, t)
        worst_oracle = max(worst_oracle,
                           abs(out_i.amplitudes[i_g] - ci.alpha), abs(out_i.amplitudes[i_e] - ci.beta),
                           abs(out_d.amplitudes[i_g] - cd.alpha), abs(out_d.amplitudes[i_e] - cd.beta))

    ok = worst_pair < 1e-6 and worst_oracle < 1e-8
    report(4, "coefficient consistency", ok,
           f"max closed-form pair diff = {worst_pair:.3e}, max integration diff = {worst_oracle:.3e}")


def test_criterion_5_network_output_structure():
    # Expected post-network expansion, assembled independently of the package
    # from the eight signed configuration rows by multiplying out the
    # (|H> +- |V>)/sqrt2 photons with bosonic normalization.
    rows = [
        (-3, ("eL", "eL", "eL"), ((7, -1), (8, -1), (9, -1))),
        (+3, ("eR", "eR", "eR"), ((7, +1), (8, +1), (9, +1))),
        (-1, ("eL", "eL", "eR"), ((7, -1), (8, -1), (8, +1))),
        (-1, ("eL", "eR", "eL"), ((7, -1), (7, +1), (9, -1))),
        (+1, ("eL", "eR", "eR"), ((7, -1), (7, +1), (8, +1))),
        (-1, ("eR", "eL", "eL"), ((8, -1), (9, -1), (9, +1))),
        (+1, ("eR", "eL", "eR"), ((8, -1), (8, +1), (9, +1))),
        (+1, ("eR", "eR", "eL"), ((7, +1), (9, -1), (9, +1))),
    ]
    expected: dict = {}
    for coeff, config, photons in rows:
        poly = {(): coeff / (2 * math.sqrt(6))}
        for mode, sign in photons:
            grown: dict = {}
            for monomial, c in poly.items():
                for pol, w in (("H", 1 / math.sqrt(2)), ("V", sign / math.sqrt(2))):
                    key = tuple(sorted(monomial + ((mode, pol),)))
                    grown[key] = grown.get(key, 0.0) + c * w
            poly = grown
        for monomial, c in poly.items():
            occ: dict = {}
            for slot in monomial:
                occ[slot] = occ.get(slot, 0) + 1
            for count in occ.values():
                c *= math.sqrt(math.factorial(count))
            key = (config, tuple(sorted(occ.items())))
            expected[key] = expected.get(key, 0.0) + c
    expected = {k: v for k, v in expected.items() if abs(v) > 1e-15}

    produced = full_network(cavity_interaction(apply_hadamard_pulses(prepare_w_state()), IDEAL))
    anchor = max(expected, key=lambda k: abs(expected[k]))
    phase = expected[anchor] / produced.terms[anchor]
    phase /= abs(phase)
    keys = set(expected) | set(produced.terms)
    worst = max(abs(phase * produced.terms.get(k, 0.0) - expected.get(k, 0.0)) for k in keys)
    configs = {config for (config, _) in produced.terms}
    ok = worst < 1e-12 and len(configs) == 8
    report(5, "post-network state structure", ok,
           f"max per-term amplitude deviation = {worst:.3e} over {len(keys)} terms, "
           f"{len(configs)} atomic configurations")


def test_criterion_6_master_equation_fidelity():
    start = time.perf_counter()
    f250 = master_equation_estimates(reference_noise_params(250.0)).product_fidelity
    f50 = master_equation_estimates(reference_noise_params(50.0)).product_fidelity
    elapsed = time.perf_counter() - start
    ok = abs(f250 - 0.9104) <= 0.02 and abs(f50 - 0.9009) <= 0.02 and elapsed < 60.0
    report(6, "master-equation fidelity", ok,
           f"F(ratio 250) = {f250:.4f} (target 0.9104±0.02), "
           f"F(ratio 50) = {f50:.4f} (target 0.9009±0.02), {elapsed:.1f} s")


def test_criterion_7_lindblad_integrator_properties():
    rng = np.random.default_rng(2026)
    worst_trace = worst_herm = worst_eig = worst_unitary = 0.0
    for case in range(100):
        dim = int(rng.integers(2, 9)) if case % 7 else int(rng.integers(12, 25))
        space = HilbertSpace.of(("sys", dim))
        raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h_mat = 0.5 * (raw + raw.conj().T)
        h_mat /= max(np.linalg.norm(h_mat, 2), 1.0)
        h = Operator(space, h_mat, hermitian=True)

        zero_rate = case % 5 == 0
        collapse = []
        if not zero_rate:
            for _ in range(int(rng.integers(1, 4))):
                c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                c /= max(np.linalg.norm(c, 2), 1.0)
                collapse.append((float(rng.uniform(0.05, 0.6)), Operator(space, c)))

        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        rho = DensityMatrix(space, m / np.trace(m).real)

        cfg = IntegratorConfig(dt=2e-3)
        segment = 0.2
        for _ in range(4):
            rho = lindblad_evolve(h, collapse, rho, segment, cfg)
            elements = rho.elements
            worst_trace = max(worst_trace, abs(np.trace(elements).real - 1.0))
            worst_herm = max(worst_herm, float(np.max(np.abs(elements - elements.conj().T))))
            worst_eig = max(worst_eig, -float(np.min(np.linalg.eigvalsh(elements))))
        if zero_rate:
            u = propagator(h, 4 * segment).elements
            expected = u @ (m / np.trace(m).real) @ u.conj().T
            worst_unitary = max(worst_unitary, float(np.max(np.abs(rho.elements - expected))))

    ok = (worst_trace < 1e-8 and worst_herm < 1e-10 and worst_eig < 1e-8
          and worst_unitary < 1e-8)
    report(7, "master-equation integrator properties", ok,
           f"trace drift {worst_trace:.2e}, Hermiticity drift {worst_herm:.2e}, "
           f"negativity {worst_eig:.2e}, unitary-limit error {worst_unitary:.2e} (100 systems)")


def test_criterion_8_adiabatic_elimination_validation():
    distances = []
    for ratio in (20.0, 40.0, 80.0):
        params = SystemParams(delta=ratio, lambda_c=1.0, omega=1.0)
        period = 2 * np.pi * params.delta / (params.lambda_c**2 + params.omega**2)
        rep = compare_full_vs_effective(params, np.linspace(0.0, period, 48))
        distances.append(rep.max_distance)
    ok = distances[0] > distances[1] > distances[2]
    report(8, "adiabatic-elimination deviation decreases with detuning", ok,
           "max distances " + ", ".join(f"{d:.5f}" for d in distances)
           + " for detuning/coupling 20, 40, 80")
