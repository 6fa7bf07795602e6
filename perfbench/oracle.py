"""Per-op correctness oracles, applied to the output records of a run.

Each check returns a list of failure messages for one record; an op fails
when its record carries an error or any message.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
from scipy.linalg import expm

from w2ghz.analysis import pd_closed_form
from w2ghz.atom_cavity import SystemParams, collapse_operators, full_hamiltonian
from ops import noise_params, uhlmann_to_target, unit_basis

PROTOCOL_REL_TOL = 1e-12
FIDELITY_TOL = 1e-12
EXACT_PROPAGATION_TOL = 1e-6
# Paper targets of estimator a at lambda_c/gamma_a = 250 and 50.
REFERENCE_TARGETS = {250.0: 0.9104, 50.0: 0.9009}
REFERENCE_GATE = 0.02
SWEEP_REL_TOL = 1e-12
VALIDATE_CHECKS = 5


def expected_success(params: SystemParams) -> float:
    """0.75 eta_d^3 |beta'|^6 at the operating time, with beta' the no-jump
    emitted amplitude i eta (e^{phi t} - 1) e^{t (varphi - phi/2)} / phi,
    phi = sqrt(kappa^2 - 4 eta^2) and varphi = i eta - kappa/2.  Valid for the
    symmetric drive lambda_c = omega that every generated input uses."""
    t = params.operating_time
    eta = params.lambda_c**2 / params.delta
    phi = cmath.sqrt(params.kappa**2 - 4.0 * eta**2)
    varphi = 1j * eta - params.kappa / 2.0
    beta = 1j * eta * (cmath.exp(phi * t) - 1.0) * cmath.exp(t * (varphi - phi / 2.0)) / phi
    return 0.75 * params.eta_d**3 * abs(beta) ** 6


def check_protocol(params: SystemParams, success: float, fidelity: float) -> list[str]:
    failures = []
    expected = expected_success(params)
    closed = params.eta_d**3 * pd_closed_form(params, params.operating_time)
    for label, ref in (("0.75 eta_d^3 |beta'|^6", expected), ("eta_d^3 pd_closed_form", closed)):
        if abs(success - ref) > PROTOCOL_REL_TOL * ref:
            failures.append(f"success {success!r} differs from {label} = {ref!r}")
    if abs(fidelity - 1.0) > FIDELITY_TOL:
        failures.append(f"fidelity {fidelity!r} is not 1")
    return failures


def liouvillian(h: np.ndarray, collapse: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Generator of d vec(rho)/dt for row-major vec, where
    vec(A rho B) = (A kron B^T) vec(rho)."""
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, c in collapse:
        cdc = c.conj().T @ c
        gen += rate * (np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T))
    return gen


@functools.lru_cache(maxsize=None)  # a run repeats at most a few dozen inputs
def exact_subsystem_fidelity(params: SystemParams) -> float:
    """Estimator-a subsystem fidelity from the exact matrix exponential of the
    vectorised master equation, independent of the package's RK4."""
    space, g_l, g_r, target = unit_basis(params.n_max)
    dim = space.total_dim
    gen = liouvillian(full_hamiltonian(params).elements,
                      [(rate, op.elements) for rate, op in collapse_operators(params)])
    psi0 = np.zeros(dim, dtype=np.complex128)
    psi0[g_l] = psi0[g_r] = 1.0 / math.sqrt(2.0)
    rho = (expm(gen * params.operating_time) @ np.outer(psi0, psi0.conj()).ravel()).reshape(dim, dim)
    return uhlmann_to_target(rho, target)


def check_noise(inp: dict, rec: dict) -> list[str]:
    failures = []
    sub, prod = rec["subsystem_fidelity"], rec["product_fidelity"]
    exact = exact_subsystem_fidelity(noise_params(inp))
    if abs(sub - exact) > EXACT_PROPAGATION_TOL:
        failures.append(f"subsystem fidelity {sub!r} differs from exact propagation {exact!r}")
    if abs(prod - sub**3) > 1e-15:
        failures.append(f"product fidelity {prod!r} is not subsystem^3 = {sub**3!r}")
    for name in ("product_fidelity", "network_fidelity"):
        if not 0.0 <= rec[name] <= 1.0:
            failures.append(f"{name} {rec[name]!r} outside [0, 1]")
    if not rec["accepted_probability"] <= 0.75:
        failures.append(f"accepted probability {rec['accepted_probability']!r} exceeds 3/4")
    ratio = inp.get("reference_ratio")
    if ratio is not None and abs(prod - REFERENCE_TARGETS[ratio]) > REFERENCE_GATE:
        failures.append(f"estimator a {prod!r} at ratio {ratio} misses {REFERENCE_TARGETS[ratio]}")
    return failures


def check_cli_command(inp: dict, rec: dict) -> list[str]:
    if rec["exit"] != 0:
        return [f"{inp['command']} exited {rec['exit']}"]
    command = inp["command"]
    if command == "ideal-run":
        if "success" not in rec:
            return ["ideal-run wrote no report"]
        return check_protocol(SystemParams(**inp["config"]), rec["success"], rec["fidelity"])
    if command == "sweep-decay":
        failures = []
        rows = inp["grid_steps"] * len(inp["eta_over_kappa"].split(","))
        if rec["rows"] != rows:
            failures.append(f"sweep-decay wrote {rec['rows']} rows, expected {rows}")
        if not rec["max_rel_diff"] <= SWEEP_REL_TOL:
            failures.append(f"sweep-decay abs_diff/closed reaches {rec['max_rel_diff']!r}")
        return failures
    lines = rec["lines"]
    if len(lines) != VALIDATE_CHECKS or not all(line.startswith("ok ") for line in lines):
        return [f"validate reported {lines!r}"]
    return []


def check_record(workload: str, inputs: list[dict], rec: dict) -> list[str]:
    if "error" in rec:
        return [f"op raised {rec['error']}"]
    inp = inputs[rec["index"]]
    if workload.startswith("protocol_"):
        failures = check_protocol(SystemParams(**inp["params"]), rec["success"], rec["fidelity"])
    elif workload == "noise_surface":
        failures = check_noise(inp, rec)
    else:
        failures = [m for cmd, cmd_rec in zip(inp["commands"], rec["commands"])
                    for m in check_cli_command(cmd, cmd_rec)]
    if "replica_error" in rec:
        failures.append(rec["replica_error"])
    return failures


def count_failures(workload: str, inputs: list[dict], records: list[dict]) -> tuple[int, list[str]]:
    """Failed op count and the distinct failure messages.  For the CLI, a
    config that ran more than once must give byte-identical output every time."""
    failed = 0
    messages: list[str] = []
    digests: dict[str, str] = {}
    for rec in records:
        failures = check_record(workload, inputs, rec)
        for cmd_rec in rec.get("commands", []):
            if cmd_rec["sha256"] != digests.setdefault(cmd_rec["key"], cmd_rec["sha256"]):
                failures.append(f"repeated config {cmd_rec['key']} gave different output")
        failed += bool(failures)
        messages.extend(m for m in failures if m not in messages)
    return failed, messages
