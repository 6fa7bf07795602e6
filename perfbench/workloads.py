"""Seeded input generation for the four benchmark workloads.

Every input is a plain JSON-serialisable dict, so the program under test sees
only generated values; the same seed always yields the same list.  The
generator imports nothing from ``w2ghz``.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("protocol_ideal", "protocol_decay", "noise_surface", "cli_batch")

# Why each workload exists, and which per-layer metrics should move which
# end-to-end metric on it (import.w2ghz_s moves setup_s on all of them).
RATIONALE = {
    "protocol_ideal": "Lossless run_protocol, the paper's headline path: 40 network terms, "
                      "enumerate_outcomes dominates. atom_cavity/protocol/dynamics/photonics/"
                      "detection/hilbert spans move op_min_ms",
    "protocol_decay": "run_protocol with cavity decay: 180 network terms, 64x64 conditional states "
                      "checked by eigvalsh. Not in BENCHMARK.json: its 45 ms ops cannot be timed "
                      "steadily on a shared box",
    "noise_surface": "master_equation_estimates at the reference drive: RK4 dominates. Not in "
                     "BENCHMARK.json: its 3.5 s ops cannot be timed steadily on a shared box",
    "cli_batch": "In-process CLI blocks of ideal-run, sweep-decay and validate: the only cover of "
                 "cli, checks and the scalar pd_sweep. cli.*, analysis.pd_sweep_ms and "
                 "checks.run_all_checks_ms move op_min_ms",
}
# The workloads BENCHMARK.json lists; the others run by hand (their ops are
# too long for a steady fastest-op time on a shared box).
BENCHMARKED = ("protocol_ideal", "cli_batch")

# Reference noise drive, in units of gamma (the analysis module's constants).
REFERENCE_LAMBDA_C = 2.86
REFERENCE_OMEGA = 2.9
REFERENCE_DELTA = 14.0
# Upper end of the fidelity-surface axis-a grid: 2 * lambda_c / 50.
AXIS_A_TOP = 2.0 * REFERENCE_LAMBDA_C / 50.0

# Inputs are cycled when a run completes more ops than a pool holds.
PROTOCOL_POOL = 512
NOISE_POINTS = 30
CLI_BLOCKS = 200
CLI_CONFIGS_PER_COMMAND = 4
CLI_GRID_STEPS = 1000


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _lossless_params(rng: random.Random) -> dict:
    """Symmetric drive lambda_c = omega in [0.5, 1.5], delta >= 10 lambda_c
    (so the adiabatic advisory stays off) and eta_d in [0.5, 1]."""
    coupling = rng.uniform(0.5, 1.5)
    return {
        "delta": coupling * rng.uniform(10.0, 40.0),
        "lambda_c": coupling,
        "omega": coupling,
        "kappa": 0.0,
        "eta_d": rng.uniform(0.5, 1.0),
    }


def _decaying_params(rng: random.Random) -> dict:
    """As the lossless draw, with kappa set by eta/kappa log-uniform in [10, 250]."""
    params = _lossless_params(rng)
    eta = params["lambda_c"] ** 2 / params["delta"]
    params["kappa"] = eta / _log_uniform(rng, 10.0, 250.0)
    return params


def _noise_inputs(rng: random.Random) -> list[dict]:
    """Both reference ratios first, then (kappa, gamma_a) points in (0, top]."""
    inputs: list[dict] = [{"reference_ratio": 250.0}, {"reference_ratio": 50.0}]
    for _ in range(NOISE_POINTS):
        inputs.append({"params": {
            "delta": REFERENCE_DELTA,
            "lambda_c": REFERENCE_LAMBDA_C,
            "omega": REFERENCE_OMEGA,
            "kappa": AXIS_A_TOP * (1.0 - rng.random()),
            "gamma_a": AXIS_A_TOP * (1.0 - rng.random()),
        }})
    return inputs


def _cli_inputs(rng: random.Random) -> list[dict]:
    """One op per block of the three commands in seeded order.  Each command
    names one of a few seeded configs, so configs repeat across blocks."""
    configs = {
        "ideal-run": [_lossless_params(rng) for _ in range(CLI_CONFIGS_PER_COMMAND)],
        "validate": [_lossless_params(rng) for _ in range(CLI_CONFIGS_PER_COMMAND)],
        # One ratio per call keeps every CLI call near 10 ms, short enough to
        # fall inside one quiet phase of a shared box (see op_min_ms).
        "sweep-decay": [f"{_log_uniform(rng, 10.0, 250.0):.6g}" for _ in range(CLI_CONFIGS_PER_COMMAND)],
    }
    for docs in (configs["ideal-run"], configs["validate"]):
        for doc in docs:
            del doc["kappa"]
    blocks: list[dict] = []
    for _ in range(CLI_BLOCKS):
        order = list(configs)
        rng.shuffle(order)
        commands = []
        for command in order:
            index = rng.randrange(CLI_CONFIGS_PER_COMMAND)
            cmd = {"command": command, "config_index": index}
            if command == "sweep-decay":
                cmd["eta_over_kappa"] = configs[command][index]
                cmd["grid_steps"] = CLI_GRID_STEPS
            else:
                cmd["config"] = configs[command][index]
            commands.append(cmd)
        blocks.append({"commands": commands})
    return blocks


def generate(workload: str, seed: int) -> list[dict]:
    """The op inputs of one workload for one seed, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "protocol_ideal":
        return [{"params": _lossless_params(rng)} for _ in range(PROTOCOL_POOL)]
    if workload == "protocol_decay":
        return [{"params": _decaying_params(rng)} for _ in range(PROTOCOL_POOL)]
    if workload == "noise_surface":
        return _noise_inputs(rng)
    if workload == "cli_batch":
        return _cli_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
