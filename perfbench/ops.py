"""What one op of each workload does, untraced and traced.

An untraced op is a single public call into ``w2ghz``.  A traced op is a
staged replica of that call: it invokes the same public stage functions in
the same order, with a span around each, so every per-layer number is a
measured slice of the real code path.  After each traced op,
``replica_error`` compares the replica's result with the real call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from w2ghz import cli
from w2ghz.analysis import (
    SweepSpec,
    master_equation_estimates,
    params_for_eta_over_kappa,
    pd_sweep,
    reference_noise_params,
)
from w2ghz.atom_cavity import FULL_LEVELS, SystemParams, collapse_operators, full_hamiltonian, full_space
from w2ghz.checks import run_all_checks
from w2ghz.detection import all_patterns, classify_pattern, enumerate_outcomes, measure
from w2ghz.dynamics import IntegratorConfig, propagate_matrix
from w2ghz.hilbert import DensityMatrix, fidelity
from w2ghz.photonics import DEFAULT_LAYOUT, full_network
from w2ghz.protocol import (
    ProtocolResult,
    ProtocolRun,
    apply_hadamard_pulses,
    cavity_interaction,
    ghz_target,
    prepare_w_state,
    raman_mapping,
    run_protocol,
    sign_correction,
    transfer_coefficients,
)

# The fixed RK4 step master_equation_estimates uses by default.
ANALYSIS_STEP = IntegratorConfig(dt=1e-3)
# Replica results must match the real call to this absolute tolerance.
REPLICA_TOL = 1e-12
# sweep-decay's default kappa*t range when the config gives none.
SWEEP_RANGE = (1e-3, 3.0)


class Tracer:
    """Spans and counts of one traced op, kept in memory.

    A span is [name, start, end, parent index]; spans that start while
    another is open are its children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def summary(self) -> dict:
        """Total seconds per span name, the root span's self time under
        ``<root>.self``, and the counts."""
        totals: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0 and name == "op":
                totals["op.self"] = totals.get("op.self", 0.0) + (end - start) - child_time[index]
        return {"spans": totals, "counts": dict(self.counts)}


class ProtocolOps:
    """One ``run_protocol`` call per op."""

    def __init__(self, inputs, workdir: Path):
        pass

    def run(self, inp):
        return run_protocol(SystemParams(**inp["params"]))

    def run_traced(self, inp, tracer: Tracer):
        with tracer.span("op"):
            with tracer.span("atom_cavity.system_params"):
                params = SystemParams(**inp["params"])
            t = params.operating_time
            with tracer.span("protocol.prepare"):
                entangled = apply_hadamard_pulses(prepare_w_state())
            with tracer.span("dynamics.transfer_coefficients"):
                coeffs = transfer_coefficients(params, t)
            with tracer.span("protocol.cavity_interaction"):
                joint = cavity_interaction(entangled, params, coefficients=coeffs)
            with tracer.span("photonics.full_network"):
                network_state = full_network(joint, DEFAULT_LAYOUT, allow_vacuum=abs(coeffs.alpha) > 1e-12)
            with tracer.span("detection.enumerate_outcomes"):
                report = enumerate_outcomes(network_state, params.eta_d)
            target = ghz_target()
            results = []
            success = 0.0
            fidelity_acc = 0.0
            with tracer.span("protocol.postprocess"):
                for pattern in sorted(report.conditional_states, key=lambda p: p.sorted_names):
                    outcome = classify_pattern(pattern)
                    probability = report.probability(pattern)
                    conditional = report.conditional_states[pattern]
                    final = raman_mapping(sign_correction(conditional, outcome))
                    f = fidelity(final, target)
                    results.append(ProtocolResult(pattern, outcome, probability, conditional, final, f))
                    success += probability
                    fidelity_acc += probability * f
            run = ProtocolRun(params=params, time=t, results=tuple(results),
                              success_probability=success,
                              reject_probability=max(0.0, 1.0 - success),
                              fidelity=fidelity_acc / success if success > 0 else 0.0,
                              report=report)
        # enumerate_outcomes calls measure once per pattern and builds a
        # DensityMatrix for every pattern with non-zero probability, but
        # keeps only the accepted ones.  Outside the op, every one of those
        # states is rebuilt and re-wrapped to time the construction alone.
        tracer.count("photonics.network_terms", len(network_state.terms))
        tracer.count("detection.measure_calls", len(report.pattern_probabilities))
        tracer.count("detection.conditional_states", len(report.conditional_states))
        for pattern in all_patterns():
            _, rho = measure(network_state, pattern, params.eta_d)
            if rho is not None:
                with tracer.span("hilbert.density_matrix"):
                    DensityMatrix(rho.space, rho.elements, normalized=rho.normalized)
                tracer.count("detection.nonzero_patterns", 1)
        return run, None

    def op_seconds(self, summary: dict) -> float:
        return summary["spans"]["op"]

    def record(self, inp, run) -> dict:
        return {"success": run.success_probability, "fidelity": run.fidelity}

    def replica_error(self, inp, run, extra) -> str | None:
        real = run_protocol(SystemParams(**inp["params"]))
        diff = max(abs(real.success_probability - run.success_probability),
                   abs(real.fidelity - run.fidelity))
        if diff > REPLICA_TOL:
            return f"staged protocol differs from run_protocol by {diff:.3e}"
        return None


def noise_params(inp) -> SystemParams:
    if "reference_ratio" in inp:
        return reference_noise_params(inp["reference_ratio"])
    return SystemParams(**inp["params"])


def unit_basis(n_max: int):
    """One atom-cavity unit's space, the indices of |gL,0,0> and |gR,0,0>,
    and the ideal transfer target (|eL,1,0> + |eR,0,1>)/sqrt2."""
    space = full_space(n_max)
    target = np.zeros(space.total_dim, dtype=np.complex128)
    target[space.basis_index(FULL_LEVELS.index("eL"), 1, 0)] = 1.0 / math.sqrt(2.0)
    target[space.basis_index(FULL_LEVELS.index("eR"), 0, 1)] = 1.0 / math.sqrt(2.0)
    g_l = space.basis_index(FULL_LEVELS.index("gL"), 0, 0)
    g_r = space.basis_index(FULL_LEVELS.index("gR"), 0, 0)
    return space, g_l, g_r, target


def uhlmann_to_target(rho: np.ndarray, target: np.ndarray) -> float:
    """sqrt(<target| rho |target>), the estimator-a subsystem fidelity."""
    return math.sqrt(max(float(np.real(np.vdot(target, rho @ target))), 0.0))


class NoiseOps:
    """One ``master_equation_estimates`` call per op.

    The traced op first replays the single-unit propagations the estimator
    performs (operators built and three basis inputs propagated, once per
    input as the estimator does), then makes the real call.
    """

    def __init__(self, inputs, workdir: Path):
        pass

    def run(self, inp):
        return master_equation_estimates(noise_params(inp))

    def run_traced(self, inp, tracer: Tracer):
        params = noise_params(inp)
        t = params.operating_time
        space, g_l, g_r, target = unit_basis(params.n_max)
        outputs = []
        with tracer.span("op"):
            for i, j in ((g_l, g_l), (g_r, g_r), (g_l, g_r)):
                m0 = np.zeros((space.total_dim,) * 2, dtype=np.complex128)
                m0[i, j] = 1.0
                with tracer.span("atom_cavity.operators"):
                    h = full_hamiltonian(params)
                    collapse = collapse_operators(params)
                with tracer.span("dynamics.propagate_matrix"):
                    outputs.append(propagate_matrix(h, collapse, m0, t, ANALYSIS_STEP))
                tracer.count("dynamics.propagations", 1)
                tracer.count("dynamics.rk4_steps", max(1, math.ceil(t / ANALYSIS_STEP.dt - 1e-12)))
            with tracer.span("analysis.estimates"):
                estimates = master_equation_estimates(params)
        # The (gL + gR)/sqrt2 input's output, by linearity.
        m_ll, m_rr, m_lr = outputs
        rho_plus = 0.5 * (m_ll + m_rr + m_lr + m_lr.conj().T)
        return estimates, uhlmann_to_target(rho_plus, target)

    def op_seconds(self, summary: dict) -> float:
        return summary["spans"]["analysis.estimates"]

    def record(self, inp, est) -> dict:
        return {
            "subsystem_fidelity": est.subsystem_fidelity,
            "product_fidelity": est.product_fidelity,
            "network_fidelity": est.network_fidelity,
            "accepted_probability": est.accepted_probability,
        }

    def replica_error(self, inp, est, f_sub) -> str | None:
        diff = abs(est.subsystem_fidelity - f_sub)
        if diff > REPLICA_TOL:
            return f"staged propagation differs from master_equation_estimates by {diff:.3e}"
        return None


class CliOps:
    """One op is a block of in-process ``w2ghz.cli.main`` calls: each of
    ideal-run, sweep-decay and validate once, in seeded order.  Output goes
    to a file (``validate`` has no ``--out``, so its stdout is captured)."""

    def __init__(self, inputs, workdir: Path):
        self.workdir = workdir
        for block in inputs:
            for cmd in block["commands"]:
                if "config" in cmd:
                    path = self._config_path(cmd)
                    if not path.exists():
                        path.write_text(json.dumps(cmd["config"], sort_keys=True))

    def _config_path(self, cmd) -> Path:
        return self.workdir / f"config-{cmd['command']}-{cmd['config_index']}.json"

    def _out_path(self, cmd) -> Path:
        return self.workdir / f"out-{cmd['command']}.txt"

    def _argv(self, cmd) -> list[str]:
        command = cmd["command"]
        if command == "ideal-run":
            return [command, "--config", str(self._config_path(cmd)), "--out", str(self._out_path(cmd))]
        if command == "sweep-decay":
            return [command, "--eta-over-kappa", cmd["eta_over_kappa"],
                    "--grid-steps", str(cmd["grid_steps"]), "--out", str(self._out_path(cmd))]
        return [command, "--config", str(self._config_path(cmd))]

    def _main(self, cmd):
        """Exit code, captured stdout and seconds of one CLI call."""
        argv = self._argv(cmd)
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            t0 = perf_counter()
            code = cli.main(argv)
            seconds = perf_counter() - t0
        return code, captured.getvalue(), seconds

    def run(self, block):
        return [self._main(cmd) for cmd in block["commands"]]

    def run_traced(self, block, tracer: Tracer):
        results = []
        with tracer.span("op"):
            for cmd in block["commands"]:
                with tracer.span("cli." + cmd["command"].replace("-", "_")):
                    results.append(self._main(cmd))
        replicas = []
        for cmd in block["commands"]:
            if cmd["command"] == "sweep-decay":
                with tracer.span("analysis.pd_sweep"):
                    replicas.append([pd_sweep(SweepSpec("kappa_t", *SWEEP_RANGE, cmd["grid_steps"],
                                                        params_for_eta_over_kappa(float(r))))
                                     for r in cmd["eta_over_kappa"].split(",")])
            elif cmd["command"] == "validate":
                with tracer.span("checks.run_all_checks"):
                    replicas.append(run_all_checks(params_document=cmd["config"]))
            else:
                replicas.append(None)
        return results, replicas

    def op_seconds(self, summary: dict) -> float:
        return summary["spans"]["op"]

    def _output_text(self, cmd, result) -> str:
        if cmd["command"] == "validate":
            return result[1]
        path = self._out_path(cmd)
        return path.read_text() if path.exists() else ""

    def _record_one(self, cmd, result) -> dict:
        command = cmd["command"]
        text = self._output_text(cmd, result)
        self._out_path(cmd).unlink(missing_ok=True)
        rec = {
            "key": f"{command}:{cmd['config_index']}",
            "exit": result[0],
            "seconds": result[2],
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        if command == "ideal-run" and text:
            doc = json.loads(text)
            rec["success"] = doc["success_probability"]
            rec["fidelity"] = doc["fidelity"]
        elif command == "sweep-decay":
            rows = [line.split(",") for line in text.splitlines()[1:]]
            rec["rows"] = len(rows)
            rec["max_rel_diff"] = max((float(r[4]) / float(r[2]) for r in rows if float(r[2]) > 0.0),
                                      default=math.inf)
        elif command == "validate":
            rec["lines"] = text.splitlines()
        return rec

    def record(self, block, results) -> dict:
        return {"commands": [self._record_one(cmd, res) for cmd, res in zip(block["commands"], results)]}

    def replica_error(self, block, results, replicas) -> str | None:
        for cmd, result, replica in zip(block["commands"], results, replicas):
            if cmd["command"] == "sweep-decay":
                rows = [line.split(",") for line in self._output_text(cmd, result).splitlines()[1:]]
                cells = [[f"{p.closed_form:.12g}", f"{p.numeric:.12g}"] for curve in replica for p in curve]
                if [row[2:4] for row in rows] != cells:
                    return "pd_sweep does not reproduce the sweep-decay CSV"
            elif cmd["command"] == "validate":
                names = [line.split()[1].rstrip(":") for line in result[1].splitlines()]
                if names != [r.name for r in replica] or not all(r.passed for r in replica):
                    return "run_all_checks does not reproduce the validate output"
        return None


OPS = {
    "protocol_ideal": ProtocolOps,
    "protocol_decay": ProtocolOps,
    "noise_surface": NoiseOps,
    "cli_batch": CliOps,
}
