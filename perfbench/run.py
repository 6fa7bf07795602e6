"""Benchmark of the w2ghz simulator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Inputs come from the seed (``workloads.py``).  Each workload runs in fresh
worker interpreters (``worker.py``) with one client in a closed loop and one
BLAS thread.  Every op is checked against an oracle (``oracle.py``).  The
last line of stdout is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

# One BLAS thread: every matrix here is at most 576x576, and a worker plus
# this process stay within the machine's two cores.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Scratch space of this run, inside the checkout.
WORKDIR = ROOT / ".bench_tmp" / f"run-{os.getpid()}"

# End-to-end metrics with a bound in BENCHMARK.json: name -> unit.  Other
# machines' load moves this box's speed by up to 2x for seconds at a time, so
# only the fastest op of a run is steady enough to bound; the usual
# throughput and latency percentiles are printed as REPORTED, unbounded.
END_TO_END = {
    "op_min_ms": "ms",
    "pass_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REPORTED = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

# Per-layer metrics of the traced run: name -> (unit, better, the
# end-to-end metric it should move and on which workloads).  A layer a
# workload does not exercise reads 0 there.
PER_LAYER = {
    "import.w2ghz_s": ("s", "lower", "setup_s, all workloads"),
    "trace.untraced_ops_per_s": ("1/s", "higher", "ops_per_s (printed, no bound); the untraced ops of the traced run"),
    "trace.traced_ops_per_s": ("1/s", "higher", "none; with the untraced rate it gives the tracing overhead"),
    "atom_cavity.system_params_us": ("us", "lower", "op_min_ms on protocol_*"),
    "protocol.prepare_us": ("us", "lower", "op_min_ms on protocol_*"),
    "dynamics.transfer_coefficients_us": ("us", "lower", "op_min_ms on protocol_*"),
    "protocol.cavity_interaction_ms": ("ms", "lower", "op_min_ms on protocol_*"),
    "photonics.full_network_ms": ("ms", "lower", "op_min_ms on protocol_*"),
    "photonics.network_terms": ("count", "lower", "op_min_ms on protocol_*"),
    "detection.enumerate_outcomes_ms": ("ms", "lower", "op_min_ms on protocol_*"),
    "detection.measure_calls": ("count", "lower", "op_min_ms on protocol_*"),
    "detection.conditional_yield": ("ratio", "higher", "op_min_ms on protocol_*"),
    "hilbert.density_matrix_us": ("us", "lower", "op_min_ms on protocol_*, larger on protocol_decay"),
    "protocol.postprocess_ms": ("ms", "lower", "op_min_ms on protocol_*"),
    "protocol.self_ms": ("ms", "lower", "op_min_ms on protocol_*"),
    "atom_cavity.operators_ms": ("ms", "lower", "op_min_ms on noise_surface"),
    "dynamics.propagate_matrix_s": ("s", "lower", "op_min_ms, setup_s on noise_surface"),
    "dynamics.rk4_steps": ("count", "lower", "op_min_ms on noise_surface"),
    "analysis.estimates_s": ("s", "lower", "op_min_ms on noise_surface"),
    "analysis.self_ms": ("ms", "lower", "op_min_ms on noise_surface"),
    "cli.ideal_run_ms": ("ms", "lower", "op_min_ms on cli_batch"),
    "cli.sweep_decay_ms": ("ms", "lower", "op_min_ms on cli_batch"),
    "cli.validate_ms": ("ms", "lower", "op_min_ms on cli_batch"),
    "analysis.pd_sweep_ms": ("ms", "lower", "op_min_ms on cli_batch"),
    "checks.run_all_checks_ms": ("ms", "lower", "op_min_ms on cli_batch"),
}

# Fresh interpreters timed for setup_s (the run's own worker is one of
# them); noise_surface's first op alone takes seconds, so it takes fewer.
SETUP_PROCESSES = {"protocol_ideal": 5, "protocol_decay": 5, "noise_surface": 3, "cli_batch": 5}
IMPORT_PROCESSES = 3
# Latest a worker may end, past the measured seconds.
WORKER_GRACE_S = 100.0
TAIL_BEYOND = 10


class BenchmarkError(Exception):
    pass


def spawn(job: dict, tag: str, timeout: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and the monotonic
    time just before it was started."""
    job_path = WORKDIR / f"job-{tag}.json"
    result_path = WORKDIR / f"result-{tag}.json"
    job_path.write_text(json.dumps(job))
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
                              cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0"),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {tag} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text()), started


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    above it, and that percentile.  With too few samples for that, the
    maximum (percentile 100)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = n - 1 - TAIL_BEYOND
    return xs[k], 100.0 * k / (n - 1)


def fastest_op(records: list[dict]) -> float:
    """Seconds of the fastest op.  A cli_batch op is a block of CLI calls,
    and a 70 ms block rarely fits in one quiet phase of the box, so there it
    is the sum of each command's fastest call."""
    best: dict[str, float] = {}
    for rec in records:
        calls = [(c["key"].split(":")[0], c["seconds"]) for c in rec.get("commands", [])]
        for kind, seconds in calls or [("op", rec.get("seconds", math.inf))]:
            best[kind] = min(best.get(kind, math.inf), seconds)
    return sum(best.values())


def latencies_of(records: list[dict]) -> list[float]:
    """Seconds of every op that returned."""
    latencies = [rec["seconds"] for rec in records if "seconds" in rec]
    if not latencies:
        raise BenchmarkError("every timed op raised: " + "; ".join(rec.get("error", "?") for rec in records[:3]))
    return latencies


def rate(latencies: list[float]) -> float:
    """Ops per second of one closed-loop client: ops over busy time."""
    return len(latencies) / sum(latencies)


def _job(workload: str, mode: str, seconds: float, inputs: list[dict]) -> dict:
    return {"workload": workload, "mode": mode, "seconds": seconds,
            "workdir": str(WORKDIR), "inputs": inputs}


def check(workload: str, inputs: list[dict], records: list[dict]) -> tuple[int, list[str]]:
    import oracle  # imports w2ghz, so only once main() has put src/ on the path

    return oracle.count_failures(workload, inputs, records)


def end_to_end(workload: str, inputs: list[dict], seconds: float):
    setup, records = [], []

    def set_up(k):
        res, started = spawn(_job(workload, "setup", seconds, inputs), f"setup{k}", WORKER_GRACE_S)
        setup.append(res["first_done"] - started)
        records.extend(res["records"])

    # Set-up samples before and after the measuring worker, so that they
    # fall in different load phases of the box.
    extra = SETUP_PROCESSES[workload] - 1
    for k in range(extra // 2):
        set_up(k)
    main, started = spawn(_job(workload, "run", seconds, inputs), "run", seconds + WORKER_GRACE_S)
    setup.append(main["first_done"] - started)
    records += main["records"]
    for k in range(extra // 2, extra):
        set_up(k)
    failed, messages = check(workload, inputs, records)
    latencies = latencies_of(main["records"][1:])
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "op_min_ms": fastest_op(main["records"][1:]) * 1e3,
        "ops_per_s": rate(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "pass_frac": (len(records) - failed) / len(records),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {
        "op_min_ms": f"fastest of {len(latencies)} ops"
                     + (", summed over the block's commands" if workload == "cli_batch" else ""),
        "op_p50_ms": f"median of {len(latencies)} samples",
        "op_tail_ms": f"p{tail_pct:.2f} of {len(latencies)} samples",
        "pass_frac": f"failed_frac = {failed / len(records):.6g} ({failed} of {len(records)} ops)",
        "setup_s": f"median of {len(setup)} fresh interpreters",
    }
    return metrics, notes, len(records), failed, messages, main


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-op medians of the traced ops' spans and counts."""

    def span(name, scale, per=None):
        return _median([s["spans"][name] * scale / (s["counts"][per] if per else 1)
                        for s in summaries if name in s["spans"]])

    def count(name, per=None):
        return _median([s["counts"][name] / (s["counts"][per] if per else 1)
                        for s in summaries if name in s["counts"]])

    def ratio(num, den):
        total = sum(s["counts"].get(den, 0) for s in summaries)
        return sum(s["counts"].get(num, 0) for s in summaries) / total if total else 0.0

    protocol = [s for s in summaries if "protocol.prepare" in s["spans"]]
    noise = [s for s in summaries if "analysis.estimates" in s["spans"]]
    return {
        "atom_cavity.system_params_us": span("atom_cavity.system_params", 1e6),
        "protocol.prepare_us": span("protocol.prepare", 1e6),
        "dynamics.transfer_coefficients_us": span("dynamics.transfer_coefficients", 1e6),
        "protocol.cavity_interaction_ms": span("protocol.cavity_interaction", 1e3),
        "photonics.full_network_ms": span("photonics.full_network", 1e3),
        "photonics.network_terms": count("photonics.network_terms"),
        "detection.enumerate_outcomes_ms": span("detection.enumerate_outcomes", 1e3),
        "detection.measure_calls": count("detection.measure_calls"),
        "detection.conditional_yield": ratio("detection.conditional_states", "detection.nonzero_patterns"),
        "hilbert.density_matrix_us": span("hilbert.density_matrix", 1e6, per="detection.nonzero_patterns"),
        "protocol.postprocess_ms": span("protocol.postprocess", 1e3),
        "protocol.self_ms": _median([s["spans"]["op.self"] * 1e3 for s in protocol]),
        "atom_cavity.operators_ms": span("atom_cavity.operators", 1e3),
        "dynamics.propagate_matrix_s": span("dynamics.propagate_matrix", 1.0, per="dynamics.propagations"),
        "dynamics.rk4_steps": count("dynamics.rk4_steps", per="dynamics.propagations"),
        "analysis.estimates_s": span("analysis.estimates", 1.0),
        "analysis.self_ms": _median([(s["spans"]["analysis.estimates"] - s["spans"]["atom_cavity.operators"]
                                      - s["spans"]["dynamics.propagate_matrix"]) * 1e3 for s in noise]),
        "cli.ideal_run_ms": span("cli.ideal_run", 1e3),
        "cli.sweep_decay_ms": span("cli.sweep_decay", 1e3),
        "cli.validate_ms": span("cli.validate", 1e3),
        "analysis.pd_sweep_ms": span("analysis.pd_sweep", 1e3),
        "checks.run_all_checks_ms": span("checks.run_all_checks", 1e3),
    }


def traced(workload: str, inputs: list[dict], seconds: float):
    imports = [spawn(_job(workload, "import", seconds, inputs), f"import{k}", WORKER_GRACE_S)[0]["import_s"]
               for k in range(IMPORT_PROCESSES)]
    main, _ = spawn(_job(workload, "trace", seconds, inputs), "trace", seconds + WORKER_GRACE_S)
    imports.append(main["import_s"])
    records = main["records"] + main["traced_records"]
    failed, messages = check(workload, inputs, records)
    traced_latencies = latencies_of(main["traced_records"])
    metrics = {
        "import.w2ghz_s": statistics.median(imports),
        "trace.untraced_ops_per_s": rate(latencies_of(main["records"][1:])),
        "trace.traced_ops_per_s": rate(traced_latencies),
        **layer_metrics(main["summaries"]),
    }
    untraced, traced_rate = metrics["trace.untraced_ops_per_s"], metrics["trace.traced_ops_per_s"]
    notes = {
        "trace.traced_ops_per_s": f"{len(traced_latencies)} traced ops; overhead "
                                  f"{(untraced - traced_rate) / untraced:+.1%} of the untraced rate",
        "import.w2ghz_s": f"median of {len(imports)} fresh interpreters",
    }
    return metrics, notes, len(records), failed, messages, main


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(seed: int, worker: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "worker_os_threads": worker["threads"],
        "seed": seed,
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Before numpy loads here (oracles) or in any worker.
    os.environ.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})

    if not (SRC / "w2ghz" / "__init__.py").is_file():
        print(f"error: no w2ghz sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(str(SRC / "w2ghz"), quiet=1)

    inputs = workloads.generate(args.workload, args.seed)
    WORKDIR.mkdir(parents=True)
    try:
        run = traced if args.trace else end_to_end
        metrics, notes, attempted, failed, messages, worker = run(args.workload, inputs, args.seconds)
        env = environment(args.seed, worker)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.parent.rmdir()  # only if no other run is using it

    units = END_TO_END if not args.trace else {name: spec[0] for name, spec in PER_LAYER.items()}
    printed = {**units, **REPORTED} if not args.trace else units
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {workloads.RATIONALE[args.workload]}")
    for message in messages[:20]:
        print(f"oracle failure: {message}")
    for name, unit in printed.items():
        note = notes.get(name)
        print(f"{name} = {metrics[name]:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
