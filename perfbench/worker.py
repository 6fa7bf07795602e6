"""One benchmark process: a fresh interpreter that imports ``w2ghz`` and runs
ops of one workload in a closed loop with a single client.

Usage: ``python3 perfbench/worker.py JOB.json RESULT.json``.  The job names
the workload, the mode and the inputs; the result holds the timings and one
compact output record per op, which ``run.py`` checks against its oracles.

Modes:
  import  time ``import w2ghz`` and exit;
  setup   import, run the first op, report when it completed, exit;
  run     as setup, then run ops untraced for ``seconds``;
  trace   as run, but every other op is traced (a staged replica with
          spans).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter


def _threads() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def _require_default_tolerances(hilbert) -> None:
    if hilbert.tol(1.0) != 1.0:
        raise RuntimeError(f"tolerance scale is {hilbert.tol(1.0)}, not 1; results would be unchecked")


def _attempt(ops, index, inputs, traced):
    """Run one op; returns its output record, with the op's ``seconds``
    unless it raised, and the trace summary of a traced op."""
    inp = inputs[index % len(inputs)]
    record = {"index": index % len(inputs)}
    summary = None
    try:
        if traced:
            from ops import Tracer

            tracer = Tracer()
            result, extra = ops.run_traced(inp, tracer)
            summary = tracer.summary()
            record["seconds"] = ops.op_seconds(summary)
        else:
            t0 = perf_counter()
            result = ops.run(inp)
            record["seconds"] = perf_counter() - t0
    except Exception as exc:  # a failed op is counted, not fatal
        record["error"] = repr(exc)
        return record, None
    if traced:
        replica = ops.replica_error(inp, result, extra)
        if replica is not None:
            record["replica_error"] = replica
    record.update(ops.record(inp, result))
    return record, summary


def _loop(ops, inputs, seconds, alternate):
    """Closed loop from the second input on: the next op starts when the
    previous one has been recorded, until ``seconds`` of wall time have
    passed.  With ``alternate`` every other op is traced, so traced and
    untraced ops see the same load on the box.  Returns the untraced
    records, the traced records and the trace summaries."""
    untraced, traced, summaries = [], [], []
    index = 1
    deadline = perf_counter() + seconds
    while True:
        trace_this = alternate and index % 2 == 0
        record, summary = _attempt(ops, index, inputs, trace_this)
        (traced if trace_this else untraced).append(record)
        if summary is not None:
            summaries.append(summary)
        index += 1
        if perf_counter() >= deadline:
            return untraced, traced, summaries


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    t0 = perf_counter()
    import w2ghz  # noqa: F401  (the import itself is measured)
    import_s = perf_counter() - t0
    from w2ghz import hilbert

    _require_default_tolerances(hilbert)
    result = {"import_s": import_s}
    if job["mode"] == "import":
        Path(result_path).write_text(json.dumps(result))
        return 0

    from ops import OPS

    inputs = job["inputs"]
    ops = OPS[job["workload"]](inputs, Path(job["workdir"]))
    first, _ = _attempt(ops, 0, inputs, traced=False)
    result["first_done"] = time.monotonic()
    result["records"] = [first]
    if job["mode"] in ("run", "trace"):
        untraced, traced, summaries = _loop(ops, inputs, job["seconds"], alternate=job["mode"] == "trace")
        result["records"] += untraced
        if job["mode"] == "trace":
            result.update(traced_records=traced, summaries=summaries)
    _require_default_tolerances(hilbert)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["threads"] = _threads()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
