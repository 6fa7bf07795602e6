"""Command-line interface.

Subcommands::

    ideal-run         run the full protocol, emit a JSON report
    sweep-decay       decay success-probability curves as CSV
    fidelity-surface  master-equation fidelity estimators as CSV
    validate          run the invariant battery, exit non-zero on failure

Configs (``--config``) are JSON objects (rates in multiples of the
reference rate gamma, times in 1/gamma) holding only keys their command
reads; fidelity-surface takes none:

    ideal-run         "delta", "lambda_c", "omega", "kappa", "gamma_a",
                      "eta_d", "t" (default: the operating time)
    sweep-decay       "sweep" ({"min", "max"} over kappa*t)
    validate          none; every key goes to the params-invariants check

Exit codes: 0 success, 1 validation failure, 2 config error.  All commands
are deterministic: identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .analysis import (
    REFERENCE_LAMBDA_C,
    SweepSpec,
    master_equation_estimates,
    params_for_eta_over_kappa,
    pd_sweep_table,
    reference_drive,
    reference_noise_params,
)
from .atom_cavity import DOCUMENT_FIELDS, SystemParams
from .checks import DEFAULT_CHECK_PARAMS, run_all_checks
from .protocol import require_modelled, run_protocol

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

# Most steps per fidelity-surface axis; a larger grid is refused before any
# point is estimated.
_MAX_SURFACE_STEPS = 1000

_DEFAULT_PARAMS_DOC = {name: getattr(DEFAULT_CHECK_PARAMS, name) for name in ("delta", "lambda_c", "omega")}
# The config keys each command reads.  ``validate`` reads none: every key
# goes, unparsed, to its params-invariants check; the others reject them.
_COMMAND_KEYS = {
    "ideal-run": frozenset(DOCUMENT_FIELDS) | {"t"},
    "sweep-decay": frozenset({"sweep"}),
    "validate": frozenset(),
}


class ConfigError(Exception):
    pass


def _load_config(path: str | None, command: str) -> dict:
    """The JSON object at ``path`` ({} without one), holding only keys
    ``command`` reads."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a syntax error names its line and column
        raise ConfigError(f"invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object, got {type(data).__name__}")
    unknown = set(data) - _COMMAND_KEYS[command]
    if unknown and command != "validate":
        raise ConfigError(f"config error: {command} does not read key(s) {sorted(unknown)}; "
                          f"it reads {sorted(_COMMAND_KEYS[command])}")
    return data


def _number(value, name: str) -> float:
    """A config number as a float, finite and non-negative."""
    try:
        number = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not (math.isfinite(number) and number >= 0):
        raise ConfigError(f"config error: {name}: expected a finite non-negative number, got {value!r}")
    return number


def _write_output(text: str, out_path: str | None) -> None:
    """Write to ``--out``, else to stdout."""
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path!r}: {exc}") from exc


def cmd_ideal_run(args) -> int:
    data = _load_config(args.config, args.command)
    try:
        params = SystemParams.from_json_dict(
            {**_DEFAULT_PARAMS_DOC, **{k: v for k, v in data.items() if k in DOCUMENT_FIELDS}})
        t = _number(data["t"], "field 't'") if "t" in data else None
        require_modelled(params, t)
    except ValueError as exc:
        raise ConfigError(f"config error: {exc}") from exc
    run = run_protocol(params, t)
    report = json.dumps(run.to_json_dict(), indent=2, sort_keys=True) + "\n"
    _write_output(report, args.out)
    return EXIT_OK


def _sweep_range(sweep) -> tuple[float, float]:
    """The (min, max) of a sweep object over kappa*t, default (1e-3, 3.0)."""
    if not isinstance(sweep, dict):
        raise ConfigError("config error: field 'sweep': expected an object")
    unknown = set(sweep) - {"min", "max"}
    if unknown:
        raise ConfigError(f"config error: field 'sweep': unknown key(s) {sorted(unknown)}")
    lo, hi = (_number(sweep.get(key, default), f"field 'sweep': {key!r}")
              for key, default in (("min", 1e-3), ("max", 3.0)))
    return lo, hi


def cmd_sweep_decay(args) -> int:
    data = _load_config(args.config, args.command)
    lo, hi = _sweep_range(data.get("sweep", {}))
    steps = 1000 if args.grid_steps is None else args.grid_steps
    try:
        rows = [(ratio, params_for_eta_over_kappa(ratio))
                for ratio in (float(r) for r in args.eta_over_kappa.split(",") if r.strip())]
    except ValueError as exc:
        raise ConfigError(f"config error: --eta-over-kappa: {exc}") from exc
    if not rows:
        raise ConfigError("config error: --eta-over-kappa needs at least one ratio")

    tables = ["eta_over_kappa,kappa_t,p_d_closed,p_d_numeric,abs_diff\n"]
    for ratio, params in rows:
        try:
            spec = SweepSpec("kappa_t", lo, hi, steps, params)
        except ValueError as exc:
            raise ConfigError(f"config error: field 'sweep' and --grid-steps: {exc}") from exc
        try:
            table = pd_sweep_table(spec)
        except ValueError as exc:
            raise ConfigError(f"config error: --eta-over-kappa {ratio!r} with field 'sweep': {exc}") from exc
        row = f"{ratio:.12g},%.12g,%.12g,%.12g,%.12g\n"
        tables.append((row * len(table)) % tuple(table.ravel().tolist()))
    _write_output("".join(tables), args.out)
    return EXIT_OK


def cmd_fidelity_surface(args) -> int:
    steps = 3 if args.grid_steps is None else args.grid_steps
    if steps < 2:
        raise ConfigError("config error: --grid-steps must be at least 2")
    if steps > _MAX_SURFACE_STEPS:
        raise ConfigError(f"config error: --grid-steps: steps must be at most {_MAX_SURFACE_STEPS}, got {steps}")

    if args.axis_convention == "a":
        # Grid over (kappa/gamma, gamma_a/gamma) around the reported cavity.
        top = 2.0 * REFERENCE_LAMBDA_C / 50.0
        grid = [top * i / (steps - 1) for i in range(steps)]
        drives = [reference_drive(kappa, gamma_a) for kappa in grid for gamma_a in grid]
    else:
        # One-dimensional lambda_c/gamma_a axis at the experimental kappa.
        drives = [reference_noise_params(50.0 + (250.0 - 50.0) * i / (steps - 1)) for i in range(steps)]

    cells = []
    for params in drives:
        estimates = master_equation_estimates(params)
        cells += (params.kappa, params.gamma_a, estimates.product_fidelity, estimates.network_fidelity)
    rows = ("%.12g,%.12g,%.12g,%.12g\n" * len(drives)) % tuple(cells)
    _write_output("kappa_over_gamma,gamma_a_over_gamma,fidelity_estimator_a,fidelity_estimator_b\n" + rows, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    # Bad params are a validation failure here (exit 1), not a config error,
    # so every key goes to the check battery unparsed.
    data = _load_config(args.config, args.command)
    document = {**_DEFAULT_PARAMS_DOC, **data} if data else None
    results = run_all_checks(params_document=document)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
    if failed:
        print(f"first failing check: {failed[0].name}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


@functools.cache  # built once per process; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="w2ghz",
        description="Simulate the conversion of a three-atom W state into a GHZ state "
                    "via interference of cavity-emitted polarized photons.",
        epilog="Units: all rates in a config are multiples of the reference rate gamma; "
               "times are in 1/gamma.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("ideal-run", help="run the protocol and emit a JSON report")
    p_sweep = sub.add_parser("sweep-decay", help="decay success-probability curves as CSV")
    p_surface = sub.add_parser("fidelity-surface", help="master-equation fidelity estimators as CSV")
    p_validate = sub.add_parser("validate", help="run the invariant battery")

    for p in (p_run, p_sweep, p_validate):
        p.add_argument("--config", help="JSON config path")
    for p in (p_run, p_sweep, p_surface):
        p.add_argument("--out", help="output path (default: stdout)")
    for p in (p_sweep, p_surface):
        p.add_argument("--grid-steps", type=int, default=None, help="sweep/grid resolution")
    p_sweep.add_argument("--eta-over-kappa", default="10,100",
                         help="comma list of eta/kappa ratios (default: 10,100)")
    p_surface.add_argument("--axis-convention", choices=("a", "b"), default="a",
                           help="a: grid over kappa and gamma_a; b: lambda_c/gamma_a axis")

    p_run.set_defaults(func=cmd_ideal_run)
    p_sweep.set_defaults(func=cmd_sweep_decay)
    p_surface.set_defaults(func=cmd_fidelity_surface)
    p_validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or an argument error argparse has reported
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
