"""Command-line interface.

Subcommands::

    ideal-run         run the full protocol, emit a JSON report
    sweep-decay       decay success-probability curves as CSV
    fidelity-surface  master-equation fidelity estimators as CSV
    validate          run the invariant battery, exit non-zero on failure

Configs are JSON objects (rates in multiples of the reference rate gamma,
times in 1/gamma) holding only keys their command reads:

    ideal-run         the SystemParams fields, "t" (default: the operating
                      time), "layout" (routing map), "out"
    sweep-decay       "sweep" ({"min", "max", "steps"} over kappa*t), "out"
    fidelity-surface  "dt" (RK4 step), "out"
    validate          "layout"; other keys go to the params-invariants check

Exit codes: 0 success, 1 validation failure, 2 config error.  All commands
are deterministic: identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from .analysis import (
    REFERENCE_LAMBDA_C,
    SweepSpec,
    fidelity_curve_vs_coupling_ratio,
    fidelity_surface,
    params_for_eta_over_kappa,
    pd_sweep,
)
from .atom_cavity import SystemParams
from .checks import run_all_checks
from .dynamics import IntegratorConfig
from .photonics import DEFAULT_LAYOUT, NetworkLayout
from .protocol import require_modelled, run_protocol

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

# Most steps per fidelity-surface axis; a larger grid is refused before any
# point is estimated.
_MAX_SURFACE_STEPS = 1000

_DEFAULT_PARAMS_DOC = {"delta": 20.0, "lambda_c": 1.0, "omega": 1.0}
_PARAMS_KEYS = frozenset(f.name for f in fields(SystemParams))
# The config keys each command reads.  ``validate`` hands every other key,
# unparsed, to its params-invariants check; the other commands reject them.
_COMMAND_KEYS = {
    "ideal-run": _PARAMS_KEYS | {"t", "layout", "out"},
    "sweep-decay": frozenset({"sweep", "out"}),
    "fidelity-surface": frozenset({"dt", "out"}),
    "validate": frozenset({"layout"}),
}


class ConfigError(Exception):
    pass


def _fmt(value: float) -> str:
    """Fixed 12-significant-digit numeric formatting for CSV cells."""
    return f"{value:.12g}"


def _load_config(path: str | None, command: str) -> dict:
    """The JSON object at ``path`` ({} without one), holding only keys
    ``command`` reads."""
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # a syntax error names its line and column
        raise ConfigError(f"invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object, got {type(data).__name__}")
    unknown = set(data) - _COMMAND_KEYS[command]
    if unknown and command != "validate":
        raise ConfigError(f"config error: {command} does not read key(s) {sorted(unknown)}; "
                          f"it reads {sorted(_COMMAND_KEYS[command])}")
    return data


def _number(value, name: str, positive: bool = False) -> float:
    """A config number as a float: finite and non-negative, or positive."""
    try:
        number = float(value) if isinstance(value, (int, float)) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not (math.isfinite(number) and (number > 0 if positive else number >= 0)):
        raise ConfigError(f"config error: {name}: expected a finite {'positive' if positive else 'non-negative'} "
                          f"number, got {value!r}")
    return number


def _parse_layout(data: dict) -> NetworkLayout:
    if "layout" not in data:
        return DEFAULT_LAYOUT
    try:
        return NetworkLayout.from_dict(data["layout"])
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"config error: field 'layout': {exc}") from exc


def _write_output(text: str, out_arg: str | None, data: dict) -> None:
    """Write to ``--out``, else to the config's "out", else to stdout."""
    out_path = data.get("out")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError(f"config error: field 'out': expected a path string, got {out_path!r}")
    out_path = out_arg or out_path
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
            {**_DEFAULT_PARAMS_DOC, **{k: v for k, v in data.items() if k in _PARAMS_KEYS}})
        require_modelled(params)
        t = _number(data["t"], "field 't'") if "t" in data else params.operating_time
    except ValueError as exc:
        raise ConfigError(f"config error: {exc}") from exc
    layout = _parse_layout(data)
    run = run_protocol(params, layout=layout, t=t)
    report = json.dumps(run.to_json_dict(), indent=2, sort_keys=True) + "\n"
    _write_output(report, args.out, data)
    return EXIT_OK


def _sweep_grid(sweep) -> tuple[float, float, int]:
    """The (min, max, steps) of a sweep object over kappa*t, with defaults
    (1e-3, 3.0, 1000)."""
    if not isinstance(sweep, dict):
        raise ConfigError("config error: field 'sweep': expected an object")
    unknown = set(sweep) - {"min", "max", "steps"}
    if unknown:
        raise ConfigError(f"config error: field 'sweep': unknown key(s) {sorted(unknown)}")
    lo, hi = (_number(sweep.get(key, default), f"field 'sweep': {key!r}")
              for key, default in (("min", 1e-3), ("max", 3.0)))
    steps = sweep.get("steps", 1000)
    if not isinstance(steps, int) or isinstance(steps, bool):
        raise ConfigError(f"config error: field 'sweep': 'steps' must be an integer, got {steps!r}")
    return lo, hi, steps


def cmd_sweep_decay(args) -> int:
    data = _load_config(args.config, args.command)
    lo, hi, steps = _sweep_grid(data.get("sweep", {}))
    if args.grid_steps is not None:
        steps = args.grid_steps
    try:
        rows = [(ratio, params_for_eta_over_kappa(ratio))
                for ratio in (float(r) for r in args.eta_over_kappa.split(",") if r.strip())]
    except ValueError as exc:
        raise ConfigError(f"config error: --eta-over-kappa: {exc}") from exc
    if not rows:
        raise ConfigError("config error: --eta-over-kappa needs at least one ratio")

    lines = ["eta_over_kappa,kappa_t,p_d_closed,p_d_numeric,abs_diff"]
    for ratio, params in rows:
        try:
            spec = SweepSpec("kappa_t", lo, hi, steps, params)
        except ValueError as exc:
            raise ConfigError(f"config error: field 'sweep': {exc}") from exc
        try:
            points = pd_sweep(spec)
        except ValueError as exc:
            raise ConfigError(f"config error: --eta-over-kappa {ratio!r} with field 'sweep': {exc}") from exc
        ratio_cell = _fmt(ratio)
        for point in points:
            lines.append(",".join((ratio_cell, _fmt(point.abscissa), _fmt(point.closed_form),
                                   _fmt(point.numeric), _fmt(point.abs_difference))))
    _write_output("\n".join(lines) + "\n", args.out, data)
    return EXIT_OK


def cmd_fidelity_surface(args) -> int:
    data = _load_config(args.config, args.command)
    cfg = IntegratorConfig(dt=_number(data["dt"], "field 'dt'", positive=True)) if "dt" in data else None
    steps = 3 if args.grid_steps is None else args.grid_steps
    if steps < 2:
        raise ConfigError("config error: --grid-steps must be at least 2")
    if steps > _MAX_SURFACE_STEPS:
        raise ConfigError(f"config error: --grid-steps: steps must be at most {_MAX_SURFACE_STEPS}, got {steps}")

    # The drive and grid are fixed, so the step size is the only input that
    # can make propagation fail: past RK4's stability limit (ValueError) or
    # through trace drift (RuntimeError).
    try:
        if args.axis_convention == "a":
            # Grid over (kappa/gamma, gamma_a/gamma) around the reported cavity.
            top = 2.0 * REFERENCE_LAMBDA_C / 50.0
            grid = [top * i / (steps - 1) for i in range(steps)]
            points = fidelity_surface(grid, grid, cfg=cfg)
        else:
            # One-dimensional lambda_c/gamma_a axis at the experimental kappa.
            ratios = [50.0 + (250.0 - 50.0) * i / (steps - 1) for i in range(steps)]
            points = fidelity_curve_vs_coupling_ratio(ratios, cfg=cfg)
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"config error: field 'dt': {exc}") from exc

    lines = ["kappa_over_gamma,gamma_a_over_gamma,fidelity_estimator_a,fidelity_estimator_b"]
    for p in points:
        lines.append(",".join((_fmt(p.kappa_over_gamma), _fmt(p.gamma_a_over_gamma),
                               _fmt(p.estimator_a), _fmt(p.estimator_b))))
    _write_output("\n".join(lines) + "\n", args.out, data)
    return EXIT_OK


def cmd_validate(args) -> int:
    # Bad params are a validation failure here (exit 1), not a config error,
    # so every key but the layout goes to the check battery unparsed.
    data = _load_config(args.config, args.command)
    layout = _parse_layout(data)
    params_doc = {k: v for k, v in data.items() if k not in _COMMAND_KEYS["validate"]}
    document = {**_DEFAULT_PARAMS_DOC, **params_doc} if params_doc else None
    results = run_all_checks(params_document=document, layout=layout)
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

    for p in (p_run, p_sweep, p_surface, p_validate):
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
