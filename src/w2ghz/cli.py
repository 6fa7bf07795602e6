"""Command-line interface.

Subcommands::

    ideal-run         run the full protocol, emit a JSON report
    sweep-decay       decay success-probability curves as CSV
    fidelity-surface  master-equation fidelity estimators as CSV
    validate          run the invariant battery, exit non-zero on failure

Configs are JSON objects whose keys mirror SystemParams (delta, lambda_c,
omega, kappa, gamma_a, eta_d, n_max), all rates in multiples of the reference
rate gamma and times in 1/gamma; optional keys: "t" (interaction time,
default the operating time), "dt" (integrator step), "sweep" ({"min", "max",
"steps"} over kappa*t) and "layout" (routing map).  Exit codes: 0 success,
1 validation failure, 2 config error.  All commands are deterministic:
identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
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

_DEFAULT_PARAMS_DOC = {"delta": 20.0, "lambda_c": 1.0, "omega": 1.0}
# Config keys that are run options rather than SystemParams fields.
_OPTION_KEYS = ("t", "dt", "sweep", "layout", "out")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on, parsed from one JSON document.

    All computations are deterministic, so a RunConfig fully determines the
    output bytes.
    """

    params: SystemParams
    layout: NetworkLayout = DEFAULT_LAYOUT
    t: float | None = None
    integrator: IntegratorConfig | None = None
    sweep: dict | None = None
    out: str | None = None


def _fmt(value: float) -> str:
    """Fixed 12-significant-digit numeric formatting for CSV cells."""
    return f"{value:.12g}"


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path!r}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path!r} must hold a JSON object, got {type(data).__name__}")
    return data


def _split_options(data: dict) -> tuple[dict, dict]:
    """The SystemParams fields of a config document and its run options."""
    params_doc = {k: v for k, v in data.items() if k not in _OPTION_KEYS}
    options = {k: v for k, v in data.items() if k in _OPTION_KEYS}
    return params_doc, options


def _parse_layout(options: dict) -> NetworkLayout:
    if "layout" not in options:
        return DEFAULT_LAYOUT
    try:
        return NetworkLayout.from_dict(options["layout"])
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"config error: field 'layout': {exc}") from exc


def parse_run_config(data: dict, defaults: dict | None = None) -> RunConfig:
    """Split a config document into run options and validated params."""
    params_doc, options = _split_options(data)
    merged = {**_DEFAULT_PARAMS_DOC, **(defaults or {}), **params_doc}
    try:
        params = SystemParams.from_json_dict(merged)
    except ValueError as exc:
        raise ConfigError(f"config error: {exc}") from exc

    layout = _parse_layout(options)

    t = options.get("t")
    if t is not None and (not isinstance(t, (int, float)) or isinstance(t, bool)
                          or not math.isfinite(t) or t < 0):
        raise ConfigError(f"config error: field 't': expected a finite non-negative number, got {t!r}")

    integrator = None
    if "dt" in options:
        dt = options["dt"]
        if not isinstance(dt, (int, float)) or isinstance(dt, bool) or not math.isfinite(dt) or dt <= 0:
            raise ConfigError(f"config error: field 'dt': expected a finite positive number, got {dt!r}")
        integrator = IntegratorConfig(dt=float(dt))

    sweep = options.get("sweep")
    if sweep is not None and not isinstance(sweep, dict):
        raise ConfigError("config error: field 'sweep': expected an object")

    out = options.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"config error: field 'out': expected a path string, got {out!r}")
    return RunConfig(params=params, layout=layout,
                     t=None if t is None else float(t), integrator=integrator,
                     sweep=sweep, out=out)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        Path(out_path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path!r}: {exc}") from exc


def cmd_ideal_run(args) -> int:
    config = parse_run_config(_load_config(args.config))
    try:
        require_modelled(config.params)
    except ValueError as exc:
        raise ConfigError(f"config error: {exc}") from exc
    run = run_protocol(config.params, layout=config.layout, t=config.t)
    report = json.dumps(run.to_json_dict(), indent=2, sort_keys=True) + "\n"
    _write_output(report, args.out or config.out)
    return EXIT_OK


def _sweep_grid(sweep: dict) -> tuple[float, float, int]:
    """The (min, max, steps) of a sweep object over kappa*t, with defaults
    (1e-3, 3.0, 1000); bounds must be finite and non-negative, steps an
    integer."""
    unknown = set(sweep) - {"min", "max", "steps"}
    if unknown:
        raise ConfigError(f"config error: field 'sweep': unknown key(s) {sorted(unknown)}")
    lo, hi, steps = sweep.get("min", 1e-3), sweep.get("max", 3.0), sweep.get("steps", 1000)
    for key, value in (("min", lo), ("max", hi)):
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value) or value < 0):
            raise ConfigError(f"config error: field 'sweep': {key!r} must be a finite non-negative "
                              f"number, got {value!r}")
    if not isinstance(steps, int) or isinstance(steps, bool):
        raise ConfigError(f"config error: field 'sweep': 'steps' must be an integer, got {steps!r}")
    return float(lo), float(hi), steps


def cmd_sweep_decay(args) -> int:
    data = _load_config(args.config)
    data.pop("kappa", None)  # the ratio list fixes kappa = 1 per row
    config = parse_run_config(data)
    lo, hi, steps = _sweep_grid(config.sweep or {})
    if args.grid_steps is not None:
        steps = args.grid_steps
    try:
        ratios = [float(r) for r in args.eta_over_kappa.split(",") if r.strip()]
    except ValueError as exc:
        raise ConfigError(f"config error: --eta-over-kappa: {exc}") from exc
    if not ratios:
        raise ConfigError("config error: --eta-over-kappa needs at least one ratio")

    lines = ["eta_over_kappa,kappa_t,p_d_closed,p_d_numeric,abs_diff"]
    for ratio in ratios:
        try:
            params = params_for_eta_over_kappa(ratio, eta_d=config.params.eta_d)
        except ValueError as exc:
            raise ConfigError(f"config error: --eta-over-kappa: {exc}") from exc
        try:
            spec = SweepSpec("kappa_t", lo, hi, steps, params)
        except ValueError as exc:
            raise ConfigError(f"config error: field 'sweep': {exc}") from exc
        for point in pd_sweep(spec):
            lines.append(",".join((_fmt(ratio), _fmt(point.abscissa), _fmt(point.closed_form),
                                   _fmt(point.numeric), _fmt(point.abs_difference))))
    _write_output("\n".join(lines) + "\n", args.out or config.out)
    return EXIT_OK


def cmd_fidelity_surface(args) -> int:
    config = parse_run_config(_load_config(args.config))
    cfg = config.integrator
    steps = 3 if args.grid_steps is None else args.grid_steps
    if steps < 2:
        raise ConfigError("config error: --grid-steps must be at least 2")

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
    _write_output("\n".join(lines) + "\n", args.out or config.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    # Bad params are a validation failure here (exit 1), not a config error,
    # so they go to the check battery unparsed.
    params_doc, options = _split_options(_load_config(args.config))
    layout = _parse_layout(options)
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
