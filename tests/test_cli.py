import hashlib
import importlib.util
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from staged_reference import (
    CORRUPTED_LAYOUT,
    all_layouts,
    max_amplitude_deviation,
    reference_coefficients,
    reference_output_state,
    staged_cavity_interaction,
    staged_network,
)
import w2ghz
from w2ghz import analysis, checks, cli, hilbert, photonics, protocol
from w2ghz.atom_cavity import DOCUMENT_FIELDS
from w2ghz.checks import check_network_reference_state, check_transfer_norm, run_all_checks
from w2ghz.cli import EXIT_CONFIG, EXIT_OK, EXIT_VALIDATION, main
from w2ghz.dynamics import EvolutionCoefficients
from w2ghz.photonics import DEFAULT_LAYOUT
from w2ghz.protocol import apply_hadamard_pulses, prepare_w_state

# A valid routing table as a JSON object, under a "layout" key no command reads.
ALIGNED_ROUTES = {"a": {"V": 7, "H": 7}, "b": {"V": 8, "H": 8}, "c": {"V": 9, "H": 9}}
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("argv, config, message", [
    (["ideal-run"], [1], "must hold a JSON object, got list"),
    (["sweep-decay"], {"sweep": 3}, "config error: field 'sweep': expected an object"),
    (["sweep-decay", "--eta-over-kappa", ","], None, "config error: --eta-over-kappa needs at least one ratio"),
], ids=["config-not-an-object", "sweep-not-an-object", "no-ratio"])
def test_input_refused(tmp_path, capsys, argv, config, message):
    args = argv if config is None else [*argv, "--config", write_json(tmp_path, "cfg.json", config)]
    assert main(args) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


class TestIdealRun:
    def test_default_report(self, tmp_path, capsys):
        assert main(["ideal-run"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["success_probability"] == pytest.approx(0.75, abs=1e-10)
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert len(doc["patterns"]) == 8

    def test_efficiency_from_config(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", {"eta_d": 0.5})
        assert main(["ideal-run", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["success_probability"] == pytest.approx(0.09375, abs=1e-12)

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["ideal-run", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["success_probability"] == pytest.approx(0.75)

    @pytest.mark.parametrize("command", ["ideal-run", "sweep-decay", "validate"])
    @pytest.mark.parametrize("content, message", [
        (b'{"eta_d": 0.5', "invalid JSON"),
        (b'\xff\xfe{"eta_d": 0.5}', "cannot read config"),
        (b"[" * 100_000, "invalid JSON"),
    ], ids=["truncated", "not-utf8", "nested-too-deep"])
    def test_malformed_json_config(self, tmp_path, capsys, command, content, message):
        # Whatever stops the file from parsing is a config error naming it.
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err and str(path) in captured.err
        if content.startswith(b"{"):  # a syntax error names its line
            assert "line" in captured.err

    def test_integer_past_digit_limit_is_config_error(self, tmp_path, capsys):
        # json.loads refuses it with a plain ValueError, not a decode error.
        path = tmp_path / "huge.json"
        path.write_text('{"delta": ' + "1" * 5000 + "}")
        assert main(["ideal-run", "--config", str(path)]) == EXIT_CONFIG
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_field_named(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", {"efficiency": 0.5})
        assert main(["ideal-run", "--config", cfg]) == EXIT_CONFIG
        assert "efficiency" in capsys.readouterr().err

    def test_invalid_params_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", {"eta_d": 1.5})
        assert main(["ideal-run", "--config", cfg]) == EXIT_CONFIG
        assert "eta_d" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, field", [
        ({"delta": float("nan")}, "delta"),
        ({"omega": float("inf")}, "omega"),
        ({"t": float("nan")}, "'t'"),
        ({"t": float("inf")}, "'t'"),
    ])
    def test_non_finite_config_is_config_error(self, tmp_path, capsys, doc, field):
        cfg = write_json(tmp_path, "cfg.json", doc)
        assert main(["ideal-run", "--config", cfg]) == EXIT_CONFIG
        assert field in capsys.readouterr().err

    def test_just_off_symmetric_drive(self, tmp_path, capsys):
        # The vacuum amplitude alpha ~ 1e-13 is below any sensible cut but
        # still carried in the state; its branches must land in REJECT.
        cfg = write_json(tmp_path, "cfg.json", {"delta": 20, "lambda_c": 1, "omega": 1.0000000000001})
        assert main(["ideal-run", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["success_probability"] == pytest.approx(0.75, abs=1e-10)
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_spontaneous_decay_is_config_error(self, tmp_path, capsys):
        # The protocol has no spontaneous decay; it must not print noiseless
        # numbers for a nonzero rate.
        cfg = write_json(tmp_path, "cfg.json", {"delta": 20, "lambda_c": 1, "omega": 1, "gamma_a": 0.5})
        assert main(["ideal-run", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "field 'gamma_a'" in captured.err

    def test_asymmetric_drive_under_decay_runs(self, tmp_path, capsys, monkeypatch):
        # The paper's reference drive with cavity decay: every returned
        # matrix is validated, and decay only costs success probability.
        checked = []
        validate = hilbert.validate_density_stack

        def counting(elements, normalized=True):
            checked.extend(elements)
            validate(elements, normalized)

        monkeypatch.setattr(hilbert, "validate_density_stack", counting)
        drive = {"delta": 14, "lambda_c": 2.86, "omega": 2.9}
        cfg = write_json(tmp_path, "cfg.json", {**drive, "kappa": 0.01})
        assert main(["ideal-run", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["kappa"] == 0.01 and len(doc["patterns"]) == 8
        assert len(checked) == 2 * len(doc["patterns"])
        assert main(["ideal-run", "--config", write_json(tmp_path, "lossless.json", drive)]) == EXIT_OK
        lossless = json.loads(capsys.readouterr().out)
        assert 0.0 < doc["success_probability"] <= lossless["success_probability"]
        assert doc["success_probability"] + doc["reject_probability"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_drive_is_config_error(self, tmp_path, capsys):
        # Without a drive there is no operating time to default to.
        cfg = write_json(tmp_path, "cfg.json", {"lambda_c": 0, "omega": 0})
        assert main(["ideal-run", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "lambda_c" in captured.err and "omega" in captured.err

    def test_zero_drive_at_given_time_stays_in_ground_state(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", {"lambda_c": 0, "omega": 0, "t": 1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ideal-run", "--config", cfg]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["success_probability"], doc["reject_probability"], doc["patterns"]) == (0.0, 1.0, [])

    @pytest.mark.parametrize("doc, fields", [
        ({"lambda_c": 1e200, "omega": 1e200}, ("'lambda_c'", "'omega'", "'delta'")),
        ({"lambda_c": 1e200, "omega": 1e200, "t": 1}, ("'lambda_c'", "'omega'", "'delta'")),
        ({"delta": 1e-310}, ("'lambda_c'", "'omega'", "'delta'")),
        ({"delta": 1, "lambda_c": 1.3e154, "omega": 1.3e154, "t": 1}, ("'lambda_c'", "'omega'", "'delta'")),
    ], ids=["huge-drive", "huge-drive-at-t", "subnormal-detuning", "finite-shifts-infinite-sum"])
    def test_light_shift_past_float_range_is_config_error(self, tmp_path, capsys, doc, fields):
        cfg = write_json(tmp_path, "cfg.json", doc)
        assert main(["ideal-run", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "past the float range" in captured.err
        assert all(field in captured.err for field in fields)

    @pytest.mark.parametrize("doc", [
        {"delta": 1e300},
        {"delta": 1e-160, "lambda_c": 5e-162, "omega": 5e-162},
    ], ids=["far-detuned", "tiny-rates"])
    def test_rates_at_the_float_range_edges_run(self, tmp_path, capsys, doc):
        # Each rate is formed as a ratio first, so neither a square that
        # underflows nor one that overflows moves the lossless answer.
        cfg = write_json(tmp_path, "cfg.json", doc)
        assert main(["ideal-run", "--config", cfg]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["success_probability"] == pytest.approx(0.75, abs=1e-12)
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("doc, message", [
        ({"t": 1e308}, "t = 1e+308 puts the fast phase"),
        ({"kappa": 1e10, "t": 1e8}, "t = 100000000.0 puts the fast phase"),
        ({"kappa": 1e20}, "field 'kappa': kappa = 1e+20 puts the fast phase"),
    ], ids=["huge-time", "overdamped-time", "overdamped-operating-time"])
    def test_phase_past_resolution_is_config_error(self, tmp_path, capsys, monkeypatch, doc, message):
        ran = []
        monkeypatch.setattr(cli, "run_protocol", lambda *args, **kwargs: ran.append(args))
        cfg = write_json(tmp_path, "cfg.json", doc)
        assert main(["ideal-run", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and ran == []
        assert message in captured.err and "past double resolution" in captured.err

    def test_phase_past_float_range_is_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", {"delta": 0.5, "t": 1.7e308})
        assert main(["ideal-run", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "t = 1.7e+308" in captured.err and "past the float range" in captured.err

    def test_fock_cutoff_is_not_read(self, tmp_path, capsys):
        # n_max is no params field, so ideal-run refuses it like any other
        # unread key, and the report's params hold the document fields
        # alone.
        cfg = write_json(tmp_path, "cfg.json", {"n_max": 7})
        assert main(["ideal-run", "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "['n_max']" in captured.err
        assert main(["ideal-run"]) == EXIT_OK
        assert set(json.loads(capsys.readouterr().out)["params"]) == set(DOCUMENT_FIELDS)

    def test_internal_error_is_not_config_error(self, monkeypatch):
        # Only params outside the model are config errors; a failed check on
        # a computed state is a defect and must surface as such.
        def failing(elements, normalized=True):
            raise ValueError("density matrix is not Hermitian (max deviation 1.000e-03)")

        monkeypatch.setattr(hilbert, "validate_density_stack", failing)
        with pytest.raises(ValueError, match="not Hermitian"):
            main(["ideal-run"])

    def test_malformed_layout_is_config_error(self, tmp_path, capsys):
        # ideal-run runs the paper's network alone: a "layout", a valid
        # routing or not, is a key it does not read, and nothing is written.
        out = tmp_path / "report.json"
        for layout in (ALIGNED_ROUTES, {"a": {"V": 7.9, "H": 9}, "b": {"V": 8, "H": "7"}, "c": {"V": 9, "H": 8}},
                       {**ALIGNED_ROUTES, "d": {}}):
            cfg = write_json(tmp_path, "cfg.json", {"layout": layout})
            assert main(["ideal-run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == "" and "does not read key(s) ['layout']" in captured.err
            assert not out.exists()

    @pytest.mark.parametrize("out", [5, ["a"]])
    def test_non_string_out_is_config_error(self, tmp_path, capsys, out):
        # The output path comes from --out alone: "out" in a config, a path
        # string or not, is an unread key, and nothing is written.
        target = tmp_path / "report.json"
        for value in (out, str(target)):
            cfg = write_json(tmp_path, "cfg.json", {"out": value})
            assert main(["ideal-run", "--config", cfg]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == "" and "does not read key(s) ['out']" in captured.err
        assert not target.exists()

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        assert main(["ideal-run", "--out", str(target)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot write output {str(target)!r}" in err

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["ideal-run", "--out", str(out1)])
        main(["ideal-run", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSweepDecay:
    def test_header_and_reference_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_json(tmp_path, "cfg.json", {"sweep": {"min": 0.0156582, "max": 1.0}})
        assert main(["sweep-decay", "--config", cfg, "--eta-over-kappa", "100", "--grid-steps", "3",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "eta_over_kappa,kappa_t,p_d_closed,p_d_numeric,abs_diff"
        first = lines[1].split(",")
        assert float(first[0]) == 100.0
        assert float(first[2]) == pytest.approx(0.715584, abs=5e-4)

    def test_identity_column_small(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-decay", "--grid-steps", "50", "--out", str(out)]) == EXIT_OK
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 100  # two ratios x 50 points
        for row in rows:
            closed, diff = float(row.split(",")[2]), float(row.split(",")[4])
            assert diff <= 1e-12 * max(closed, 1e-300)

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep-decay", "--grid-steps", "20", "--out", str(out1)])
        main(["sweep-decay", "--grid-steps", "20", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_ratio_list(self, capsys):
        assert main(["sweep-decay", "--eta-over-kappa", "10,abc"]) == EXIT_CONFIG
        assert "eta-over-kappa" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-1"])
    def test_out_of_range_ratio_is_config_error(self, capsys, ratio):
        assert main(["sweep-decay", "--eta-over-kappa", ratio]) == EXIT_CONFIG
        assert "eta-over-kappa" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", [
        {"max": float("inf")},
        {"min": "abc"},
        {"min": -1},
        {"steps": 2.5},
        {"stpes": 10},
    ])
    def test_bad_sweep_is_config_error(self, tmp_path, capsys, sweep):
        cfg = write_json(tmp_path, "cfg.json", {"sweep": sweep})
        assert main(["sweep-decay", "--config", cfg, "--eta-over-kappa", "10"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "field 'sweep'" in captured.err
        assert captured.out == ""

    def test_zero_grid_steps_is_config_error(self, capsys):
        assert main(["sweep-decay", "--grid-steps", "0", "--eta-over-kappa", "10"]) == EXIT_CONFIG
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, sweep", [
        (["--grid-steps", "1000000000"], {}),
        ([], {"steps": 111111111111111111111111111111}),
        ([], {"steps": 1000001}),
    ])
    def test_grid_past_cap_is_config_error(self, tmp_path, capsys, argv, sweep):
        # The grid size comes from --grid-steps alone; a "steps" in the
        # sweep object is an unknown key, refused before any grid is built.
        cfg = write_json(tmp_path, "cfg.json", {"sweep": sweep})
        assert main(["sweep-decay", "--config", cfg, "--eta-over-kappa", "10", *argv]) == EXIT_CONFIG
        captured = capsys.readouterr()
        if argv:
            assert "steps must be at most 1000000" in captured.err
        else:
            assert "field 'sweep': unknown key(s) ['steps']" in captured.err
        assert captured.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overdamped_large_kappa_t(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = write_json(tmp_path, "cfg.json", {"sweep": {"max": 2000}})
        assert main(["sweep-decay", "--config", cfg, "--eta-over-kappa", "0.1",
                     "--grid-steps", "3", "--out", str(out)]) == EXIT_OK
        rows = [[float(cell) for cell in line.split(",")] for line in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == pytest.approx([1e-3, 1000.0005, 2000.0])
        for _, _, closed, numeric, diff in rows:
            assert 0.0 < closed < 1e-20
            assert diff <= 1e-12 * closed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_ratio_gives_finite_cells(self, capsys):
        # eta = 1e154 puts the phase eta*t far past double resolution, where
        # the cells would be finite but carry no information, so the curve
        # is refused instead.
        assert main(["sweep-decay", "--eta-over-kappa", "1e154", "--grid-steps", "5"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--eta-over-kappa 1e+154" in captured.err and "past double resolution" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ratio, sweep", [("1e308", {}), ("1e10", {"max": 1e300})])
    def test_curve_past_float_range_is_config_error(self, tmp_path, capsys, ratio, sweep):
        # eta*t past the float range leaves no finite P_d to print.
        cfg = write_json(tmp_path, "cfg.json", {"sweep": sweep})
        assert main(["sweep-decay", "--config", cfg, "--eta-over-kappa", ratio, "--grid-steps", "3"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--eta-over-kappa" in captured.err and "P_d leaves the float range" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_coupling_from_time_zero(self, tmp_path, capsys):
        # At eta/kappa = 1e308 the coupling g = 1e308 is finite and 2g is
        # not; a grid from t = 0 divides by no zero time on the way to the
        # named refusal, and nothing but that reaches stderr.
        cfg = write_json(tmp_path, "cfg.json", {"sweep": {"min": 0, "max": 3}})
        assert main(["sweep-decay", "--config", cfg, "--eta-over-kappa", "1e308"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: --eta-over-kappa 1e+308 with field 'sweep': P_d leaves the float "
                                "range on this grid (eta = 1e+308, kappa = 1.0, kappa*t up to 3.0)\n")


class TestFidelitySurface:
    def test_grid_output(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["fidelity-surface", "--grid-steps", "2", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "kappa_over_gamma,gamma_a_over_gamma,fidelity_estimator_a,fidelity_estimator_b"
        assert len(lines) == 5
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        noiseless = next(r for r in rows if r[0] == 0.0 and r[1] == 0.0)
        assert noiseless[2] == pytest.approx(max(r[2] for r in rows))
        assert all(0.0 <= r[2] <= 1.0 and 0.0 <= r[3] <= 1.0 for r in rows)

    # The estimates run no integrator and the surface reads no config, so a
    # step size has no way in: a config "dt" (the command takes no --config)
    # and a --dt flag both exit 2 at the parser, before any point is estimated.
    @staticmethod
    def assert_step_refused(tmp_path, capsys, monkeypatch, dt, *argv):
        estimated = []
        monkeypatch.setattr(analysis, "master_equation_estimates", lambda *args, **kwargs: estimated.append(args))
        cfg = write_json(tmp_path, "cfg.json", {"dt": dt})
        for way_in in (["--config", cfg], ["--dt", str(dt)]):
            assert main(["fidelity-surface", *way_in, "--grid-steps", "2", *argv]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == "" and f"unrecognized arguments: {' '.join(way_in)}" in captured.err
        assert estimated == []

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_non_finite_step_is_config_error(self, tmp_path, capsys, monkeypatch, dt):
        self.assert_step_refused(tmp_path, capsys, monkeypatch, dt)

    @pytest.mark.parametrize("dt", [0.2, 100])
    @pytest.mark.parametrize("axis", ["a", "b"])
    def test_unstable_step_is_config_error(self, tmp_path, capsys, monkeypatch, dt, axis):
        self.assert_step_refused(tmp_path, capsys, monkeypatch, dt, "--axis-convention", axis)

    @pytest.mark.parametrize("dt", [1e-300, 1e-9])
    def test_step_past_budget_is_config_error(self, tmp_path, capsys, monkeypatch, dt):
        self.assert_step_refused(tmp_path, capsys, monkeypatch, dt)

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    @pytest.mark.parametrize("axis", ["a", "b"])
    def test_internal_error_without_step_is_not_config_error(self, monkeypatch, error, axis):
        # No config value reaches the estimates, so a failure there surfaces
        # as itself rather than as a config error.
        def failing(*args, **kwargs):
            raise error("the unit's emitted block is not a state")

        monkeypatch.setattr(analysis, "master_equation_estimates", failing)
        with pytest.raises(error, match="not a state"):
            main(["fidelity-surface", "--grid-steps", "2", "--axis-convention", axis])

    def test_zero_grid_steps_is_config_error(self, capsys):
        assert main(["fidelity-surface", "--grid-steps", "0"]) == EXIT_CONFIG
        assert "grid-steps" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["1001", "1000000000"])
    @pytest.mark.parametrize("axis", ["a", "b"])
    def test_grid_past_cap_is_config_error(self, capsys, monkeypatch, steps, axis):
        estimated = []
        monkeypatch.setattr(analysis, "master_equation_estimates",
                            lambda *args, **kwargs: estimated.append(args))
        assert main(["fidelity-surface", "--grid-steps", steps, "--axis-convention", axis]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"steps must be at most 1000, got {steps}" in captured.err
        assert captured.out == "" and estimated == []

    def test_coupling_ratio_axis(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["fidelity-surface", "--grid-steps", "2", "--axis-convention", "b",
                     "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 2
        reference = 2.86 / 250
        assert float(rows[0][0]) == pytest.approx(reference)
        assert float(rows[1][0]) == pytest.approx(reference)


def per_cell_csv(header, rows):
    """A CSV table with each cell formatted on its own, as f"{v:.12g}": the
    oracle for the tables the commands format in one pass."""
    return "\n".join([header] + [",".join(f"{v:.12g}" for v in row) for row in rows]) + "\n"


class TestCsvCells:
    @pytest.mark.parametrize("ratio, sweep", [
        (0.1, {}), (0.45, {}), (0.5 * (1 + 1e-10), {}), (0.5 * (1 - 1e-10), {}), (10.9898, {}), (107.3, {}),
        (0.1, {"max": 2000}),
        (0.1, {"max": 12000}),  # the tail is subnormal, then zero
    ])
    def test_sweep_decay(self, tmp_path, ratio, sweep):
        out = tmp_path / "curve.csv"
        cfg = write_json(tmp_path, "cfg.json", {"sweep": sweep})
        argv = ["sweep-decay", "--eta-over-kappa", repr(ratio), "--grid-steps", "1000", "--config", cfg]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        spec = analysis.SweepSpec("kappa_t", 1e-3, sweep.get("max", 3.0), 1000,
                                  analysis.params_for_eta_over_kappa(ratio))
        points = analysis.pd_sweep(spec)
        if sweep.get("max") == 12000:
            tail = [p.closed_form for p in points if p.closed_form < sys.float_info.min]
            assert 0.0 in tail and len(tail) > 1
        assert out.read_text() == per_cell_csv("eta_over_kappa,kappa_t,p_d_closed,p_d_numeric,abs_diff",
                                               [(ratio, *point) for point in points])

    @pytest.mark.parametrize("axis", ["a", "b"])
    def test_fidelity_surface(self, tmp_path, axis):
        out = tmp_path / "surface.csv"
        argv = ["fidelity-surface", "--grid-steps", "2", "--axis-convention", axis, "--out", str(out)]
        assert main(argv) == EXIT_OK
        if axis == "a":
            grid = [0.0, 2.0 * analysis.REFERENCE_LAMBDA_C / 50.0]
            points = analysis.fidelity_surface(grid, grid)
        else:
            points = analysis.fidelity_curve_vs_coupling_ratio([50.0, 250.0])
        header = "kappa_over_gamma,gamma_a_over_gamma,fidelity_estimator_a,fidelity_estimator_b"
        assert out.read_text() == per_cell_csv(header, points)


# The twelve distinct invocations of the cli_batch benchmark at seed 1: four
# params documents each for ideal-run and validate, and four eta/kappa
# ratios for sweep-decay at 1000 grid steps.
BENCHMARK_RUN_DOCS = [
    {"delta": 27.503860086564856, "lambda_c": 0.7931685112801423, "omega": 0.7931685112801423,
     "eta_d": 0.5296763300533576},
    {"delta": 40.71708312344724, "lambda_c": 1.1297716199302683, "omega": 1.1297716199302683,
     "eta_d": 0.8057876362140969},
    {"delta": 29.826489201611327, "lambda_c": 1.1609807487025159, "omega": 1.1609807487025159,
     "eta_d": 0.6175993240380107},
    {"delta": 25.073924512590313, "lambda_c": 1.4936616551589732, "omega": 1.4936616551589732,
     "eta_d": 0.8795467398435635},
]
BENCHMARK_VALIDATE_DOCS = [
    {"delta": 18.01391786539889, "lambda_c": 1.4858487054402008, "omega": 1.4858487054402008,
     "eta_d": 0.6363148325314997},
    {"delta": 36.707529309411065, "lambda_c": 1.1664730451845648, "omega": 1.1664730451845648,
     "eta_d": 0.7446339016346439},
    {"delta": 21.26235853564257, "lambda_c": 0.5698341904920148, "omega": 0.5698341904920148,
     "eta_d": 0.757571665644272},
    {"delta": 13.515330795183909, "lambda_c": 0.7041985262583357, "omega": 0.7041985262583357,
     "eta_d": 0.884362344292988},
]
VALIDATE_DOC_DIGEST = "14204a6b7957eafa1c94c9ca0df2d0302db6e94343349726366070c2f260e6f7"

# (argv, config document or None, whether output goes to --out, exit code,
# sha256 of the output).  Any change to these bytes is a change of the
# CLI's output, not of its speed.
GOLDEN = [
    pytest.param(["ideal-run"], None, False, EXIT_OK,
                 "f1a6ca69ea4102adb8ca49fb5869b8394218e53ed5661074babc9a4ad45dada7", id="ideal-run-default"),
    pytest.param(["sweep-decay"], None, False, EXIT_OK,
                 "34b1e5f44865aceaeceaa3b0113b6daeeeae68b6608abb76fb853963f867a937", id="sweep-decay-default"),
    pytest.param(["fidelity-surface"], None, False, EXIT_OK,
                 "adfacecfdac14c3dfe1a4391861ddb341cca8103a71a7ae389212d90d2a07f50", id="fidelity-surface-default"),
    pytest.param(["validate"], None, False, EXIT_OK,
                 "a520b2e9a6b10109ace07e5bc63a4da3ad30db4ef99d035ce17cf936c65a3235", id="validate-default"),
    *(pytest.param(["ideal-run"], doc, True, EXIT_OK, digest, id=f"ideal-run-benchmark-{i}")
      for i, (doc, digest) in enumerate(zip(BENCHMARK_RUN_DOCS, [
          "0f27f7f870657202b39978bf2e868e9b95e1440d3b5e2e293eebcae0001b8183",
          "27c3017ded47230cb9e75c35bdd5172a812a3cf1536ae95b21fdb85a5b2205df",
          "67626f12e0aa093ad56e21d22f11734dc129ee21933c8cc9f9119eda96f7bad3",
          "90944272f72c1b69044a632e976f494c0aa3f0afbba67b20a2b2463f969d37ef",
      ]))),
    *(pytest.param(["sweep-decay", "--eta-over-kappa", ratio, "--grid-steps", "1000"], None, True, EXIT_OK,
                   digest, id=f"sweep-decay-benchmark-{ratio}")
      for ratio, digest in [
          ("30.9107", "34b28a3b659fc2a64d2e1938873d283ff447525027357ebe1485952ec5c8a781"),
          ("107.3", "9ab1852d02b331451d4f406971c5d30d55f1b69518a5093ce391d19605778257"),
          ("10.9898", "f661637cd9cb89dd6e91986e5f907dfe647439d7fb4b8942ffcd25ab6fdedb2e"),
          ("160.678", "b48a86155cc4c3c114c4aa5eb1d5e4601d02cc0b5b0cb9a870b0fd56d9ef0472"),
      ]),
    *(pytest.param(["validate"], doc, False, EXIT_OK, VALIDATE_DOC_DIGEST, id=f"validate-benchmark-{i}")
      for i, doc in enumerate(BENCHMARK_VALIDATE_DOCS)),
    # A decaying run, a run off the operating time, and one that keeps no
    # accepted state; then estimator b and a 4 x 4 surface.
    pytest.param(["ideal-run"], {"kappa": 0.004}, False, EXIT_OK,
                 "3bd393b63e22b859cc70c72f055642cde034238ac1ec0f8029ca9c68f973f267", id="ideal-run-decaying"),
    pytest.param(["ideal-run"], {"t": 10.0}, False, EXIT_OK,
                 "9a89e8992d0d36f12d30ae134b7347c6376e6eb5d44daba9891a3dbd64dce87c", id="ideal-run-off-time"),
    pytest.param(["ideal-run"], {"eta_d": 0}, False, EXIT_OK,
                 "2d9ca9e3d643d249f044fde9a5d9e5ef9b75dd5f5902d01f0e2b1121fe84de41", id="ideal-run-blind"),
    pytest.param(["fidelity-surface", "--axis-convention", "b"], None, False, EXIT_OK,
                 "36f211731a0c351dd6eb6f390c149bd6b8417bbe9b6367f0ae71508c8c7a4bf4", id="fidelity-surface-axis-b"),
    pytest.param(["fidelity-surface", "--grid-steps", "4"], None, False, EXIT_OK,
                 "62b9b3f2378b0ce013f9e7edee6eaf582708ded333ed6d1b54d61a2f2d820939", id="fidelity-surface-steps-4"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("argv, doc, to_file, code, digest", GOLDEN)
    def test_output_digest(self, tmp_path, capsys, argv, doc, to_file, code, digest):
        out = tmp_path / "out.txt"
        config = [] if doc is None else ["--config", write_json(tmp_path, "cfg.json", doc)]
        assert main(argv + config + (["--out", str(out)] if to_file else [])) == code
        text = out.read_text() if to_file else capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_benchmark_invocations_listed(self):
        # The documents and ratios above are those the cli_batch workload
        # sends at seed 1.
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        sent = {}
        for block in workloads.generate("cli_batch", 1):
            for cmd in block["commands"]:
                sent[cmd["command"], cmd["config_index"]] = cmd.get("config", cmd.get("eta_over_kappa"))
        ratios = [param.values[0][2] for param in GOLDEN if param.id.startswith("sweep-decay-benchmark")]
        assert [sent["ideal-run", i] for i in range(4)] == BENCHMARK_RUN_DOCS
        assert [sent["validate", i] for i in range(4)] == BENCHMARK_VALIDATE_DOCS
        assert [sent["sweep-decay", i] for i in range(4)] == ratios


class TestValidate:
    def test_stock_build_passes(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("ok  ") == 5
        assert "FAIL" not in out

    def test_default_output_pinned(self, capsys):
        assert main(["validate"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "ok   transfer-norm: max ||alpha|^2 + |beta|^2 - 1| at kappa = 0: 4.441e-16; "
            "with kappa > 0, max excess over 1: 0.000e+00, max rise in t: 0.000e+00\n"
            "ok   povm-completeness: pattern weights in [0, 1]: True; max |sum over patterns - 1| = 1.221e-15\n"
            "ok   network-reference-state: max per-term amplitude deviation = 2.776e-17\n"
            "ok   decay-probability-identity: max relative difference = 2.867e-15\n"
            "ok   params-invariants: no params supplied; defaults valid by construction\n"
        )

    def test_corrupted_layout_fails_named_check(self, tmp_path, capsys, put_routing):
        # A "layout" key is no setting of validate: like any key, it goes to
        # the params document, which has no such field.
        cfg = write_json(tmp_path, "cfg.json", {"layout": ALIGNED_ROUTES})
        assert main(["validate", "--config", cfg]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "FAIL params-invariants: unknown params field(s): ['layout']" in captured.out
        assert "ok   network-reference-state" in captured.out
        # A corrupted network put in place of the paper's fails its check.
        put_routing(CORRUPTED_LAYOUT)
        assert main(["validate"]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "FAIL network-reference-state" in captured.out
        assert "first failing check: network-reference-state" in captured.err

    def test_invalid_params_fail_named_check(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "cfg.json", {"eta_d": 1.5})
        assert main(["validate", "--config", cfg]) == EXIT_VALIDATION
        assert "FAIL params-invariants" in capsys.readouterr().out

    def test_malformed_config_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2")
        assert main(["validate", "--config", str(path)]) == EXIT_CONFIG


class TestChecksApi:
    def test_all_checks_pass_by_default(self):
        results = run_all_checks()
        assert all(r.passed for r in results)
        assert [r.name for r in results] == [
            "transfer-norm",
            "povm-completeness",
            "network-reference-state",
            "decay-probability-identity",
            "params-invariants",
        ]

    def test_injected_corruption_detected(self, put_routing):
        put_routing(CORRUPTED_LAYOUT)
        result = check_network_reference_state()
        assert not result.passed
        assert result.name == "network-reference-state"

    def test_photon_normalization_fault_detected(self, monkeypatch):
        # Occupations normalized by n! instead of sqrt(n!) in the compiled
        # route alone: every entry of an occupation with a doubly occupied
        # slot gains a factor sqrt2.  The analytic reference, expanded by
        # checks' own code, sees it term by term, and the map is then no
        # isometry.
        compile_map = photonics.network_map

        def by_factorial():
            network = compile_map()
            scale = [math.prod(math.sqrt(math.factorial(n)) for n in counts) for counts in network.counts]
            return photonics.NetworkMap(network.matrix * np.array(scale)[:, None], network.counts)

        monkeypatch.setattr(protocol, "network_map", by_factorial)
        monkeypatch.setattr(checks, "network_map", by_factorial)
        deviation, result = checks.network_reference_deviation(), check_network_reference_state()
        assert deviation >= 1e-12
        assert not result.passed
        assert result.detail == f"max per-term amplitude deviation = {deviation:.3e}; max |M^H M - I| = 1.000e+00"

    @pytest.mark.parametrize("fault", ["n-factorial", "v-sign"])
    def test_reference_expansion_fault_detected(self, monkeypatch, fault):
        # A fault in checks' own expansion of the analytic rows alone, which
        # the route does not run: occupations normalized by n! instead of
        # sqrt(n!), or every V weight flipped.  The term-by-term comparison
        # sees it, while the route stays an isometry.
        expand = checks._expand_photons

        def faulty(photons):
            if fault == "v-sign":
                return expand([(mode, -sign) for mode, sign in photons])
            return {counts: amp * math.prod(math.sqrt(math.factorial(n)) for n in counts)
                    for counts, amp in expand(photons).items()}

        monkeypatch.setattr(checks, "_expand_photons", faulty)
        config, counts, amps = checks._reference_terms()
        for name, value in (("CONFIG", config), ("COUNTS", counts), ("AMPS", amps),
                            ("ANCHOR", int(np.argmax(np.abs(amps))))):
            monkeypatch.setattr(checks, f"_REFERENCE_{name}", value)
        deviation, result = checks.network_reference_deviation(), check_network_reference_state()
        assert deviation >= 1e-12
        assert not result.passed
        head, isometry = result.detail.split("; max |M^H M - I| = ")
        assert head == f"max per-term amplitude deviation = {deviation:.3e}"
        assert float(isometry) < 1e-12

    @pytest.mark.parametrize("layout", all_layouts(), ids=lambda layout: "".join(str(m) for _, m in layout))
    def test_network_check_matches_staged_pipeline(self, put_routing, layout):
        # The array comparison against the term-by-term one on the
        # element-by-element pipeline, each routing put in place of the
        # paper's network: the same deviation to the last bit.
        put_routing(layout)
        pulsed = apply_hadamard_pulses(prepare_w_state())
        joint = staged_cavity_interaction(pulsed, reference_coefficients(checks.DEFAULT_CHECK_PARAMS))
        expected = max_amplitude_deviation(staged_network(joint, layout), reference_output_state())
        assert checks.network_reference_deviation() == expected
        assert check_network_reference_state().passed == (layout == DEFAULT_LAYOUT)

    @pytest.mark.parametrize("corruption", ["beta-scaled", "decay-reversed"])
    def test_corrupted_transfer_norm_detected(self, monkeypatch, corruption):
        # beta scaled by 1.001 breaks the lossless norm; the decaying norm
        # read backwards in time grows, while staying at most 1.
        coefficients = checks.decay_coefficients

        def corrupted(params, t):
            if corruption == "beta-scaled":
                c = coefficients(params, t)
                return EvolutionCoefficients(c.alpha, 1.001 * c.beta)
            return coefficients(params, t[::-1] if params.kappa > 0 else t)

        monkeypatch.setattr(checks, "decay_coefficients", corrupted)
        result = check_transfer_norm()
        assert not result.passed
        assert result.name == "transfer-norm"


class TestConfigKeys:
    """Each command accepts exactly the config keys it reads."""

    @pytest.mark.parametrize("argv, doc", [
        (["sweep-decay"], {"delta": 5, "t": 3}),
        (["sweep-decay"], {"eta_d": 0.3}),
        (["sweep-decay"], {"kappa": 1}),
        (["sweep-decay"], {"dt": 0.5, "layout": ALIGNED_ROUTES}),
        (["ideal-run"], {"out": "report.json"}),
        (["sweep-decay"], {"out": "curve.csv"}),
        (["ideal-run"], {"dt": 0.5}),
        (["ideal-run"], {"sweep": {}}),
        (["ideal-run"], {"n_max": 1, "out": "report.json"}),
    ])
    def test_unread_key_is_config_error(self, tmp_path, capsys, monkeypatch, argv, doc):
        monkeypatch.chdir(tmp_path)
        cfg = write_json(tmp_path, "cfg.json", doc)
        assert main([*argv, "--config", cfg]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and str(sorted(doc)) in captured.err
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_documented_keys_are_the_read_keys(self):
        # The module docstring and README's config table list, per command,
        # the keys before any ';', asides in parentheses left out; both
        # must name exactly the commands that take a config and their keys.
        def keys(text, quote):
            text = text.split(";")[0]
            while re.search(r"\([^()]*\)", text):
                text = re.sub(r"\([^()]*\)", "", text)
            return set(re.findall(f"{quote}(\\w+){quote}", text))

        docstring = cli.__doc__[cli.__doc__.index("Configs"):cli.__doc__.index("Exit codes")]
        rows = re.findall(r"^    (\S+) +(.*(?:\n {5,}.*)*)", docstring, flags=re.MULTILINE)
        documented = {command: keys(text, '"') for command, text in rows}
        assert documented == {command: set(read) for command, read in cli._COMMAND_KEYS.items()}

        readme = README.read_text()
        table = readme[readme.index("| command | keys |"):readme.index("Any other key")]
        rows = [line.strip("|").split("|") for line in table.splitlines() if line.startswith("| `")]
        documented = {command.strip(" `"): keys(text, "`") for command, text in rows}
        assert documented == {command: set(read) for command, read in cli._COMMAND_KEYS.items()}

    @pytest.mark.parametrize("doc", [{"t": 3}, {"dt": 0.5}, {"sweep": {}}, {"out": 5}, {"n_max": 1}])
    def test_unread_key_fails_validate_params_check(self, tmp_path, capsys, doc):
        cfg = write_json(tmp_path, "cfg.json", doc)
        assert main(["validate", "--config", cfg]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert f"FAIL params-invariants: unknown params field(s): {sorted(doc)}" in out

    @pytest.mark.parametrize("argv, doc, code, message", [
        (["ideal-run"], {"delta": 10**400}, EXIT_CONFIG, "field 'delta'"),
        (["ideal-run"], {"t": 10**400}, EXIT_CONFIG, "field 't'"),
        (["sweep-decay"], {"sweep": {"max": 10**400}}, EXIT_CONFIG, "field 'sweep'"),
        (["ideal-run"], {"kappa": 10**400}, EXIT_CONFIG, "field 'kappa'"),
        (["validate"], {"delta": 10**400}, EXIT_VALIDATION, "FAIL params-invariants: field 'delta'"),
    ])
    def test_integer_beyond_float_range(self, tmp_path, capsys, argv, doc, code, message):
        cfg = write_json(tmp_path, "cfg.json", doc)
        assert main([*argv, "--config", cfg]) == code
        captured = capsys.readouterr()
        assert message in (captured.out if code == EXIT_VALIDATION else captured.err)

    def test_benchmark_configs_accepted(self, tmp_path, capsys):
        # Every config shape the cli_batch benchmark workload sends.
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        commands = {(cmd["command"], cmd["config_index"]): cmd
                    for block in workloads.generate("cli_batch", 0) for cmd in block["commands"]}
        assert {command for command, _ in commands} == {"ideal-run", "sweep-decay", "validate"}
        for cmd in commands.values():
            if cmd["command"] == "sweep-decay":
                argv = ["sweep-decay", "--eta-over-kappa", cmd["eta_over_kappa"],
                        "--grid-steps", str(cmd["grid_steps"])]
            else:
                argv = [cmd["command"], "--config", write_json(tmp_path, "cfg.json", cmd["config"])]
            assert main(argv) == EXIT_OK, argv
            assert capsys.readouterr().err == ""


class TestArgumentErrors:
    """An argument the parser refuses is a config error that ``main``
    returns, as a bad config is, rather than an exception it raises."""

    @pytest.mark.parametrize("argv, message", [
        (["sweep-decay", "--grid-steps", "x"], "invalid int value: 'x'"),
        (["fidelity-surface", "--grid-steps", "2.5"], "invalid int value: '2.5'"),
        (["bogus"], "invalid choice: 'bogus'"),
    ], ids=["sweep-grid-steps", "surface-grid-steps", "unknown-command"])
    def test_refused_argument_is_config_error(self, capsys, argv, message):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_help_returns_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: w2ghz")


class TestEntryPoint:
    """``python -m w2ghz`` runs ``main`` and exits with its code."""

    def run_module(self, *argv):
        return subprocess.run([sys.executable, "-m", "w2ghz", *argv], capture_output=True, text=True,
                              env={"PYTHONPATH": str(Path(w2ghz.__file__).parents[1])})

    def test_validate(self):
        digest = next(param.values[4] for param in GOLDEN if param.id == "validate-default")
        done = self.run_module("validate")
        assert done.returncode == EXIT_OK
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest

    def test_unknown_subcommand(self):
        done = self.run_module("bogus")
        assert done.returncode == EXIT_CONFIG
        assert done.stdout == "" and "invalid choice: 'bogus'" in done.stderr
