"""Config dialect, scenario plumbing, CLI subcommands and exit codes."""

import csv
import json
import os
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import pulsescope as ps
from pulsescope import excitation, focal, quadrature, scenario
from pulsescope.cli import main
from pulsescope.config import load_config, loads_config
from pulsescope.errors import (
    ConfigError,
    GridRangeError,
    InvalidParameterError,
    InvalidStateError,
    NumericalConvergenceError,
    RegimeViolationError,
)
from pulsescope.scenario import emit_figure_data, oracle_compare, run_scenario, scan
from spot_reference import counted, plain_bisection


def read_curve(path):
    """(radii, values) of a radial-curve CSV (rho_m,value,kind)."""
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert header == ["rho_m", "value", "kind"]
    return (np.array([float(r) for r, _, _ in rows]),
            np.array([float(v) for _, v, _ in rows]))


def test_empty_file_gives_reference_scenario(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("")
    cfg = load_config(p)
    assert cfg == ps.ScenarioConfig()
    # the reference scenario is the worked example
    assert cfg.pulse_count == 453
    np.testing.assert_allclose(cfg.pulse_energy_J, 0.7e-9)
    np.testing.assert_allclose(cfg.pulse_period_s, 33.6e-15)
    np.testing.assert_allclose(
        cfg.carrier_frequency_rad_per_s,
        2 * np.pi * 2.99792458e8 / 719e-9, rtol=1e-9)
    np.testing.assert_allclose(
        cfg.spectral_width_rad_per_s / cfg.carrier_frequency_rad_per_s, 10.0)
    np.testing.assert_allclose(cfg.waist_m / cfg.focal_radius_m, 0.1)
    np.testing.assert_allclose(
        cfg.inhomogeneous_broadening_rad_per_s
        / cfg.spontaneous_rate_rad_per_s, 10.0)


def test_negative_rate_names_the_field():
    with pytest.raises(ConfigError, match="spontaneous_rate_rad_per_s"):
        loads_config("spontaneous_rate_rad_per_s = -1.0\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        loads_config("pulse_period_fs = 33.6\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        loads_config("pulse_count = 1\npulse_count = 2\n")


def test_round_trip_identity(tmp_path):
    cfg = loads_config("pulse_count = 7\npulse_energy_J = 1e-12\n"
                       "grid_scale = 0.5\n# comment\n")
    text = cfg.serialize()
    again = loads_config(text)
    assert again == cfg
    assert loads_config(again.serialize()) == again


def test_comments_and_blank_lines():
    cfg = loads_config("\n# a comment\npulse_count = 3  # trailing\n\n")
    assert cfg.pulse_count == 3


def test_zero_inhomogeneous_broadening_accepted():
    # a purely radiatively broadened emitter
    cfg = loads_config("inhomogeneous_broadening_rad_per_s = 0\n")
    assert cfg.build()[2].inhomogeneous_broadening == 0.0
    with pytest.raises(ConfigError, match="inhomogeneous_broadening_rad_per_s"):
        loads_config("inhomogeneous_broadening_rad_per_s = -1\n")


def test_parse_errors():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        loads_config("pulse_count 3\n")
    with pytest.raises(ConfigError, match="expected an integer"):
        loads_config("pulse_count = 3.5\n")
    with pytest.raises(ConfigError, match="must be finite"):
        loads_config("pulse_energy_J = inf\n")


@pytest.fixture(scope="module")
def fast_cfg_text():
    # light grids: fine for plumbing tests
    return "grid_scale = 0.4\npulse_count = 5\n"


def test_cli_help_config(capsys):
    assert main(["--help-config"]) == 0
    out = capsys.readouterr().out
    assert "pulse_energy_J" in out and "unknown keys are rejected" in out.lower()


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("pulse_count = -2\n")
    assert main(["--config", str(bad), "spectrum"]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg"), "spectrum"]) == 2
    ok = tmp_path / "ok.cfg"
    ok.write_text("")
    assert main(["--config", str(ok), "oracle", "10.0"]) == 2  # odd pair list
    # a pulse of no energy drives nothing
    dark = tmp_path / "dark.cfg"
    dark.write_text("pulse_energy_J = 0\n")
    assert main(["--config", str(dark), "--out", str(tmp_path / "o"), "excite"]) == 2
    assert "pulse_energy_J" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_spectrum_and_resolve(tmp_path, capsys, fast_cfg_text):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(fast_cfg_text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
    assert (out / "spectrum.csv").exists()
    data = json.loads((out / "spectrum.json").read_text())
    assert "mean_frequency_rad_per_s" in data
    assert main(["--config", str(cfg), "--out", str(out), "resolve"]) == 0
    text = (out / "intensity_resolution.csv").read_text()
    assert text.splitlines()[0] == "rho_m,value,kind"
    first = text.splitlines()[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0


def test_cli_excite_writes_record(tmp_path, fast_cfg_text):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(fast_cfg_text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "excite"]) == 0
    rec = json.loads((out / "excitation.json").read_text())
    assert set(rec) == {"p_e", "eta", "f_value", "flags"}
    assert 0.0 <= rec["p_e"] <= 1.0


def test_cli_env_var_output_dir(tmp_path, fast_cfg_text, monkeypatch):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(fast_cfg_text)
    envdir = tmp_path / "from_env"
    monkeypatch.setenv("PULSESCOPE_OUT", str(envdir))
    assert main(["--config", str(cfg), "spectrum"]) == 0
    assert (envdir / "spectrum.csv").exists()


def test_figure_1d_starts_at_one(tmp_path, fast_cfg_text):
    cfg = loads_config(fast_cfg_text + "output_dir = " + str(tmp_path) + "\n")
    name = emit_figure_data(cfg, "1d")
    lines = (tmp_path / name).read_text().splitlines()
    assert lines[0] == "a_rho_over_lambda,intensity_resolution,excitation_resolution"
    x0, i0, e0 = (float(v) for v in lines[1].split(","))
    assert x0 == 0.0 and i0 == 1.0 and e0 == 1.0


def test_figure_1c_inset_endpoint(tmp_path):
    cfg = loads_config("output_dir = " + str(tmp_path) + "\n")
    name = emit_figure_data(cfg, "1c-inset")
    lines = (tmp_path / name).read_text().splitlines()[1:]
    ratios = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    # non-decreasing mean frequency (flat at machine precision for tiny widths)
    assert np.all(np.diff(ratios[:, 1]) > -1e-12)
    last_width, last_mean = ratios[-1]
    np.testing.assert_allclose(last_mean, last_width * np.sqrt(8 / np.pi),
                               rtol=1e-2)


def test_figure_1b_peak_at_rephasing(tmp_path, fast_cfg_text):
    cfg = loads_config(fast_cfg_text + "output_dir = " + str(tmp_path) + "\n")
    name = emit_figure_data(cfg, "1b")
    lines = (tmp_path / name).read_text().splitlines()[1:]
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines])
    spectrum, geometry, _, _ = cfg.build()
    from scipy.constants import c
    expected = spectrum.mean_frequency * geometry.reference_sphere_radius / c
    peak = data[np.argmax(np.abs(data[:, 1])), 0]
    assert abs(peak - expected) <= (data[1, 0] - data[0, 0])
    assert np.max(np.abs(data[:, 1])) == 1.0  # arbitrary units, normalized


def test_figure_unknown_id(tmp_path):
    cfg = loads_config("output_dir = " + str(tmp_path) + "\n")
    with pytest.raises(ConfigError, match="unknown figure id"):
        emit_figure_data(cfg, "2a")


def test_scan_row_count_and_slope(tmp_path, fast_cfg_text):
    cfg = loads_config(fast_cfg_text + "output_dir = " + str(tmp_path) + "\n")
    u0 = cfg.pulse_energy_J
    values = [u0 * s for s in (0.1, 0.2, 0.4, 0.7, 1.0)]
    name = scan(cfg, "U", values)
    lines = (tmp_path / name).read_text().splitlines()
    assert lines[0].startswith("parameter,value,eta,p_e_focal")
    assert len(lines) == 6
    table = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
    slope = np.polyfit(np.log(table[:, 0]), np.log(table[:, 2]), 1)[0]
    assert abs(slope - 2.0) < 0.02


def test_scan_unknown_parameter(tmp_path):
    cfg = loads_config("output_dir = " + str(tmp_path) + "\n")
    with pytest.raises(ConfigError, match="unknown scan parameter"):
        scan(cfg, "Q", [1.0])


@pytest.mark.parametrize("line", ["spectral_width_rad_per_s = 1e160",
                                  "carrier_frequency_rad_per_s = 1e-300"])
def test_oracle_on_an_unbuildable_config_exits_2_before_any_row(tmp_path, capsys,
                                                                line):
    # the config's spectrum cannot be built; every row used to build it
    # anew and write the ConfigError into the row, exiting 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "oracle", "10", "0.05"]) == 2
    assert "invalid scenario" in capsys.readouterr().err
    assert not (tmp_path / "o" / "oracle_compare.csv").exists()


def test_oracle_compare_empty_grid(tmp_path):
    cfg = loads_config("output_dir = " + str(tmp_path) + "\n")
    name = oracle_compare(cfg, [])
    text = (tmp_path / name).read_text()
    assert text == ("width_over_transition,eta,p_e_analytic,p_e_oracle,"
                    "relative_deviation,error\n")


def test_oracle_target_past_float_range_is_a_typed_row_error(tmp_path):
    # eta 1e300 needs a pulse energy (eta/eta_ref)^2 past the float range;
    # at eta 1e100 the energy is finite but p_e ~ eta^4 overflows
    cfg = loads_config("grid_scale = 0.3\noutput_dir = " + str(tmp_path) + "\n")
    oracle_compare(cfg, [(10.0, 1e100), (10.0, 1e300)])
    rows = (tmp_path / "oracle_compare.csv").read_text().splitlines()[1:]
    assert rows == [
        "10.0,1e+100,,,,RegimeViolationError: p_e = inf > 1: inputs are "
        "outside perturbative validity",
        "10.0,1e+300,,,,InvalidParameterError: oracle eta target "
        "1e+300 needs a pulse energy out of floating-point range"]


def test_oracle_row_propagates_an_error_that_is_not_the_packages(tmp_path,
                                                                monkeypatch):
    # only a PulsescopeError is annotated in its row; a TypeError (a shape
    # or broadcast defect of the program) ends the command, writing no CSV
    def broken(drive, times, transition_frequency):
        raise TypeError("broken propagator")

    monkeypatch.setattr(scenario, "propagate_driven_tls", broken)
    cfg = loads_config("grid_scale = 0.3\noutput_dir = " + str(tmp_path) + "\n")
    with pytest.raises(TypeError, match="broken propagator"):
        oracle_compare(cfg, [(10.0, 0.05)])
    assert not (tmp_path / "oracle_compare.csv").exists()


def test_oracle_row_does_not_depend_on_the_config_pulse_energy(tmp_path):
    # the eta target fixes the row's energy; a config energy whose own
    # p_e would exceed 1 (1e-4 J), or whose f overflows (1e200 J), still
    # gives the row's analytic p_e
    rows = []
    for energy in ("7e-10", "1e-4", "1e200"):
        out = tmp_path / energy
        oracle_compare(loads_config(f"pulse_energy_J = {energy}\ngrid_scale = 0.3"
                                    f"\noutput_dir = {out}\n"), [(10.0, 0.05)])
        rows.append((out / "oracle_compare.csv").read_text().splitlines()[1])
    assert all(row.endswith(",") for row in rows)  # no error
    low, *high = (float(row.split(",")[2]) for row in rows)
    assert all(abs(p - low) <= 1e-14 * low for p in high)


def test_cli_focus_figure_scan_oracle(tmp_path, fast_cfg_text):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(fast_cfg_text)
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "focus"]) == 0
    assert (out / "focal_intensity.csv").exists()
    assert main(["--config", str(cfg), "--out", str(out), "figure", "1c"]) == 0
    assert (out / "figure_1c.csv").exists()
    assert main(["--config", str(cfg), "--out", str(out), "oracle"]) == 0
    header_only = (out / "oracle_compare.csv").read_text()
    assert header_only.count("\n") == 1
    assert main(["--config", str(cfg), "--out", str(out),
                 "scan", "N", "1", "2"]) == 0
    assert (out / "scan_N.csv").read_text().count("\n") == 3


ROUND_TRIP_COMMANDS = ("spectrum", "focus", "resolve", "excite", "scenario",
                       "figure 1b", "figure 1c", "figure 1c-inset", "figure 1d",
                       "scan A 0.05 0.1", "scan N 1 2", "oracle 10 0.05 30 0.05")
TEXT_COLUMNS = ("kind", "parameter", "error")


def test_every_output_file_reads_back(tmp_path, fast_cfg_text):
    # every CSV row has the header's fields and every number cell is the
    # repr of its float; every JSON file is indented with its keys sorted
    cfg = tmp_path / "s.cfg"
    cfg.write_text(fast_cfg_text)
    out = tmp_path / "out"
    for command in ROUND_TRIP_COMMANDS:
        assert main(["--config", str(cfg), "--out", str(out), *command.split()]) == 0
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as f:
            header, *rows = csv.reader(f)
        assert rows, path.name
        for row in rows:
            assert len(row) == len(header), (path.name, row)
            for name, cell in zip(header, row):
                if name not in TEXT_COLUMNS and cell != "":
                    assert repr(float(cell)) == cell, (path.name, name, cell)
    names = sorted(path.name for path in out.glob("*.json"))
    assert names == ["excitation.json", "oracle_report_0.json", "oracle_report_1.json",
                     "scenario_report.json", "spectrum.json"]
    for name in names:
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_oracle_error_cell_with_a_comma_reads_back_whole(tmp_path):
    # the row's GridRangeError message holds commas; unquoted, the row had
    # 8 fields under the 6-field header and the error column was cut short
    out = tmp_path / "out"
    assert main(["--grid-scale", "0.3", "--out", str(out),
                 "oracle", "0.0001", "0.05"]) == 0
    with open(out / "oracle_compare.csv", newline="") as f:
        reader = csv.DictReader(f)
        (row,) = list(reader)
    assert len(reader.fieldnames) == 6 and len(row) == 6 and None not in row
    assert row["error"].startswith("GridRangeError: emission tau grid needs ")
    assert row["error"].endswith(", above the limit of 1000000, at spectral width "
                                 "/ transition frequency = 0.0001")


def test_cli_focus_follows_grid_scale(tmp_path):
    # --grid-scale sets the density of the focus transform too
    curves = {}
    for gs in (0.5, 1.0):
        out = tmp_path / str(gs)
        assert main(["--out", str(out), "--grid-scale", str(gs), "focus"]) == 0
        curves[gs] = read_curve(out / "focal_intensity.csv")
    assert not np.array_equal(curves[0.5][1], curves[1.0][1])
    spectrum, geometry, _, _ = ps.ScenarioConfig().build()
    for gs, (radii, values) in curves.items():
        np.testing.assert_array_equal(values, ps.focal_intensity_rephased(
            geometry, spectrum, radii, gs))


@pytest.mark.parametrize("grid_scale", [0.5, 0.2, 0.05])
def test_cli_excite_below_the_tau_grids_floor(tmp_path, grid_scale):
    # the emission tau grid stops at grid scale 1, its alias-free step,
    # so a coarser scale runs and matches grid scale 1 (chi's frequency
    # grid still coarsens, to its own alias-free count)
    reports = {}
    for gs in (1.0, grid_scale):
        out = tmp_path / str(gs)
        assert main(["--out", str(out), "--grid-scale", str(gs), "excite"]) == 0
        reports[gs] = json.loads((out / "excitation.json").read_text())
    for key in ("p_e", "eta", "f_value"):
        fine = reports[1.0][key]
        assert abs(reports[grid_scale][key] - fine) <= 1e-12 * abs(fine)


@pytest.mark.parametrize("error, code", [
    (ConfigError, 2), (InvalidParameterError, 2), (InvalidStateError, 2),
    (GridRangeError, 3), (NumericalConvergenceError, 3),
    (RegimeViolationError, 4),
])
def test_cli_maps_every_package_error(tmp_path, monkeypatch, capsys, error, code):
    def fail(cfg):
        raise error("injected")

    monkeypatch.setattr("pulsescope.cli.run_scenario", fail)
    assert main(["--out", str(tmp_path), "scenario"]) == code
    assert "injected" in capsys.readouterr().err


def test_cli_prints_a_warning_as_one_line(tmp_path, capsys, monkeypatch):
    # pytest records warnings instead of showing them; show them as Python
    # does by default, through warnings.formatwarning to stderr
    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename,
                                                lineno, line))

    monkeypatch.setattr(warnings, "showwarning", show)
    standard_format = warnings.formatwarning
    assert main(["--out", str(tmp_path), "--grid-scale", "0.3",
                 "scan", "T", "1e-20"]) == 0
    err = capsys.readouterr().err
    # the period times the reference spectral width, to 3 figures: 0.000262
    figure = f"{1e-20 * ps.ScenarioConfig().spectral_width_rad_per_s:.3g}"
    assert figure == "0.000262"
    assert re.search(r"^warning: pulse period is not long against the pulse "
                     r"duration \(T\*Gamma = " + re.escape(figure) + r" < 10\)$",
                     err, re.M)
    assert ".py:" not in err
    # library callers keep the standard format
    assert warnings.formatwarning is standard_format


def test_cli_warning_display_leaves_the_filters(tmp_path, monkeypatch):
    # the suite's error::RuntimeWarning filter still raises under main
    def warn(cfg):
        warnings.warn("injected", RuntimeWarning)

    monkeypatch.setattr("pulsescope.cli.emit_spectrum", warn)
    standard_format = warnings.formatwarning
    with pytest.raises(RuntimeWarning, match="injected"):
        main(["--out", str(tmp_path), "spectrum"])
    assert warnings.formatwarning is standard_format


def test_cli_regime_violation_exit_code(tmp_path):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("pulse_energy_J = 4e-6\ngrid_scale = 0.4\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "excite"]) == 4


def test_scan_over_aperture_inverse_spot(tmp_path):
    cfg = loads_config("pulse_count = 1\noutput_dir = " + str(tmp_path) + "\n")
    name = scan(cfg, "A", [0.05, 0.1, 0.2])
    lines = (tmp_path / name).read_text().splitlines()[1:]
    table = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines])
    product = table[:, 0] * table[:, 4]  # A * spot size
    np.testing.assert_allclose(product, product[0], rtol=2e-2)


def test_report_traceability(tmp_path):
    # every reported number is recomputable from the module operations
    from pulsescope.scenario import run_scenario
    cfg = loads_config("grid_scale = 0.5\noutput_dir = " + str(tmp_path) + "\n")
    report = run_scenario(cfg)
    spectrum, geometry, tls, train = cfg.build()
    res = ps.excitation_probability(train, tls, geometry, spectrum, 0.0,
                                    cfg.grid_scale)
    assert report.eta == res.eta
    assert report.p_e_focal == res.p_e
    assert report.imaging_rate_hz == ps.imaging_rate(train, tls, res.p_e)
    curve = ps.intensity_resolution_curve(geometry, spectrum,
                                          grid_scale=cfg.grid_scale)
    assert report.spot_intensity_m == ps.spot_size(curve)
    data = json.loads((tmp_path / "scenario_report.json").read_text())
    assert data["eta"] == report.eta
    assert data["curve_files"]["intensity_resolution"] == "intensity_resolution.csv"


def test_zero_pulse_scenario_reports_the_same_flags(tmp_path):
    text = "grid_scale = 0.3\noutput_dir = " + str(tmp_path / "{}") + "\n"
    driven = run_scenario(loads_config(text.format("n5") + "pulse_count = 5\n"))
    idle = run_scenario(loads_config(text.format("n0") + "pulse_count = 0\n"))
    assert idle.flags == driven.flags
    assert idle.eta == driven.eta
    assert idle.p_e_focal == 0.0 and idle.spot_excitation_m is None


def test_run_scenario_warns_once(tmp_path):
    # gamma*N*T = 0.115 exceeds the unitarity budget
    cfg = loads_config("pulse_count = 520\ngrid_scale = 0.3\noutput_dir = "
                       + str(tmp_path) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_scenario(cfg)
    budget = [w for w in caught if "unitarity budget" in str(w.message)]
    assert len(budget) == 1


def test_run_scenario_computes_eta_once(tmp_path, monkeypatch):
    calls = []
    real_eta = excitation.eta

    def counted(*args, **kwargs):
        calls.append(args)
        return real_eta(*args, **kwargs)

    monkeypatch.setattr(excitation, "eta", counted)
    monkeypatch.setattr(scenario, "eta", counted)
    run_scenario(loads_config("grid_scale = 0.3\noutput_dir = "
                              + str(tmp_path) + "\n"))
    assert len(calls) == 1


def test_repeated_scenario_repeats_its_work(tmp_path, monkeypatch):
    # no sum outlives the run that computed it (only the few chirps of
    # quadrature._chirp are kept): every Fourier sum tries one chirp
    # z-transform, and the J1(x)/x blocks are built again too
    transforms = _watch_chirps(monkeypatch)
    built = _watch_blocks(monkeypatch)
    cfg = loads_config("grid_scale = 0.3\noutput_dir = " + str(tmp_path) + "\n")
    first = run_scenario(cfg)
    n_first = len(transforms) + len(built)
    second = run_scenario(cfg)
    assert transforms and built
    assert len(transforms) + len(built) == 2 * n_first
    assert first == second


@pytest.mark.parametrize("argv, named", [
    (["--grid-scale", "nan", "resolve"], "grid_scale"),
    (["--grid-scale", "inf", "resolve"], "grid_scale"),
    (["scan", "N", "2", "2.5"], "pulse_count"),
    (["scan", "T", "inf"], "pulse_period_s"),
    (["scan", "U", "nan"], "pulse_energy_J"),
    (["scan", "A", "inf"], "scan A"),
    (["oracle", "10", "-0.05"], "oracle eta target"),
    (["oracle", "nan", "0.05"], "oracle width ratio"),
    (["scan", "Gamma", "1e16", "1e300"], "spectral width"),
])
def test_invalid_value_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                               argv, named):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on an invalid value")

    for name in ("intensity_resolution_curve", "excitation_probability",
                 "_oracle_single"):
        monkeypatch.setattr(scenario, name, no_work)
    assert main(["--out", str(tmp_path)] + argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "oracle_compare.csv").exists()


def test_config_checks_its_values_however_it_is_made():
    cfg = ps.ScenarioConfig()
    with pytest.raises(ConfigError, match="grid_scale.*must be finite"):
        replace(cfg, grid_scale=float("nan"))
    with pytest.raises(ConfigError, match="pulse_count.*expected an integer"):
        replace(cfg, pulse_count=2.5)
    with pytest.raises(ConfigError, match="waist_m.*must be positive"):
        ps.ScenarioConfig(waist_m=0.0)
    # a whole number is a pulse count, from a caller or from a file
    assert type(replace(cfg, pulse_count=3.0).pulse_count) is int
    assert loads_config("pulse_count = 3.0\n") == replace(cfg, pulse_count=3)


def test_command_builds_the_physics_once(tmp_path):
    # A = 0.3 is beyond the paraxial limit; loading must not warn a second time
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("waist_m = 0.003\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--grid-scale", "0.3", "resolve"]) == 0
    assert sum("paraxial" in str(w.message) for w in caught) == 1


def test_huge_pulse_period_excites_without_traceback(tmp_path):
    # w0 T / (2 pi) overflows; no resonance can be certified
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("pulse_period_s = 1e300\ngrid_scale = 0.3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "excite"]) == 0
    rec = json.loads((tmp_path / "o" / "excitation.json").read_text())
    assert rec["flags"]["resonant_train"] is False


def _watch_blocks(monkeypatch):
    """Every block of a blocked product from now on: ("j1_over_x", shape,
    bytes) of each matrix of radii and frequencies that J1(x)/x is taken
    of (the focal intensity's radius blocks, chi's columns), and ("exp",
    x, rows per block) of each Fourier sum that falls back to blocks of
    complex exponentials."""
    built = []
    real_j1, real_chunk = focal.j1_over_x, quadrature._chunk

    def j1_block(x):
        if np.ndim(x) == 2:
            built.append(("j1_over_x", x.shape, x.tobytes()))
        return real_j1(x)

    def exp_blocks(x):
        rows = real_chunk(x)
        built.append(("exp", x.tobytes(), rows))
        return rows

    monkeypatch.setattr(focal, "j1_over_x", j1_block)
    monkeypatch.setattr(quadrature, "_chunk", exp_blocks)
    return built


def _watch_chirps(monkeypatch):
    """(x, y, whether it ran) of every chirp z-transform tried from now on;
    every Fourier sum tries one first."""
    transforms = []
    real_chirp = quadrature._chirp_z

    def counted(x, y, c):
        z = real_chirp(x, y, c)
        transforms.append((x, y, z is not None))
        return z

    monkeypatch.setattr(quadrature, "_chirp_z", counted)
    return transforms


def test_run_scenario_builds_each_block_once(tmp_path, monkeypatch):
    # every Fourier sum is a chirp z-transform, so the only blocks are the
    # J1(x)/x blocks of the focal intensity and of chi; none is built twice
    built = _watch_blocks(monkeypatch)
    run_scenario(loads_config("grid_scale = 0.3\noutput_dir = "
                              + str(tmp_path) + "\n"))
    assert built and len(set(built)) == len(built)
    assert {b[0] for b in built} == {"j1_over_x"}


def test_run_scenario_evaluates_few_bessel_points(tmp_path, monkeypatch):
    # the intensity and chi grids are sized from their integrands' band,
    # so a reference run takes J1(x)/x at under 100k points; fixed 6001-
    # and 4001-point grids took 660k
    points = []
    real_j1 = focal.j1_over_x

    def counted(x):
        points.append(np.size(x))
        return real_j1(x)

    monkeypatch.setattr(focal, "j1_over_x", counted)
    run_scenario(loads_config("output_dir = " + str(tmp_path) + "\n"))
    assert 0 < sum(points) < 100_000


def test_run_scenario_transforms_tau_grids_by_chirp_z(tmp_path, monkeypatch):
    # chi is evaluated at, and the emission kernel summed over, each tau
    # grid; all are chirp z-transforms, none a block
    grids = []
    real_grid = excitation._tau_grid

    def recorded(*args):
        taus = real_grid(*args)
        grids.append(taus)
        return taus

    monkeypatch.setattr(excitation, "_tau_grid", recorded)
    transforms = _watch_chirps(monkeypatch)
    built = _watch_blocks(monkeypatch)
    cfg = loads_config("grid_scale = 0.3\noutput_dir = " + str(tmp_path) + "\n")
    run_scenario(cfg)
    w0 = cfg.transition_frequency_rad_per_s
    on_grid = np.concatenate(grids + [g / w0 for g in grids])
    axes = []
    for x, y, chirped in transforms:
        for axis, values in (("x", x), ("y", y)):
            if values.size > 9 and np.isin(values, on_grid).all():
                axes.append(axis)
                assert chirped
    # the emission transform sums over tau, chi is evaluated at tau
    assert {"x", "y"} <= set(axes)
    assert not [b for b in built if b[0] == "exp"]


def test_tau_axes_lie_on_their_lines(tmp_path, monkeypatch):
    # figure 1b and the oracle's drive sample the field in tau, the time
    # from the rephasing instant, as chi and the emission transform do, so
    # every output grid of a Fourier sum lies on its line and is one chirp
    # z-transform
    transforms = _watch_chirps(monkeypatch)
    cfg = loads_config("grid_scale = 0.3\noutput_dir = " + str(tmp_path) + "\n")
    emit_figure_data(cfg, "1b")
    oracle_compare(cfg, [(10.0, 0.05)])
    run_scenario(cfg)
    assert transforms
    assert all(quadrature._line(y)[-1] and chirped for _, y, chirped in transforms)


def test_oracle_row_builds_no_exp_block(tmp_path, monkeypatch):
    # chi, the drive and Filon's rule of an oracle row are chirp
    # z-transforms: the row builds no block of complex exponentials
    cfg = loads_config("grid_scale = 0.3\noutput_dir = " + str(tmp_path) + "\n")
    built = _watch_blocks(monkeypatch)
    transforms = _watch_chirps(monkeypatch)
    oracle_compare(cfg, [(10.0, 0.05)])
    row = (tmp_path / "oracle_compare.csv").read_text().splitlines()[1]
    assert row.endswith(",")  # no error
    assert transforms and all(chirped or y.size < quadrature.MIN_CHIRP_POINTS
                              for _, y, chirped in transforms)
    # no exp block, and the one J1(x)/x matrix is chi's column at rho = 0
    # for p_e(0): the row takes no focal intensity
    assert [(kind, shape[1:]) for kind, shape, _ in built] == [("j1_over_x", (1,))]


def _f_calls(monkeypatch):
    """The radii of every f_integral call from now on, one list per call."""
    calls = []
    real_chi = excitation.PulseAreaSynthesis.chi
    real_f = excitation.f_integral

    def tagged(self, rho, *args, **kwargs):
        chi = real_chi(self, rho, *args, **kwargs)
        chi.rho = rho
        return chi

    def counted(tls, chi_fn, *args, **kwargs):
        # chi_fn.rho is one radius or a block of them
        calls.append(np.atleast_1d(chi_fn.rho).tolist())
        return real_f(tls, chi_fn, *args, **kwargs)

    monkeypatch.setattr(excitation.PulseAreaSynthesis, "chi", tagged)
    monkeypatch.setattr(excitation, "f_integral", counted)
    return calls


def test_run_scenario_computes_focal_f_once(tmp_path, monkeypatch):
    calls = _f_calls(monkeypatch)
    run_scenario(loads_config("grid_scale = 0.3\noutput_dir = "
                              + str(tmp_path) + "\n"))
    radii = [r for call in calls for r in call]
    assert radii.count(0.0) == 1 and len(radii) > 1


def test_curve_samples_share_few_f_calls(tmp_path, monkeypatch):
    # the 33 sample radii of the excitation curve, rho = 0 among them (p_e(0)
    # is a lookup), run as two column blocks; spot_size then evaluates at
    # most two calls of at most two radii each
    calls = _f_calls(monkeypatch)
    cfg = loads_config("grid_scale = 0.3\noutput_dir = " + str(tmp_path) + "\n")
    run_scenario(cfg)
    radii, _ = read_curve(tmp_path / "excitation_resolution.csv")
    samples = set(radii.tolist())
    sample_calls = [call for call in calls if samples & set(call)]
    assert len(samples) == 33 and 0.0 in samples and len(sample_calls) <= 2
    assert set().union(*sample_calls) == samples
    others = [call for call in calls if call not in sample_calls]
    assert len(others) <= 2 and all(len(call) <= 2 for call in others)
    assert len(calls) <= 4


def test_spot_sizes_match_the_plain_bisection(tmp_path, monkeypatch):
    # both spot sizes of a run lie within rtol * hi of the plain
    # bisection's, each found in at most two evaluator calls of its curve
    found = []
    real_spot_size = scenario.spot_size

    def recorded(curve):
        calls = counted(curve)
        found.append((curve, real_spot_size(curve), calls))
        return found[-1][1]

    monkeypatch.setattr(scenario, "spot_size", recorded)
    report = run_scenario(loads_config("grid_scale = 0.3\noutput_dir = "
                                       + str(tmp_path) + "\n"))
    assert [spot for _, spot, _ in found] == [report.spot_intensity_m,
                                               report.spot_excitation_m]
    for curve, spot, calls in found:
        made = sum(len(call) for call in calls)
        assert made <= 5 and len(calls) <= 2
        hi = curve.radii[np.nonzero(curve.values <= 0.5)[0][0]]
        assert abs(spot - plain_bisection(curve)[0]) <= 1e-6 * hi


def test_excitation_spot_is_independent_of_energy_and_pulse_count(tmp_path):
    # U and N scale p_e at every radius alike and cancel in its
    # resolution ratio, so the excitation spot moves only by rounding
    cfg = loads_config("grid_scale = 0.3\noutput_dir = " + str(tmp_path) + "\n")
    for parameter, values in (("U", [1e-9, 2e-9]), ("N", [1, 2])):
        lines = (tmp_path / scan(cfg, parameter, values)).read_text().splitlines()
        spots = [float(line.split(",")[-1]) for line in lines[1:]]
        np.testing.assert_allclose(spots[1], spots[0], rtol=1e-6)


def test_figure_1b_is_one_field_transform(tmp_path, monkeypatch):
    # the field over the whole window, sampled in tau, the time from the
    # rephasing instant, is one chirp z-transform and even in tau
    times = []
    real_field = scenario.focal_field_time

    def recorded(geometry, spectrum, pulse_energy, rho, t, *args, **kwargs):
        times.append(np.array(t))
        return real_field(geometry, spectrum, pulse_energy, rho, t, *args, **kwargs)

    monkeypatch.setattr(scenario, "focal_field_time", recorded)
    transforms = _watch_chirps(monkeypatch)
    built = _watch_blocks(monkeypatch)
    cfg = loads_config("output_dir = " + str(tmp_path) + "\n")
    name = emit_figure_data(cfg, "1b")
    assert len(times) == 1 and times[0].size == 2001
    assert [(y.size, chirped) for _, y, chirped in transforms] == [(2001, True)]
    assert not built
    field = np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)[:, 1]
    assert np.max(np.abs(field - field[::-1])) <= 1e-12 * np.max(np.abs(field))


def test_two_runs_write_identical_bytes(tmp_path):
    # nothing a run computes is kept for the next one
    text = "grid_scale = 0.3\noutput_dir = " + str(tmp_path / "{}") + "\n"
    first = run_scenario(loads_config(text.format("first")))
    second = run_scenario(loads_config(text.format("second")))
    assert first == second
    names = sorted(os.listdir(tmp_path / "first"))
    assert names == sorted(os.listdir(tmp_path / "second"))
    for name in names:
        assert ((tmp_path / "first" / name).read_bytes()
                == (tmp_path / "second" / name).read_bytes())


@pytest.mark.parametrize("width_ratio", [0.3, 10.0, 30.0])
def test_shared_grid_eta_matches_a_bounded_scalar_maximum(width_ratio):
    # the reference of test_excitation's bounded-scalar eta test, against
    # eta through a synthesis that p_e then reuses
    from scipy.optimize import minimize_scalar

    _, geometry, tls, train = ps.ScenarioConfig().build()
    w0 = tls.transition_frequency
    spectrum = ps.make_gaussian_spectrum(w0, width_ratio * w0)
    synthesis = excitation.PulseAreaSynthesis(geometry, spectrum,
                                              train.pulse_energy, tls, 0.3)
    chi = synthesis.chi(0.0)
    half = 8.0 / spectrum.spectral_width
    taus = np.linspace(-half, half, 4001)
    i = int(np.argmax(np.abs(chi(taus))))
    res = minimize_scalar(lambda s: -abs(chi(s)), bounds=(taus[i - 1], taus[i + 1]),
                          method="bounded", options={"xatol": 1e-9 * half})
    got = ps.eta(geometry, spectrum, train.pulse_energy, tls, 0.3, synthesis)
    np.testing.assert_allclose(got, -res.fun, rtol=1e-12)


@pytest.mark.parametrize("w0, code, message", [
    ("1e30", 3, "emission tau grid needs .* points"),
    ("1e100", 3, "emission tau grid needs .* points"),
    ("1e300", 2, "transition frequency 1e\\+300 rad/s is out of floating-point"),
])
def test_huge_transition_frequency_is_a_typed_error(tmp_path, capsys, w0, code,
                                                    message):
    cfg = tmp_path / "w0.cfg"
    cfg.write_text(f"transition_frequency_rad_per_s = {w0}\ngrid_scale = 0.3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "excite"]) == code
    err = capsys.readouterr().err
    assert re.search(message, err)
    if code == 3:
        assert "spectral width / transition frequency" in err


@pytest.mark.parametrize("width", ["1e-300", "1e150"])
def test_non_finite_spectrum_moment_stops_refinement(tmp_path, capsys,
                                                     monkeypatch, width):
    evaluated = []
    real_refine = quadrature.refine_until_converged

    def counted(evaluate, *args, **kwargs):
        def tally(n):
            evaluated.append(n)
            return evaluate(n)
        return real_refine(tally, *args, **kwargs)

    monkeypatch.setattr("pulsescope.spectra.refine_until_converged", counted)
    cfg = tmp_path / "w.cfg"
    cfg.write_text(f"spectral_width_rad_per_s = {width}\ngrid_scale = 0.3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "excite"]) == 2
    assert "is not finite" in capsys.readouterr().err
    # a converged normalization takes two grids, the moment stops at one
    assert 0 < len(evaluated) <= 3 and max(evaluated) <= 4001


@pytest.mark.parametrize("key, value, code, message", [
    ("transition_frequency_rad_per_s", "1e-30", 2,
     "transition frequency 1e-30 rad/s is out of floating-point range"),
    ("pulse_energy_J", "4e-6", 4, "regime violation: p_e = .* > 1"),
])
def test_non_finite_probability_is_a_range_error(tmp_path, capsys, key, value,
                                                 code, message):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(f"{key} = {value}\ngrid_scale = 0.3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "excite"]) == code
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("command", ["excite", "scenario"])
def test_overflowing_pulse_energy_is_a_regime_violation(tmp_path, capsys,
                                                        command):
    # p_e ~ U^2 overflows at 1e200 J, while f at unit prefactor stays
    # finite: the run exits 4, and numpy's overflow warning stays quiet
    cfg = tmp_path / "u.cfg"
    cfg.write_text("pulse_energy_J = 1e200\ngrid_scale = 0.3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     command]) == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert re.search("regime violation: p_e = inf > 1",
                     capsys.readouterr().err)


def test_overflowing_spectral_width_names_it(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("spectral_width_rad_per_s = 1e300\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                 "spectrum"]) == 2
    assert re.search("spectral width 1e\\+300 rad/s overflows",
                     capsys.readouterr().err)
