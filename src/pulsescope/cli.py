"""Command-line front end.

Subcommands: spectrum, focus, resolve, excite, scenario, figure, scan,
oracle. Global flags: --config PATH (scenario file; omitted or empty file
means the built-in reference scenario), --out DIR (output directory,
overriding the config and the PULSESCOPE_OUT environment variable), and
--grid-scale X (multiplies every default grid density).

Config dialect: one `key = value` per line, `#` comments. Numeric keys
carry their SI unit as a suffix; run `pulsescope --help-config` to list
all keys with defaults. Exit codes: 0 success, 2 configuration error or
any other invalid input or state, 3 numerical-convergence error or a
curve that does not reach the requested feature, 4 regime violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, load_config
from .errors import (
    ConfigError,
    GridRangeError,
    NumericalConvergenceError,
    PulsescopeError,
    RegimeViolationError,
)
from .excitation import excitation_probability, imaging_rate
from .focal import (
    RadialCurve,
    focal_intensity_rephased,
    intensity_resolution_curve,
    spot_size,
)
from .scenario import (
    FIGURES,
    SCAN_PARAMETERS,
    _write,
    emit_figure_data,
    oracle_compare,
    run_scenario,
    scan,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REGIME = 4


def _config_help() -> str:
    lines = ["Scenario config keys (flat `key = value`, '#' comments):", ""]
    for f in fields(ScenarioConfig):
        default = getattr(ScenarioConfig(), f.name)
        lines.append(f"  {f.name} = {default!r}")
    lines += ["", "Unit suffixes (_m, _s, _J, _rad_per_s) are part of the key;",
              "unknown keys are rejected. An empty file selects the defaults."]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsescope",
        description="Focused ultrashort pulses and two-level excitation "
                    "for far-field nanoscopy.",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="scenario config file (flat key = value text)")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (overrides config and "
                             "PULSESCOPE_OUT)")
    parser.add_argument("--grid-scale", type=float, default=None,
                        help="multiply all default grid densities")
    parser.add_argument("--help-config", action="store_true",
                        help="describe the config dialect and exit")
    sub = parser.add_subparsers(dest="command")

    def command(name, handler, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    command("spectrum", _cmd_spectrum, "spectral density curve and statistics")
    command("focus", _cmd_focus, "rephased focal intensity radial curve")
    command("resolve", _cmd_resolve, "intensity resolution curve and spot size")
    command("excite", _cmd_excite, "focal excitation probability record")
    command("scenario", _cmd_scenario, "full report: eta, p_e, R, spot sizes")

    p_fig = command("figure", _cmd_figure, "emit figure data as CSV")
    p_fig.add_argument("id", choices=FIGURES)

    p_scan = command("scan", _cmd_scan, "parameter scan table")
    p_scan.add_argument("parameter", choices=SCAN_PARAMETERS)
    p_scan.add_argument("values", nargs="+", type=float)

    p_or = command("oracle", _cmd_oracle, "oracle-vs-analytic comparison table")
    p_or.add_argument("pairs", nargs="*", type=float,
                      help="flat list: ratio1 eta1 ratio2 eta2 ...")
    return parser


def _load(args) -> ScenarioConfig:
    if args.config is None:
        cfg = ScenarioConfig()
        cfg.build()
    else:
        cfg = load_config(args.config)
    out = args.out or os.environ.get("PULSESCOPE_OUT")
    if out:
        cfg = replace(cfg, output_dir=str(out))
    if args.grid_scale is not None:
        if args.grid_scale <= 0:
            raise ConfigError("--grid-scale must be positive")
        cfg = replace(cfg, grid_scale=args.grid_scale)
    return cfg


def _cmd_spectrum(cfg: ScenarioConfig, args) -> None:
    spectrum = cfg.build()[0]
    outdir = Path(cfg.output_dir)
    w = spectrum.frequency_grid(2001)
    dens = np.abs(spectrum.value(w)) ** 2
    rows = "".join(f"{float(wi)!r},{float(di)!r}\n" for wi, di in zip(w, dens))
    _write(outdir, "spectrum.csv", "omega_rad_per_s,density_s\n" + rows)
    _write(outdir, "spectrum.json",
           json.dumps(spectrum.serializable(), indent=2, sort_keys=True) + "\n")
    print(f"mean frequency {spectrum.mean_frequency!r} rad/s, "
          f"mean wavelength {spectrum.mean_wavelength!r} m")


def _cmd_focus(cfg: ScenarioConfig, args) -> None:
    spectrum, geometry, _, _ = cfg.build()
    rho_max = spectrum.mean_wavelength / geometry.numerical_aperture
    radii = np.linspace(0.0, rho_max, 81)
    vals = focal_intensity_rephased(geometry, spectrum, radii, cfg.grid_scale)
    curve = RadialCurve(radii, vals, "intensity")
    _write(Path(cfg.output_dir), "focal_intensity.csv", curve.to_csv())
    print(f"wrote focal_intensity.csv ({len(radii)} radii)")


def _cmd_resolve(cfg: ScenarioConfig, args) -> None:
    spectrum, geometry, _, _ = cfg.build()
    curve = intensity_resolution_curve(geometry, spectrum,
                                       grid_scale=cfg.grid_scale)
    spot = spot_size(curve)
    _write(Path(cfg.output_dir), "intensity_resolution.csv", curve.to_csv())
    print(f"intensity spot size {spot!r} m")


def _cmd_excite(cfg: ScenarioConfig, args) -> None:
    spectrum, geometry, tls, train = cfg.build()
    result = excitation_probability(train, tls, geometry, spectrum, 0.0,
                                    cfg.grid_scale)
    rate = imaging_rate(train, tls, result.p_e)
    _write(Path(cfg.output_dir), "excitation.json", result.to_json())
    print(f"p_e(0) = {result.p_e!r}, eta = {result.eta!r}, R = {rate!r} Hz")


def _cmd_scenario(cfg: ScenarioConfig, args) -> None:
    report = run_scenario(cfg)
    print(f"eta = {report.eta!r}")
    print(f"p_e(0) = {report.p_e_focal!r}")
    print(f"imaging rate = {report.imaging_rate_hz!r} Hz")
    print(f"intensity spot = {report.spot_intensity_m!r} m")
    print(f"excitation spot = {report.spot_excitation_m!r} m")


def _cmd_figure(cfg: ScenarioConfig, args) -> None:
    print(f"wrote {emit_figure_data(cfg, args.id)}")


def _cmd_scan(cfg: ScenarioConfig, args) -> None:
    print(f"wrote {scan(cfg, args.parameter, args.values)}")


def _cmd_oracle(cfg: ScenarioConfig, args) -> None:
    if len(args.pairs) % 2:
        raise ConfigError("oracle expects an even list: ratio eta ...")
    pairs = list(zip(args.pairs[0::2], args.pairs[1::2]))
    print(f"wrote {oracle_compare(cfg, pairs)}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.help_config:
        print(_config_help())
        return 0
    if args.command is None:
        parser.print_help()
        return 0
    try:
        args.handler(_load(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalConvergenceError, GridRangeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RegimeViolationError as exc:
        print(f"regime violation: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except PulsescopeError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


if __name__ == "__main__":
    sys.exit(main())
