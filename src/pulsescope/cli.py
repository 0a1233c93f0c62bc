"""Command-line front end: parses arguments, loads the config, prints
what `pulsescope.scenario` returns and maps errors to exit codes.
`scenario` does the work of every subcommand and writes every file.

Subcommands: spectrum, focus, resolve, excite, scenario, figure, scan,
oracle. Global flags: --config PATH (scenario file; omitted or empty file
means the built-in reference scenario), --out DIR (output directory,
overriding the config and the PULSESCOPE_OUT environment variable), and
--grid-scale X (multiplies every default grid density).

Config dialect: one `key = value` per line, `#` comments, SI unit suffixes
on numeric keys (`pulsescope --help-config` lists all keys and defaults).
Config values, --grid-scale, scan values and oracle targets obey one rule,
`config.checked_number`. Exit codes: 0 success, 2 configuration error or
any other invalid input or state, 3 numerical-convergence error or a
curve that does not reach the requested feature, 4 regime violation.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import replace

from .config import ScenarioConfig, load_config
from .errors import (
    ConfigError,
    GridRangeError,
    NumericalConvergenceError,
    PulsescopeError,
    RegimeViolationError,
)
from .scenario import (
    FIGURES,
    SCAN_PARAMETERS,
    emit_figure_data,
    emit_spectrum,
    excite,
    focus,
    oracle_compare,
    resolve,
    run_scenario,
    scan,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REGIME = 4


def _config_help() -> str:
    # the defaults as a config file writes them, minus its header line
    keys = ScenarioConfig().serialize().splitlines()[1:]
    lines = ["Scenario config keys (flat `key = value`, '#' comments):", ""]
    lines += ["  " + key for key in keys]
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

    command("spectrum", lambda cfg, args: emit_spectrum(cfg),
            "spectral density curve and statistics")
    command("focus", lambda cfg, args: focus(cfg),
            "rephased focal intensity radial curve")
    command("resolve", lambda cfg, args: resolve(cfg),
            "intensity resolution curve and spot size")
    command("excite", lambda cfg, args: excite(cfg),
            "focal excitation probability record")
    command("scenario", _cmd_scenario, "full report: eta, p_e, R, spot sizes")

    p_fig = command("figure",
                    lambda cfg, args: f"wrote {emit_figure_data(cfg, args.id)}",
                    "emit figure data as CSV")
    p_fig.add_argument("id", choices=FIGURES)

    p_scan = command(
        "scan", lambda cfg, args: f"wrote {scan(cfg, args.parameter, args.values)}",
        "parameter scan table")
    p_scan.add_argument("parameter", choices=SCAN_PARAMETERS)
    p_scan.add_argument("values", nargs="+", type=float)

    p_or = command("oracle", _cmd_oracle, "oracle-vs-analytic comparison table")
    p_or.add_argument("pairs", nargs="*", type=float,
                      help="flat list: ratio1 eta1 ratio2 eta2 ...")
    return parser


def _load(args) -> ScenarioConfig:
    cfg = ScenarioConfig() if args.config is None else load_config(args.config)
    out = args.out or os.environ.get("PULSESCOPE_OUT") or cfg.output_dir
    scale = cfg.grid_scale if args.grid_scale is None else args.grid_scale
    return replace(cfg, output_dir=str(out), grid_scale=scale)


def _cmd_scenario(cfg: ScenarioConfig, args) -> str:
    report = run_scenario(cfg)
    return "\n".join([
        f"eta = {report.eta!r}",
        f"p_e(0) = {report.p_e_focal!r}",
        f"imaging rate = {report.imaging_rate_hz!r} Hz",
        f"intensity spot = {report.spot_intensity_m!r} m",
        f"excitation spot = {report.spot_excitation_m!r} m",
    ])


def _cmd_oracle(cfg: ScenarioConfig, args) -> str:
    if len(args.pairs) % 2:
        raise ConfigError("oracle expects an even list: ratio eta ...")
    pairs = list(zip(args.pairs[0::2], args.pairs[1::2]))
    return f"wrote {oracle_compare(cfg, pairs)}"


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.help_config:
        print(_config_help())
        return 0
    if args.command is None:
        parser.print_help()
        return 0
    # a warning prints as one line, not as the package's source line; only
    # its display changes, so the filters and a caller's recorder still act
    standard_format = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        print(args.handler(_load(args), args))
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
    finally:
        warnings.formatwarning = standard_format
    return 0


if __name__ == "__main__":
    sys.exit(main())
