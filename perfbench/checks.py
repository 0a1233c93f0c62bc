"""Checks of one CLI command's outputs against the golden files.

The golden files in golden/<workload>/ were written at the seed commit
with the reference waist and pulse energy (A = U = 1) and oracle target
eta = 0.05. A seed draws other A, U and eta, which leave every grid and
work count unchanged, so its outputs follow from the golden ones by
exact scaling laws:

* scenario: eta ~ A sqrt(U); p_e_focal and imaging_rate_hz ~ A^4 U^2;
  both spot sizes and every radius ~ 1/A; resolution values and flags
  unchanged;
* oracle: eta ~ eta_target; p_e_analytic ~ eta^4; p_e_oracle ~ eta^4 only
  to first order (the propagator is exact), see ORACLE_RTOL;
* focal: focal intensity ~ A^2 at radii ~ 1/A; the normalised field of
  figure 1b unchanged; figure_1c_inset.csv byte-identical.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

# report values may move by rounding only (the roadmap's 1e-9 promise)
RTOL = 1e-9
# spot_size bisects to rtol 1e-6, so two correct bisections differ by that
SPOT_RTOL = 1e-6
# dimensionless curve values (resolution ratios, normalised fields), and
# intensities relative to their peak
CURVE_ATOL = 1e-9
# p_e_oracle against eta^4 scaling: measured up to 1.18e-3 at eta 0.03 and
# 1.76e-3 at eta 0.07 (the ends of the draw); twice the larger
ORACLE_RTOL = 3.5e-3


def _close(value, ref, rtol):
    return abs(value - ref) <= rtol * abs(ref)


def _csv(path: Path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class _Report:
    def __init__(self, name):
        self.name, self.errors = name, []

    def expect(self, ok, what):
        if not ok:
            self.errors.append(f"{self.name}: {what}")
        return ok


def _same_shape(rep, got, gold):
    return (rep.expect(got[0] == gold[0], f"header {got[0]!r}")
            and rep.expect(len(got[1]) == len(gold[1]),
                           f"{len(got[1])} rows, expected {len(gold[1])}"))


def _radial_curve(rep, path, gold_path, a, value_scale=1.0):
    """rho_m,value,kind rows: radii ~ 1/A, values ~ value_scale."""
    got, gold = _csv(path), _csv(gold_path)
    if not _same_shape(rep, got, gold):
        return
    peak = max(abs(float(g[1])) for g in gold[1]) * value_scale
    for i, (row, ref) in enumerate(zip(got[1], gold[1])):
        rep.expect(_close(float(row[0]), float(ref[0]) / a, RTOL), f"row {i} radius")
        rep.expect(abs(float(row[1]) - float(ref[1]) * value_scale)
                   <= CURVE_ATOL * peak, f"row {i} value {row[1]}")
        rep.expect(row[2] == ref[2], f"row {i} kind {row[2]!r}")


def _scenario_report(rep, path, gold_path, a, u):
    got, gold = json.loads(path.read_text()), json.loads(gold_path.read_text())
    laws = {"eta": (a * u ** 0.5, RTOL),
            "p_e_focal": (a ** 4 * u ** 2, RTOL),
            "imaging_rate_hz": (a ** 4 * u ** 2, RTOL),
            "spot_intensity_m": (1.0 / a, SPOT_RTOL),
            "spot_excitation_m": (1.0 / a, SPOT_RTOL)}
    for key, (factor, rtol) in laws.items():
        rep.expect(_close(got[key], gold[key] * factor, rtol),
                   f"{key} = {got[key]!r}, expected {gold[key] * factor!r}")
    for key in ("flags", "curve_files"):
        rep.expect(got[key] == gold[key], f"{key} = {got[key]!r}")


def _oracle_values(rep, got, gold, e, where):
    """eta, p_e_analytic, p_e_oracle and relative_deviation of one row."""
    rep.expect(_close(got["eta"], gold["eta"] * e, RTOL), f"{where} eta")
    rep.expect(_close(got["p_e_analytic"], gold["p_e_analytic"] * e ** 4, RTOL),
               f"{where} p_e_analytic = {got['p_e_analytic']!r}")
    rep.expect(_close(got["p_e_oracle"], gold["p_e_oracle"] * e ** 4, ORACLE_RTOL),
               f"{where} p_e_oracle = {got['p_e_oracle']!r}")
    deviation = abs(got["p_e_oracle"] - got["p_e_analytic"]) / got["p_e_analytic"]
    rep.expect(_close(got["relative_deviation"], deviation, 1e-12),
               f"{where} relative_deviation")


def _oracle_table(rep, path, gold_path, e):
    got, gold = _csv(path), _csv(gold_path)
    if not _same_shape(rep, got, gold):
        return
    names = gold[0].split(",")
    for i, (row, ref) in enumerate(zip(got[1], gold[1])):
        if not rep.expect(len(row) == len(names) and row[-1] == "" and row[0] == ref[0],
                          f"row {i} = {row!r}"):
            continue
        numbers = dict(zip(names[1:-1], map(float, row[1:-1])))
        _oracle_values(rep, numbers, dict(zip(names[1:-1], map(float, ref[1:-1]))),
                       e, f"row {i}")


def _oracle_report(rep, path, gold_path, e):
    got, gold = json.loads(path.read_text()), json.loads(gold_path.read_text())
    for key in ("width_over_transition", "pulse_count", "flags"):
        rep.expect(got[key] == gold[key], f"{key} = {got[key]!r}")
    _oracle_values(rep, got, gold, e, "report")


def _figure_1b(rep, path, gold_path):
    got, gold = _csv(path), _csv(gold_path)
    if not _same_shape(rep, got, gold):
        return
    for i, (row, ref) in enumerate(zip(got[1], gold[1])):
        rep.expect(_close(float(row[0]), float(ref[0]), RTOL), f"row {i} time")
        rep.expect(abs(float(row[1]) - float(ref[1])) <= CURVE_ATOL, f"row {i} field")


def _spot_from_stdout(text):
    match = re.search(r"intensity spot size (\S+) m", text)
    return float(match.group(1)) if match else None


def check_op(workload, op, outdir: Path, golden: Path, inputs) -> list:
    """Reasons why one recorded CLI command failed; empty if it passed."""
    a, u = inputs["aperture_scale"], inputs["energy_scale"]
    e = inputs["oracle_eta"] / inputs["golden_oracle_eta"]
    rep = _Report(" ".join(op["command"]))
    if not rep.expect(op["error"] is None, f"raised {op['error']}"):
        return rep.errors
    if not rep.expect(op["code"] == 0, f"exit code {op['code']}"):
        return rep.errors
    gold = golden / workload
    command = op["command"]
    try:
        if command[0] == "scenario":
            _scenario_report(rep, outdir / "scenario_report.json",
                             gold / "scenario_report.json", a, u)
            for name in ("intensity_resolution.csv", "excitation_resolution.csv"):
                _radial_curve(rep, outdir / name, gold / name, a)
        elif command[0] == "oracle":
            _oracle_table(rep, outdir / "oracle_compare.csv",
                          gold / "oracle_compare.csv", e)
            for i in range(len(command[1:]) // 2):
                name = f"oracle_report_{i}.json"
                _oracle_report(rep, outdir / name, gold / name, e)
        elif command == ["figure", "1b"]:
            _figure_1b(rep, outdir / "figure_1b.csv", gold / "figure_1b.csv")
        elif command == ["figure", "1c-inset"]:
            name = "figure_1c_inset.csv"
            rep.expect((outdir / name).read_bytes() == (gold / name).read_bytes(),
                       "not byte-identical to the golden file")
        elif command == ["focus"]:
            _radial_curve(rep, outdir / "focal_intensity.csv",
                          gold / "focal_intensity.csv", a, value_scale=a * a)
        elif command == ["resolve"]:
            _radial_curve(rep, outdir / "intensity_resolution.csv",
                          gold / "intensity_resolution.csv", a)
            spot = _spot_from_stdout(op["stdout"])
            ref = _spot_from_stdout((gold / "resolve.stdout").read_text())
            rep.expect(spot is not None and _close(spot, ref / a, SPOT_RTOL),
                       f"intensity spot {spot!r}, expected {ref / a!r}")
        else:
            rep.expect(False, "no check defined for this command")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        rep.expect(False, f"unreadable output: {type(exc).__name__}: {exc}")
    return rep.errors
