"""Property tests of the input path: every config key, --grid-scale, each
scan parameter and both oracle slots. Whatever value is drawn, `main`
returns 0 or 2 and never raises; an invalid scan or oracle value returns
2 before any row is computed."""

import contextlib
import io
import math
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pulsescope import scenario
from pulsescope.cli import main
from pulsescope.config import ScenarioConfig
from pulsescope.errors import (
    InvalidParameterError,
    InvalidStateError,
    NumericalConvergenceError,
)
from pulsescope.excitation import (
    PulseAreaSynthesis,
    PulseTrainConfig,
    TwoLevelSystem,
    eta,
)
from pulsescope.focal import FocusingGeometry, focal_field_time
from pulsescope.spectra import make_gaussian_spectrum, make_spectrum

DEFAULTS = ScenarioConfig()
KEYS = [f.name for f in fields(ScenarioConfig) if f.name != "output_dir"]
MAY_BE_ZERO = ("pulse_count", "inhomogeneous_broadening_rad_per_s")
SCAN_KEYS = {"U": "pulse_energy_J", "A": "waist_m", "Gamma":
             "spectral_width_rad_per_s", "N": "pulse_count", "T": "pulse_period_s"}
HOSTILE = ["nan", "-nan", "inf", "-inf", "1e999", "-1.5", "0", "-0.0", "2.5",
           "", "abc", "0x10", "1,5"]
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _valid(key, text):
    """The documented rule, written out independently of the package."""
    try:
        x = float(text)
    except ValueError:
        return False
    if not math.isfinite(x) or (key == "pulse_count" and not x.is_integer()):
        return False
    return x > 0 or (x == 0 and key in MAY_BE_ZERO)


def _values(reference, integer=False):
    """Hostile text, text that is no number, and valid values near reference."""
    if integer:
        valid = st.integers(0, 1000)
    else:
        valid = st.integers(-3, 1).map(lambda k: reference * 2.0 ** k)
    return st.one_of(st.sampled_from(HOSTILE), valid.map(repr),
                     st.text(alphabet="abxyz.,;:+-_/", min_size=1, max_size=5))


def _run(argv):
    """Exit code and stderr of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a flag value that is no float
            code = exc.code
    return code, err.getvalue()


@PROPERTY
@given(st.data())
def test_config_values(tmp_path, data):
    key = data.draw(st.sampled_from(KEYS))
    text = data.draw(_values(getattr(DEFAULTS, key), key == "pulse_count"))
    cfg = tmp_path / "drawn.cfg"
    cfg.write_text(f"{key} = {text}\n")
    code, err = _run(["--config", str(cfg), "--out", str(tmp_path / "out"),
                      "spectrum"])
    if _valid(key, text):
        assert code in (0, 2)  # build() may reject a valid combination
    else:
        assert code == 2 and key in err


@PROPERTY
@given(_values(1.0))
def test_grid_scale_flag(tmp_path, text):
    code, err = _run([f"--grid-scale={text}", "--out", str(tmp_path / "out"),
                      "spectrum"])
    if _valid("grid_scale", text):
        assert code == 0
    else:
        assert code == 2 and ("grid_scale" in err or "--grid-scale" in err)


@PROPERTY
@given(st.data())
def test_scan_values_are_checked_before_the_first_row(tmp_path, monkeypatch, data):
    parameter = data.draw(st.sampled_from(sorted(SCAN_KEYS)))
    key = SCAN_KEYS[parameter]
    reference = 0.1 if parameter == "A" else getattr(DEFAULTS, key)
    texts = data.draw(st.lists(_values(reference, parameter == "N"),
                               min_size=1, max_size=3))
    rows = []

    def first_row(*args):
        rows.append(args)
        raise InvalidStateError("row computed")

    monkeypatch.setattr(scenario, "excitation_probability", first_row)
    code, err = _run(["--out", str(tmp_path / "out"), "scan", parameter, "--"]
                     + texts)
    assert code == 2
    if all(_valid(key, text) for text in texts):
        # the first row starts, unless build() rejects its valid values
        assert ("row computed" in err) == (len(rows) == 1)
        assert rows or "invalid scenario" in err
    else:
        assert rows == []


@PROPERTY
@given(st.lists(st.tuples(_values(10.0), _values(0.05)), max_size=2))
def test_oracle_targets_are_checked_before_the_first_row(tmp_path, monkeypatch,
                                                         pairs):
    rows = []

    def failing_row(cfg, physics, ratio, eta_target):
        rows.append((ratio, eta_target))
        raise NumericalConvergenceError("row failed")

    monkeypatch.setattr(scenario, "_oracle_single", failing_row)
    flat = [text for pair in pairs for text in pair]
    code, _ = _run(["--out", str(tmp_path / "out"), "oracle", "--"] + flat)
    if all(_valid("target", text) for text in flat):
        # a numerical failure of a valid target is written into its row
        assert code == 0 and len(rows) == len(pairs)
        table = (tmp_path / "out" / "oracle_compare.csv").read_text()
        assert table.count("row failed") == len(pairs)
    else:
        assert code == 2 and rows == []


# the physics objects, built directly, by positional field: a valid value
# at every field, and the field under test replaced
PHYSICS = [
    (TwoLevelSystem, (2e15, 1e9, 1e10)),
    (PulseTrainConfig, (453, 3.36e-14, 7e-10)),
    (FocusingGeometry, (0.01, 0.001)),
    (make_spectrum, (lambda w: 1j * w, 2e15, 2e16)),
    (make_gaussian_spectrum, (2e15, 2e16)),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build, args, index", [
    pytest.param(build, args, i, id=f"{build.__name__}-{i}")
    for build, args in PHYSICS for i in range(len(args))
    if not callable(args[i])])
def test_physics_objects_reject_values_that_are_not_finite(build, args, index,
                                                          value):
    # a NaN passes a <= 0 check; each field is checked as not 0 < x < inf
    # (0 <= x < inf where zero is allowed)
    drawn = list(args)
    drawn[index] = value
    with pytest.raises(InvalidParameterError):
        build(*drawn)


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf, 0.0])
def test_pulse_energy_entry_points_reject_values_that_are_not_finite(energy):
    # eta, the synthesis and the field take a pulse energy directly, not
    # through PulseTrainConfig; a NaN or infinite energy used to give nan
    spectrum, geometry, tls, _ = DEFAULTS.build()
    for call in (lambda: eta(geometry, spectrum, energy, tls, 0.3),
                 lambda: PulseAreaSynthesis(geometry, spectrum, energy, tls, 0.3),
                 lambda: focal_field_time(geometry, spectrum, energy, 0.0, 0.0)):
        with pytest.raises(InvalidParameterError):
            call()
