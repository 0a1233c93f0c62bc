"""Property test of whole runs: `scenario` and `excite` at grid_scale 0.3
on drawn valid configs. Each run exits 0, 2 or 4 without a traceback,
and a run that exits 0 writes only finite numbers.

Spectral widths span 0.01 to 100 transition frequencies and carriers 0.5
to 5, both log-uniform. No valid draw may exit 3: the photon-frequency
integral takes its panels and its tau grid from the emission kernel's
spectral support, so no cutoff falls in a gap between its bands or past
the band its tau grid resolves. Exit 0 alone does not show the value
right; `test_f_integral_narrowband_and_detuned_against_brute_force`
checks the narrow and detuned corners of this range.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from pulsescope.config import ScenarioConfig
from test_input_properties import PROPERTY, _run

DEFAULTS = ScenarioConfig()


def _log_uniform(reference, low, high):
    """reference * 10**u for u uniform in [low, high]."""
    return st.floats(low, high).map(lambda u: reference * 10.0 ** u)


CONFIGS = st.fixed_dictionaries({
    "carrier_frequency_rad_per_s": _log_uniform(
        DEFAULTS.transition_frequency_rad_per_s, math.log10(0.5), math.log10(5.0)),
    "spectral_width_rad_per_s": _log_uniform(
        DEFAULTS.transition_frequency_rad_per_s, -2.0, 2.0),
    "pulse_energy_J": _log_uniform(DEFAULTS.pulse_energy_J, -2.0, 2.0),
    "waist_m": _log_uniform(DEFAULTS.waist_m, -1.0, 0.3),
    "pulse_count": st.integers(0, 1000),
})


def _numbers(path):
    """Every number in a written JSON or CSV file (text fields skipped)."""
    text = path.read_text()
    if path.suffix == ".json":
        found = []

        def walk(value):
            if isinstance(value, dict):
                for item in value.values():
                    walk(item)
            elif isinstance(value, list):
                for item in value:
                    walk(item)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                found.append(float(value))

        walk(json.loads(text))
        return found
    found = []
    for line in text.splitlines()[1:]:
        for field in line.split(","):
            try:
                found.append(float(field))
            except ValueError:
                pass
    return found


@settings(PROPERTY, max_examples=30)
@given(CONFIGS)
def test_whole_runs_exit_cleanly_with_finite_outputs(tmp_path_factory, config):
    work = tmp_path_factory.mktemp("run")
    cfg = work / "drawn.cfg"
    cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in config.items()))
    for command in ("scenario", "excite"):
        out = work / command
        code, err = _run(["--config", str(cfg), "--out", str(out),
                          "--grid-scale", "0.3", command])
        assert code in (0, 2, 4), err
        assert "Traceback" not in err
        if code == 0:
            written = sorted(out.glob("*.json")) + sorted(out.glob("*.csv"))
            assert written
            for path in written:
                assert all(math.isfinite(x) for x in _numbers(path)), path.name
