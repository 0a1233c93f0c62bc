"""Property test of whole runs: `scenario` and `excite` at grid_scale 0.3
on drawn valid configs. Each run exits 0, 2, 3 or 4 without a traceback,
and a run that exits 0 writes only finite numbers.

Spectral widths span 0.01 to 100 carriers, log-uniform. Below about 0.05
carriers the photon-frequency cutoff is not certified and the run exits 3
(ROADMAP item 2); that exit is allowed here until the cutoff is taken
from the kernel's spectral support.
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
    "spectral_width_rad_per_s": _log_uniform(
        DEFAULTS.carrier_frequency_rad_per_s, -2.0, 2.0),
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
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
        if code == 0:
            written = sorted(out.glob("*.json")) + sorted(out.glob("*.csv"))
            assert written
            for path in written:
                assert all(math.isfinite(x) for x in _numbers(path)), path.name
