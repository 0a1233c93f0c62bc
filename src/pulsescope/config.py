"""Scenario configuration: flat key-value text files with SI unit suffixes.

The dialect is one `key = value` pair per line, `#` comments, blank lines
ignored. Numeric keys carry their SI unit as a suffix (_m, _s, _J,
_rad_per_s); dimensionless keys carry none. Unknown keys are rejected.
`ScenarioConfig` checks its values however it is made (file, flag, scan,
caller) by one rule, `checked_number`: finite, positive except that
`pulse_count` and `inhomogeneous_broadening_rad_per_s` may be 0, and a
whole `pulse_count`.
An empty file yields the reference scenario: a red transition at 719 nm
with a 1.6 ns lifetime and tenfold inhomogeneous broadening, driven by
453 Gaussian pulses of width 10 carriers (38 as), period 33.6 fs, and
0.7 nJ each, focused at numerical aperture 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .constants import C_LIGHT
from .errors import ConfigError
from .excitation import PulseTrainConfig, TwoLevelSystem
from .focal import FocusingGeometry
from .spectra import make_gaussian_spectrum

_W0_DEFAULT = 2.0 * np.pi * C_LIGHT / 719e-9
_MAY_BE_ZERO = ("pulse_count", "inhomogeneous_broadening_rad_per_s")


def checked_number(name: str, value, integer=False, may_be_zero=False):
    """value as a finite positive number (nonnegative if may_be_zero; an
    int if integer), or a ConfigError whose message starts with name."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name}: expected {kind}, got {value!r}") from None
    if not np.isfinite(number):
        raise ConfigError(f"{name}: must be finite, got {value!r}")
    if integer and not number.is_integer():
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    number = int(number) if integer else number
    if number < 0 or (number == 0 and not may_be_zero):
        bound = ">= 0" if may_be_zero else "positive"
        raise ConfigError(f"{name}: must be {bound}, got {number}")
    return number


@dataclass(frozen=True)
class ScenarioConfig:
    carrier_frequency_rad_per_s: float = _W0_DEFAULT
    spectral_width_rad_per_s: float = 10.0 * _W0_DEFAULT
    focal_radius_m: float = 0.01
    waist_m: float = 0.001
    transition_frequency_rad_per_s: float = _W0_DEFAULT
    spontaneous_rate_rad_per_s: float = 1.0 / 1.6e-9
    inhomogeneous_broadening_rad_per_s: float = 10.0 / 1.6e-9
    pulse_count: int = 453
    pulse_period_s: float = 33.6e-15
    pulse_energy_J: float = 0.7e-9
    output_dir: str = "out"
    grid_scale: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if f.name != "output_dir":
                object.__setattr__(self, f.name, checked_number(
                    f"key {f.name!r}", getattr(self, f.name),
                    integer=f.name == "pulse_count",
                    may_be_zero=f.name in _MAY_BE_ZERO))

    def build(self):
        """Construct the validated physics objects of this scenario."""
        try:
            spectrum = make_gaussian_spectrum(
                self.carrier_frequency_rad_per_s, self.spectral_width_rad_per_s
            )
            geometry = FocusingGeometry(self.focal_radius_m, self.waist_m)
            tls = TwoLevelSystem(
                self.transition_frequency_rad_per_s,
                self.spontaneous_rate_rad_per_s,
                self.inhomogeneous_broadening_rad_per_s,
            )
            train = PulseTrainConfig(
                self.pulse_count, self.pulse_period_s, self.pulse_energy_J
            )
        except Exception as exc:
            raise ConfigError(f"invalid scenario: {exc}") from exc
        return spectrum, geometry, tls, train

    def serialize(self) -> str:
        lines = ["# pulsescope scenario"]
        for f in fields(self):
            lines.append(f"{f.name} = {getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def loads_config(text: str) -> ScenarioConfig:
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            near = [k for k in _FIELD_TYPES if k.startswith(key.rsplit("_", 1)[0])]
            hint = (f" (did you mean {near[0]!r}? unit suffixes are part of "
                    "the key)") if near else ""
            raise ConfigError(f"line {lineno}: unknown key {key!r}{hint}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        overrides[key] = raw.strip("'\"") if key == "output_dir" else raw
    return ScenarioConfig(**overrides)


def load_config(path) -> ScenarioConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return loads_config(p.read_text())


@dataclass(frozen=True)
class ScenarioReport:
    """Quoted numbers of one scenario run plus provenance of emitted files."""

    eta: float
    p_e_focal: float
    imaging_rate_hz: float
    spot_intensity_m: float
    spot_excitation_m: float
    flags: dict
    curve_files: dict
