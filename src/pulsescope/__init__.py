"""Focused ultrashort pulses, counterrotating-term excitation of a
two-level system, and resolution analysis for far-field nanoscopy."""

from .config import ScenarioConfig, ScenarioReport, load_config, loads_config
from .excitation import (
    ExcitationResult,
    PulseTrainConfig,
    TwoLevelSystem,
    eta,
    excitation_probability,
    excitation_resolution,
    excitation_resolution_curve,
    f_integral,
    imaging_rate,
)
from .focal import (
    FocusingGeometry,
    RadialCurve,
    focal_field_time,
    focal_intensity_rephased,
    intensity_resolution_curve,
    spot_size,
)
from .oracle import (
    OracleReport,
    PropagatorHistory,
    default_time_grid,
    oracle_c0,
    oracle_emission_amplitude,
    oracle_excitation_probability,
    propagate_driven_tls,
    second_order_emission_amplitude,
)
from .spectra import PulseSpectrum, make_gaussian_spectrum, make_spectrum

__all__ = [
    "ScenarioConfig", "ScenarioReport", "load_config", "loads_config",
    "ExcitationResult", "PulseTrainConfig", "TwoLevelSystem",
    "eta", "excitation_probability", "excitation_resolution",
    "excitation_resolution_curve", "f_integral", "imaging_rate",
    "FocusingGeometry", "RadialCurve", "focal_field_time",
    "focal_intensity_rephased", "intensity_resolution_curve", "spot_size",
    "OracleReport", "PropagatorHistory",
    "default_time_grid", "oracle_c0", "oracle_emission_amplitude",
    "oracle_excitation_probability", "propagate_driven_tls",
    "second_order_emission_amplitude",
    "PulseSpectrum", "make_gaussian_spectrum", "make_spectrum",
]

__version__ = "0.1.0"
