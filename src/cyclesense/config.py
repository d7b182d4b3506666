"""Run configuration: YAML schema, defaults and validation.

A single YAML file drives every CLI command.  Unknown keys are rejected and
every validation error names the offending field, so a bad config never
reaches the physics.  The resolved configuration (defaults filled in) is
echoed into each output directory for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, asdict
import math
from pathlib import Path

import yaml

from .errors import ConfigError
from .grid import Grid, ProbeSpec
from .network import DEFAULT_WAVELENGTH, NetworkGeometry, SwitchMode
from .pipeline import NoiseModel, SensorDriveModel
from .wva import PostSelection, ReadoutModel

#: accepted Python types of each field annotation; bool is rejected wherever
#: a number is expected.
_KINDS = {"float": ((int, float), "a number"), "int": ((int,), "an integer"),
          "list": ((list, tuple), "a list")}


#: resource ceilings, checked before anything is allocated: bytes of one
#: complex128 grid state, sensors in one network, and samples (sensor counts
#: x voltages x replicates) of one synthetic sweep (checked by the replay).
MAX_GRID_BYTES = 1 << 26
MAX_SENSORS = 100_000
MAX_SYNTHETIC_SAMPLES = 4_000_000


def _is_kind(value, kinds: tuple[type, ...]) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:                     # an int beyond the float range
        return False


@dataclass
class RunConfig:
    """All knobs of a toolkit run, grouped by subsystem."""

    # probe
    waist_radius: float = 2e-3
    wavelength: float = DEFAULT_WAVELENGTH
    center_x: float = 0.0
    center_p: float = 0.0
    # geometry
    z_bar: float = 0.2
    lead_in: float = 0.325
    lead_out: float = 0.0
    # post-selection
    weak_value_magnitude: float = 7.0
    # readout
    focal_length: float = 0.25
    qpd_gain: float = 1e4
    total_power: float = 0.2e-3
    position_slope: float = 0.65
    # sensor drive
    pzt_displacement_per_volt: float = 22e-9
    chip_separation: float = 20e-3
    beam_tilt_factor: float = 2.0
    # grid
    num_points: int = 1 << 14
    padding: float = 8.0
    # sweeps
    n_values: list = field(default_factory=lambda: list(range(1, 10)))
    voltages: list = field(default_factory=lambda: [i * 1e-3 for i in range(1, 11)])
    replicates: int = 100
    theta_bar: float = 0.02
    modes: list = field(default_factory=lambda: [m.value for m in SwitchMode])
    # noise
    noise_floor: float = 0.0          # 0 means: calibrate from the reference row
    jitter: float = 0.05
    # bookkeeping
    trials: int = 1
    seed: int = 0
    oracle_seeds: int = 20
    oracle_instances: int = 10

    _SECTIONS = {
        "probe": ("waist_radius", "wavelength", "center_x", "center_p"),
        "geometry": ("z_bar", "lead_in", "lead_out"),
        "post_selection": ("weak_value_magnitude",),
        "readout": ("focal_length", "qpd_gain", "total_power", "position_slope"),
        "drive": ("pzt_displacement_per_volt", "chip_separation", "beam_tilt_factor"),
        "grid": ("num_points", "padding"),
        "sweep": ("n_values", "voltages", "replicates", "theta_bar", "modes"),
        "noise": ("noise_floor", "jitter"),
        "run": ("trials", "seed", "oracle_seeds", "oracle_instances"),
    }

    # -- validation -----------------------------------------------------------

    def _check_types(self) -> None:
        """Name the field whose value has the wrong type or is not finite,
        before any comparison."""
        for f in fields(self):
            value = getattr(self, f.name)
            kinds, what = _KINDS[f.type]
            if not _is_kind(value, kinds):
                raise ConfigError(f"{self._field_path(f.name)}: must be {what}, "
                                  f"got {value!r}")
            if f.type == "float" and not _is_finite(value):
                raise ConfigError(f"{self._field_path(f.name)}: must be finite, "
                                  f"got {value!r}")
        kinds, _ = _KINDS["float"]
        for name in ("n_values", "voltages"):
            for v in getattr(self, name):
                if not (_is_kind(v, kinds) and _is_finite(v)):
                    raise ConfigError(f"{self._field_path(name)}: entries must "
                                      f"be finite numbers, got {v!r}")

    def validate(self) -> None:
        self._check_types()
        pos = ("waist_radius", "wavelength", "z_bar", "weak_value_magnitude",
               "focal_length", "qpd_gain", "total_power", "position_slope",
               "pzt_displacement_per_volt", "chip_separation",
               "beam_tilt_factor", "padding")
        for name in pos:
            if not getattr(self, name) > 0:
                raise ConfigError(f"{self._field_path(name)}: must be positive, "
                                  f"got {getattr(self, name)}")
        for name in ("lead_in", "lead_out", "jitter", "noise_floor", "theta_bar"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{self._field_path(name)}: must be non-negative")
        n = self.num_points
        if n < 2 or (n & (n - 1)) != 0:
            raise ConfigError(f"grid.num_points: must be a power of two, got {n}")
        if 16 * n > MAX_GRID_BYTES:
            raise ConfigError(f"grid.num_points: {n} points take {16 * n} bytes "
                              f"per state, above the ceiling of {MAX_GRID_BYTES}")
        if self.replicates < 1:
            raise ConfigError("sweep.replicates: must be at least 1")
        if self.trials < 1:
            raise ConfigError("run.trials: must be at least 1")
        if self.seed < 0:
            raise ConfigError("run.seed: must be non-negative")
        if not self.modes:
            raise ConfigError("sweep.modes: must be non-empty")
        if self.oracle_seeds < 1 or self.oracle_instances < 1:
            raise ConfigError("run.oracle_seeds/oracle_instances: must be at least 1")
        if not self.n_values:
            raise ConfigError("sweep.n_values: must be non-empty")
        for v in self.n_values:
            if v % 1 != 0 or not 1 <= v <= MAX_SENSORS:
                raise ConfigError(f"sweep.n_values: entries must be integers from 1 "
                                  f"to {MAX_SENSORS}, got {v}")
        # integral floats such as 3.0 count sensors too; store them as int
        self.n_values = [int(v) for v in self.n_values]
        if not self.voltages:
            raise ConfigError("sweep.voltages: must be non-empty")
        for v in self.voltages:
            if not v > 0:
                raise ConfigError(f"sweep.voltages: entries must be positive, got {v}")
        for m in self.modes:
            try:
                SwitchMode(m)
            except ValueError:
                raise ConfigError(
                    f"sweep.modes: unknown mode {m!r}; valid values are "
                    f"{[x.value for x in SwitchMode]}") from None

    @classmethod
    def _field_path(cls, name: str) -> str:
        for section, names in cls._SECTIONS.items():
            if name in names:
                return f"{section}.{name}"
        return name

    # -- YAML round trip --------------------------------------------------------

    def to_dict(self) -> dict:
        flat = asdict(self)
        return {section: {k: flat[k] for k in names}
                for section, names in self._SECTIONS.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping of sections")
        kwargs = {}
        for section, content in data.items():
            if section not in cls._SECTIONS:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(content, dict):
                raise ConfigError(f"{section}: must be a mapping")
            for key, value in content.items():
                if key not in cls._SECTIONS[section]:
                    raise ConfigError(f"{section}.{key}: unknown field")
                kwargs[key] = value
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_yaml(cls, path: str | Path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = yaml.safe_load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file {path} not found") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
        return cls.from_dict(data or {})

    def echo_yaml(self, path: str | Path) -> None:
        with open(path, "w", newline="\n") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=True)

    # -- assembled components -----------------------------------------------------

    @property
    def wave_number(self) -> float:
        return 2.0 * math.pi / self.wavelength

    def probe_spec(self) -> ProbeSpec:
        return ProbeSpec(self.waist_radius, self.wave_number,
                         self.center_x, self.center_p)

    def geometry(self, n_sensors: int) -> NetworkGeometry:
        return NetworkGeometry.uniform(n_sensors, self.z_bar, self.lead_in,
                                       self.lead_out, self.wave_number)

    def grid(self, n_sensors: int | None = None) -> Grid:
        n = n_sensors if n_sensors is not None else max(self.n_values)
        total = self.geometry(n).z_total
        return Grid.for_probe(self.probe_spec(), total,
                              self.num_points, self.padding)

    def post_selection(self, variant: str = "imaginary") -> PostSelection:
        return PostSelection.from_weak_value_magnitude(
            self.weak_value_magnitude, variant)

    def readout_model(self) -> ReadoutModel:
        return ReadoutModel(self.focal_length, self.qpd_gain,
                            self.total_power, self.position_slope)

    def drive_model(self) -> SensorDriveModel:
        return SensorDriveModel(self.pzt_displacement_per_volt,
                                self.chip_separation, self.beam_tilt_factor)

    def noise_model(self, calibrated_floor: float | None = None) -> NoiseModel:
        floor = self.noise_floor if self.noise_floor > 0 else calibrated_floor
        if floor is None or floor <= 0:
            raise ConfigError("noise.noise_floor: not set and no calibration "
                              "reference available")
        return NoiseModel(floor, self.jitter)

    def switch_modes(self) -> list[SwitchMode]:
        return [SwitchMode(m) for m in self.modes]
