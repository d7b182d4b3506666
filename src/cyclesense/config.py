"""Run configuration: YAML schema, defaults and validation.

A single YAML file drives every CLI command.  Unknown keys are rejected and
every validation error names the offending field, so a bad config never
reaches the physics.  The resolved configuration (defaults filled in) is
echoed into each output directory for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
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

#: libyaml's parser and emitter where pyyaml was built with them, else the
#: pure-Python pair; both give the same dicts and the same echo bytes.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _is_kind(value, kinds: tuple[type, ...]) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:                     # an int beyond the float range
        return False


#: range rules that several fields share, each a test and the text naming a
#: failure; a field's declaration names its rule
_POSITIVE = (lambda v: v > 0, "must be positive, got {}")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")


def _knob(section: str, default, rule=None):
    """A field of YAML section `section`, with its shared range rule if any."""
    meta = {"section": section, "rule": rule}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


def _path(f) -> str:
    return f"{f.metadata['section']}.{f.name}"


@dataclass
class RunConfig:
    """All knobs of a toolkit run, each declared with its YAML section."""

    waist_radius: float = _knob("probe", 2e-3, _POSITIVE)
    wavelength: float = _knob("probe", DEFAULT_WAVELENGTH, _POSITIVE)
    center_x: float = _knob("probe", 0.0)
    center_p: float = _knob("probe", 0.0)
    z_bar: float = _knob("geometry", 0.2, _POSITIVE)
    lead_in: float = _knob("geometry", 0.325, _NON_NEGATIVE)
    weak_value_magnitude: float = _knob("post_selection", 7.0, _POSITIVE)
    focal_length: float = _knob("readout", 0.25, _POSITIVE)
    qpd_gain: float = _knob("readout", 1e4, _POSITIVE)
    total_power: float = _knob("readout", 0.2e-3, _POSITIVE)
    position_slope: float = _knob("readout", 0.65, _POSITIVE)
    pzt_displacement_per_volt: float = _knob("drive", 22e-9, _POSITIVE)
    chip_separation: float = _knob("drive", 20e-3, _POSITIVE)
    beam_tilt_factor: float = _knob("drive", 2.0, _POSITIVE)
    num_points: int = _knob("grid", 1 << 14)
    padding: float = _knob("grid", 8.0, _POSITIVE)
    n_values: list = _knob("sweep", list(range(1, 10)))
    voltages: list = _knob("sweep", [i * 1e-3 for i in range(1, 11)])
    replicates: int = _knob("sweep", 100, _AT_LEAST_1)
    theta_bar: float = _knob("sweep", 0.02, _NON_NEGATIVE)
    modes: list = _knob("sweep", [m.value for m in SwitchMode])
    # 0 means: calibrate from the reference row
    noise_floor: float = _knob("noise", 0.0, _NON_NEGATIVE)
    jitter: float = _knob("noise", 0.05, _NON_NEGATIVE)
    seed: int = _knob("run", 0, _NON_NEGATIVE)
    oracle_seeds: int = _knob("run", 20, _AT_LEAST_1)
    oracle_instances: int = _knob("run", 10, _AT_LEAST_1)

    # -- validation -----------------------------------------------------------

    def _check_types(self) -> None:
        """Name the field whose value has the wrong type or is not finite,
        before any comparison."""
        for f in fields(self):
            value = getattr(self, f.name)
            kinds, what = _KINDS[f.type]
            if not _is_kind(value, kinds):
                raise ConfigError(f"{_path(f)}: must be {what}, got {value!r}")
            if f.type == "float" and not _is_finite(value):
                raise ConfigError(f"{_path(f)}: must be finite, got {value!r}")
        kinds, _ = _KINDS["float"]
        for name in ("n_values", "voltages"):
            for v in getattr(self, name):
                if not (_is_kind(v, kinds) and _is_finite(v)):
                    raise ConfigError(f"sweep.{name}: entries must be finite "
                                      f"numbers, got {v!r}")

    def validate(self) -> None:
        self._check_types()
        for f in fields(self):
            value, rule = getattr(self, f.name), f.metadata["rule"]
            if rule and not rule[0](value):
                raise ConfigError(f"{_path(f)}: {rule[1].format(value)}")
        n = self.num_points
        if n < 2 or (n & (n - 1)) != 0:
            raise ConfigError(f"grid.num_points: must be a power of two, got {n}")
        if 16 * n > MAX_GRID_BYTES:
            raise ConfigError(f"grid.num_points: {n} points take {16 * n} bytes "
                              f"per state, above the ceiling of {MAX_GRID_BYTES}")
        if not self.modes:
            raise ConfigError("sweep.modes: must be non-empty")
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

    # -- YAML round trip --------------------------------------------------------

    def to_dict(self) -> dict:
        # a shallow copy of each list keeps the dict apart from the config, as
        # asdict did, without asdict's deepcopy of every entry
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out.setdefault(f.metadata["section"], {})[f.name] = (
                list(value) if isinstance(value, list) else value)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a mapping of sections")
        known = {(f.metadata["section"], f.name) for f in fields(cls)}
        kwargs = {}
        for section, content in data.items():
            if section not in {s for s, _ in known}:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(content, dict):
                raise ConfigError(f"{section}: must be a mapping")
            for key, value in content.items():
                if (section, key) not in known:
                    raise ConfigError(f"{section}.{key}: unknown field")
                kwargs[key] = value
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_yaml(cls, path: str | Path) -> "RunConfig":
        try:
            with open(path) as fh:
                data = yaml.load(fh, Loader=_LOADER)
        except FileNotFoundError:
            raise ConfigError(f"config file {path} not found") from None
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from None
        return cls.from_dict(data or {})

    def echo_yaml(self, path: str | Path) -> None:
        with open(path, "w", newline="\n") as fh:
            yaml.dump(self.to_dict(), fh, Dumper=_DUMPER, sort_keys=True)

    # -- assembled components -----------------------------------------------------

    @property
    def wave_number(self) -> float:
        return 2.0 * math.pi / self.wavelength

    def probe_spec(self) -> ProbeSpec:
        return ProbeSpec(self.waist_radius, self.wave_number,
                         self.center_x, self.center_p)

    def geometry(self, n_sensors: int) -> NetworkGeometry:
        return NetworkGeometry.uniform(n_sensors, self.z_bar, self.lead_in,
                                       self.wave_number)

    def grid(self, n_sensors: int) -> Grid:
        return Grid.for_probe(self.probe_spec(), self.geometry(n_sensors).z_total,
                              self.num_points, self.padding)

    def post_selection(self) -> PostSelection:
        return PostSelection.from_weak_value_magnitude(self.weak_value_magnitude)

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
