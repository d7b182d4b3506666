"""Drive-voltage chain, synthetic SNR sweeps and the precision scaling fit.

Mirrors the analysis applied to the tabletop run: sinusoidal drive voltages
tilt the sensing mirrors, the quadrant detector's 10 kHz component is read
against a drive-independent noise floor, a zero-intercept line through SNR
versus voltage locates the SNR = 1 threshold per sensor count, and the
resulting minimum detectable tilts are fitted to a / (N^2 + b N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, FitError
from .fisher import QFIM_CLOSED_FORMS, GeneratorMoments, QcrbReport, SwitchMode, \
    _global_bounds, probe_alone_qfi_at_origin
from .grid import ProbeSpec
from .network import NetworkGeometry
from .wva import PostSelection, ReadoutModel, qpd_signal


@dataclass(frozen=True)
class SensorDriveModel:
    """Voltage-to-beam-tilt chain of a PZT-actuated sensing mirror.

    Two chips spaced chip_separation apart are driven in antiphase, so a
    peak-to-peak voltage v tips the mirror by v * displacement_per_volt /
    chip_separation and the reflected beam by twice that.
    """

    pzt_displacement_per_volt: float = 22e-9
    chip_separation: float = 20e-3
    beam_tilt_factor: float = 2.0

    @property
    def tilt_per_volt(self) -> float:
        """Beam-tilt modulation amplitude per volt peak-to-peak (rad/V)."""
        return (self.pzt_displacement_per_volt / self.chip_separation
                * self.beam_tilt_factor)


def voltage_to_beam_tilt(v_pp: float, model: SensorDriveModel) -> float:
    """Beam-tilt modulation amplitude for a peak-to-peak drive voltage."""
    if v_pp < 0:
        raise DomainError(f"voltage must be non-negative, got {v_pp}")
    return v_pp * model.tilt_per_volt


@dataclass(frozen=True)
class NoiseModel:
    """Constant detection noise floor, independent of N and drive level.

    jitter is the log-normal sigma applied multiplicatively to synthetic SNR
    replicates; zero makes the synthetic pipeline exactly deterministic.
    """

    noise_floor: float
    jitter: float = 0.0

    def __post_init__(self):
        if not self.noise_floor > 0:
            raise DomainError("noise_floor must be positive")
        if self.jitter < 0:
            raise DomainError("jitter must be non-negative")


@dataclass(frozen=True)
class ScalingFit:
    """Fitted precision law delta_phi_min = a / (N^2 + b N)."""

    a: float
    b: float
    r_squared: float

    def predict(self, n: float) -> float:
        return self.a / (n**2 + self.b * n)

    def heisenberg_comparison(self, n: float) -> float:
        """Same relation with the N^2 term replaced by 1 (linear-scaling law)."""
        return self.a / (1.0 + self.b * n)


@dataclass(frozen=True)
class SnrLineFit:
    """Zero-intercept line through SNR versus drive voltage."""

    n_sensors: int
    slope: float
    min_voltage: float


#: Minimum detectable average tilt of the 9-sensor tabletop run: sensor
#: count, SNR = 1 drive voltage (V peak-to-peak), detected tilt (rad).
TABLETOP_PRECISION_TABLE: tuple[tuple[int, float, float], ...] = (
    (1, 382.6e-6, 841.8e-12),
    (2, 175.3e-6, 385.7e-12),
    (3, 98.6e-6, 217.0e-12),
    (4, 65.5e-6, 144.1e-12),
    (5, 46.8e-6, 103.1e-12),
    (6, 35.5e-6, 77.7e-12),
    (7, 27.6e-6, 60.6e-12),
    (8, 22.2e-6, 48.9e-12),
    (9, 18.1e-6, 39.8e-12),
)


def snr_model(phi_bar: float, geom: NetworkGeometry, waist_radius: float,
              ps: PostSelection, readout: ReadoutModel, noise: NoiseModel) -> float:
    """Noise-referenced detector signal V_delta / V_noise for a tilt phi_bar."""
    _, v_delta = qpd_signal(phi_bar, geom, waist_radius, ps, readout)
    return v_delta / noise.noise_floor


def calibrate_noise_floor(geom_for_n, waist_radius: float, ps: PostSelection,
                          readout: ReadoutModel, drive: SensorDriveModel) -> float:
    """Noise floor that puts SNR = 1 at the first TABLETOP_PRECISION_TABLE row.

    The absolute volts-per-tilt factor of a real detector chain is device
    specific; anchoring the floor to one measured threshold row reproduces
    the rest of the chain in absolute units.
    """
    n_ref, v_ref, _ = TABLETOP_PRECISION_TABLE[0]
    phi = voltage_to_beam_tilt(v_ref, drive)
    _, v_delta = qpd_signal(phi, geom_for_n(n_ref), waist_radius, ps, readout)
    return v_delta


def _fit_error(kind: str, flag: int) -> None:
    raise FitError(f"floating-point {kind} in the fit: its inputs leave the float range")


@np.errstate(over="call", invalid="call", divide="call", call=_fit_error)
def fit_snr_vs_voltage(n_sensors: int, voltages: Sequence[float],
                       snr: Sequence[float]) -> SnrLineFit:
    """Least-squares SNR-versus-voltage line and its SNR = 1 crossing.

    voltages and snr are the paired readings of one sensor count.  The
    intercept is pinned to zero (no drive, no signal).
    """
    v = np.asarray(voltages, dtype=float)
    y = np.asarray(snr, dtype=float)
    if v.shape != y.shape or v.ndim != 1:
        raise FitError(f"need paired 1-D voltages and SNR values, got shapes "
                       f"{v.shape} and {y.shape}")
    if not v.size:
        raise FitError("no samples to fit")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(y))):
        raise FitError(f"non-finite drive voltages or SNR values at N = {n_sensors}")
    if np.any(y < 0):
        raise FitError("SNR values must be non-negative")
    if len(np.unique(v)) < 2:
        raise FitError("need at least two distinct drive voltages")
    if np.all(y == 0):
        raise FitError("all SNR values are zero")
    slope = float(np.dot(v, y) / np.dot(v, v))
    if not 0 < slope < np.inf:
        raise FitError(f"fitted slope {slope} is not positive and finite")
    return SnrLineFit(n_sensors, slope, 1.0 / slope)


@np.errstate(over="call", invalid="call", divide="call", call=_fit_error)
def fit_scaling_law(points: Sequence[tuple[float, float]]) -> ScalingFit:
    """Fit delta_phi_min = a / (N^2 + b N) to (N, delta_phi_min) pairs.

    Linear regression of 1/delta_phi against (N^2, N) gives (1/a, b/a) in
    closed form; the goodness of fit is then computed in the original
    delta_phi space.
    """
    if len({n for n, _ in points}) < 3:
        raise FitError("need at least three distinct sensor counts")
    if not all(0 < d < np.inf for _, d in points):
        raise FitError("minimum detectable tilts must be positive and finite")
    n = np.array([float(p[0]) for p in points])
    y = np.array([float(p[1]) for p in points])
    coef, *_ = np.linalg.lstsq(np.column_stack([n**2, n]), 1.0 / y, rcond=None)
    if coef[0] <= 0:
        raise FitError("fitted quadratic coefficient is not positive")
    a = 1.0 / float(coef[0])
    b = float(coef[1]) * a
    predicted = a / (n**2 + b * n)
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:                         # e.g. a spread that underflows
        raise FitError("the minimum detectable tilts have no spread; R^2 is undefined")
    r_squared = 1.0 - ss_res / ss_tot
    if not np.all(np.isfinite((a, b, r_squared))):
        raise FitError(f"non-finite scaling fit: a = {a}, b = {b}, R^2 = {r_squared}")
    return ScalingFit(a, b, r_squared)


def qcrb_comparison(n_values: Iterable[int], probe: ProbeSpec, z_bar: float,
                    modes: Sequence[SwitchMode] = tuple(SwitchMode)
                    ) -> list[QcrbReport]:
    """Closed-form bounds on the average kick for every N and strategy.

    One report per (N, mode), in itertools.product(n_values, modes) order.
    The information matrices of every row are projected onto the average
    kick in one batched call; PROBE_ALONE rows take their bound from
    probe_alone_qfi_at_origin.
    """
    gms = [GeneratorMoments.from_probe_spec(probe, z_bar, n) for n in n_values]
    closed = [mode for mode in modes if mode != SwitchMode.PROBE_ALONE]
    # the entry list is a temporary, freed before the reports are built
    q = np.array([(m.q11, m.q12, m.q12, m.q22) for m in
                  (QFIM_CLOSED_FORMS[mode](gm) for gm in gms for mode in closed)],
                 dtype=float).reshape(-1, 2, 2)
    n = np.repeat([gm.n_sensors for gm in gms], len(closed))
    bounds = iter(_global_bounds(q, n, z_bar).tolist())
    return [probe_alone_qfi_at_origin(gm) if mode == SwitchMode.PROBE_ALONE
            else QcrbReport(gm.n_sensors, next(bounds))
            for gm in gms for mode in modes]


@dataclass(frozen=True)
class SweepResult:
    """Synthetic sweep outputs: the SNR cube, thresholds, scaling law.

    snr holds each reading once, float64 in C order with shape (len(n_values),
    len(voltages), replicates): snr[i, j, r] is replicate r at sensor count
    n_values[i] and drive voltage voltages[j].  n_values and voltages are
    the sweep's axes as arrays, in the order given.
    """

    n_values: np.ndarray
    voltages: np.ndarray
    snr: np.ndarray
    precision_points: tuple[tuple[int, float], ...]
    scaling: ScalingFit


def end_to_end_sweep(n_values: Sequence[int], voltages: Sequence[float],
                     replicates: int, probe: ProbeSpec, ps: PostSelection,
                     readout: ReadoutModel, drive: SensorDriveModel,
                     noise: NoiseModel, z_bar: float, lead_in: float = 0.0,
                     lead_out: float = 0.0, seed: int = 0) -> SweepResult:
    """Generate a synthetic SNR sweep and run the full analysis chain on it.

    Every (N, voltage) cell owns an RNG stream spawned from (seed, N,
    voltage index), so the draws of a cell are reproducible for a fixed
    seed whatever the other cells are.  The noise model itself (floor and
    jitter width) is shared by all cells: nothing about the noise depends
    on the sensor count.
    """
    if replicates < 1:
        raise DomainError("replicates must be at least 1")
    if not n_values or not voltages:
        raise DomainError("n_values and voltages must be non-empty")

    snr = np.empty((len(n_values), len(voltages), replicates))
    for ni, n in enumerate(n_values):
        geom = NetworkGeometry.uniform(n, z_bar, lead_in, lead_out,
                                       probe.wave_number)
        for vi, v in enumerate(voltages):
            phi = voltage_to_beam_tilt(v, drive)
            snr[ni, vi] = snr_model(phi, geom, probe.waist_radius, ps, readout,
                                    noise)
            if noise.jitter > 0:
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(n, vi)))
                snr[ni, vi] *= np.exp(noise.jitter
                                      * rng.standard_normal(replicates))

    n_axis, v_axis = np.asarray(n_values), np.asarray(voltages)
    points = []
    for n in n_values:
        # every block of a sensor count listed twice, in sweep order
        cell = n_axis == n
        fit = fit_snr_vs_voltage(n, np.tile(np.repeat(v_axis, replicates),
                                            np.count_nonzero(cell)),
                                 snr[cell].ravel())
        points.append((n, voltage_to_beam_tilt(fit.min_voltage, drive)))
    scaling = fit_scaling_law(points)
    for n in n_values:      # a probe outside the bounds' float range fails by name
        GeneratorMoments.from_probe_spec(probe, z_bar, n)
    return SweepResult(n_axis, v_axis, snr, tuple(points), scaling)
