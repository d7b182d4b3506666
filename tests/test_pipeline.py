import dataclasses
import itertools
import math
import platform
import warnings

import numpy as np
import pytest

from cyclesense import (DomainError, FitError, GeneratorMoments, NetworkGeometry,
                        NoiseModel,
                        PostSelection, ProbeSpec, ReadoutModel, SensorDriveModel,
                        SwitchMode, TABLETOP_PRECISION_TABLE,
                        calibrate_noise_floor, end_to_end_sweep, fit_scaling_law,
                        fit_snr_vs_voltage, probe_alone_qfi_at_origin,
                        qcrb_comparison, qcrb_global, snr_model,
                        voltage_to_beam_tilt)
from cyclesense import pipeline
from cyclesense.fisher import QFIM_CLOSED_FORMS

LAB_WAVE_NUMBER = 2.0 * math.pi / 780e-9

#: the bound table at N = 1..2000, all four columns: elementwise closed
#: forms, which no BLAS kernel may round differently
KERNEL_PROBE = """
import math
from cyclesense import ProbeSpec, qcrb_comparison
rows = qcrb_comparison(range(1, 2001), ProbeSpec(2e-3, 2 * math.pi / 780e-9), 0.2)
print(repr(rows.tolist()))
"""

#: both replays' fit outputs and the tabletop fit's oracle readings: numpy
#: sums, not BLAS calls, so every kernel rounds them alike
REPLAY_PROBE = """
import contextlib, hashlib, io, pathlib, tempfile
from cyclesense import oracle
from cyclesense.cli import main
lines = [repr(c) for c in oracle.check_tabletop_fit()]
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    for source in ("tabletop", "synthetic"):
        out = pathlib.Path(tmp, source)
        assert main(["--out", str(out), "reproduce-experiment", "--source", source]) == 0
        for name in ("scaling_fit.json", "fitted_curve.csv", "heisenberg_curve.csv"):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            lines.append(f"{source} {name} {digest}")
print("\\n".join(lines))
"""

#: largest relative distance of the closed-form table from qcrb_global's
#: eigen projection of the closed-form matrices (1.0e-15 measured, N = 1..2000)
EIGEN_ROUTE_REL = 2e-15

DRIVE = SensorDriveModel()
PS = PostSelection.from_weak_value_magnitude(7.0)
READOUT = ReadoutModel(0.25, 1e4, 0.2e-3)
PROBE = ProbeSpec(2e-3, LAB_WAVE_NUMBER)


def lab_geom(n):
    return NetworkGeometry.uniform(n, 0.2, lead_in=0.325,
                                   wave_number=LAB_WAVE_NUMBER)


def samples(result):
    """(n_sensors, drive_voltage_pp, replicate, snr) of every sweep reading."""
    keys = itertools.product(result.n_values.tolist(), result.voltages.tolist(),
                             range(result.snr.shape[2]))
    return [(*k, s) for k, s in zip(keys, result.snr.ravel().tolist(), strict=True)]


def sweeps_equal(a, b) -> bool:
    """Field-by-field equality of two SweepResults, columns compared exactly."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        same = np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        if not same:
            return False
    return True


class TestDriveModel:
    def test_one_volt_reference(self):
        # 22 nm/V chips, 20 mm apart, antiphase, angle doubled on reflection
        assert voltage_to_beam_tilt(1.0, DRIVE) == pytest.approx(2.2e-6, rel=1e-12)

    def test_five_millivolt_reference(self):
        assert voltage_to_beam_tilt(5e-3, DRIVE) == pytest.approx(11e-9, rel=1e-12)

    def test_zero_and_negative(self):
        assert voltage_to_beam_tilt(0.0, DRIVE) == 0.0
        with pytest.raises(ValueError):
            voltage_to_beam_tilt(-1.0, DRIVE)

    def test_table_rows_follow_the_conversion(self):
        # the recorded thresholds are voltage rows times 2.2 microrad/V
        for n, v_min, phi_min in TABLETOP_PRECISION_TABLE:
            assert voltage_to_beam_tilt(v_min, DRIVE) == pytest.approx(
                phi_min, rel=1e-3)


class TestSnrModel:
    NOISE = NoiseModel(1e-3)

    def test_zero_tilt_zero_snr(self):
        assert snr_model(0.0, lab_geom(2), 2e-3, PS, READOUT, self.NOISE) == 0.0

    def test_sensor_count_ratio_without_lead_in(self):
        # bracket ratio (4+2)/(1+1) = 3 for two versus one sensor
        g1 = NetworkGeometry.uniform(1, 0.2, wave_number=LAB_WAVE_NUMBER)
        g2 = NetworkGeometry.uniform(2, 0.2, wave_number=LAB_WAVE_NUMBER)
        s1 = snr_model(1e-9, g1, 2e-3, PS, READOUT, self.NOISE)
        s2 = snr_model(1e-9, g2, 2e-3, PS, READOUT, self.NOISE)
        assert s2 / s1 == pytest.approx(3.0, rel=1e-12)

    def test_linear_in_voltage(self):
        phis = [voltage_to_beam_tilt(v, DRIVE) for v in (1e-3, 2e-3, 5e-3)]
        snrs = [snr_model(p, lab_geom(3), 2e-3, PS, READOUT, self.NOISE)
                for p in phis]
        assert snrs[1] == pytest.approx(2 * snrs[0], rel=1e-12)
        assert snrs[2] == pytest.approx(5 * snrs[0], rel=1e-12)


class TestSnrLineFit:
    def test_recovers_noiseless_slope_exactly(self):
        slope = 1234.5
        volts = [1e-3, 2e-3, 5e-3, 1e-2]
        v_min = fit_snr_vs_voltage(3, volts, [slope * v for v in volts])
        assert v_min == pytest.approx(1.0 / slope, rel=1e-10)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(FitError, match="no samples"):
            fit_snr_vs_voltage(1, [], [])
        with pytest.raises(FitError, match="distinct drive voltages"):
            fit_snr_vs_voltage(1, [1e-3, 1e-3], [1.0, 2.0])
        with pytest.raises(FitError, match="all SNR values are zero"):
            fit_snr_vs_voltage(1, [1e-3, 2e-3], [0.0, 0.0])
        with pytest.raises(FitError, match="non-negative"):
            fit_snr_vs_voltage(1, [1e-3, 2e-3], [1.0, -2.0])
        with pytest.raises(FitError, match="paired"):
            fit_snr_vs_voltage(1, [1e-3, 2e-3], [1.0, 2.0, 3.0])

    def test_out_of_range_fails_by_name_without_warnings(self):
        # v . v overflows: the fit fails before numpy can warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="float range"):
                fit_snr_vs_voltage(1, [1e300, 2e300], [1.0, 2.0])

    def test_calibrated_floor_reproduces_reference_row(self):
        # with the floor anchored at the first table row, the fitted
        # threshold voltage and tilt land back on that row
        floor = calibrate_noise_floor(lab_geom, 2e-3, PS, READOUT, DRIVE)
        noise = NoiseModel(floor)
        volts = [1e-3, 2e-3, 5e-3, 1e-2]
        snrs = [snr_model(voltage_to_beam_tilt(v, DRIVE), lab_geom(1), 2e-3, PS,
                          READOUT, noise) for v in volts]
        v_min = fit_snr_vs_voltage(1, volts, snrs)
        assert v_min == pytest.approx(382.6e-6, rel=1e-10)
        assert voltage_to_beam_tilt(v_min, DRIVE) == pytest.approx(
            841.72e-12, rel=1e-4)

    @pytest.mark.parametrize("n,v_min,phi_min", [
        (1, 382.6e-6, 841.8e-12),
        (9, 18.1e-6, 39.8e-12),
    ])
    def test_threshold_rows_recovered_from_their_lines(self, n, v_min, phi_min):
        # SNR lines crossing 1 at the recorded voltages convert back to the
        # recorded tilts through the drive chain
        volts = [1e-3, 2e-3, 5e-3, 1e-2]
        fitted = fit_snr_vs_voltage(n, volts, [v / v_min for v in volts])
        assert fitted == pytest.approx(v_min, rel=1e-10)
        assert voltage_to_beam_tilt(fitted, DRIVE) == pytest.approx(
            phi_min, rel=1e-3)


class TestScalingLaw:
    def test_recovers_own_model_exactly(self):
        pts = [(n, 5.0 / (n**2 + 3.0 * n)) for n in range(1, 10)]
        fit = fit_scaling_law(pts)
        assert fit.a == pytest.approx(5.0, rel=1e-9)
        assert fit.b == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)

    def test_tabletop_table(self):
        fit = fit_scaling_law([(n, phi) for n, _, phi in TABLETOP_PRECISION_TABLE])
        assert fit.a == pytest.approx(4.77e-9, rel=0.03)
        assert fit.b == pytest.approx(4.25, rel=0.05)
        assert fit.r_squared >= 0.985

    def test_heisenberg_comparison_curve(self):
        fit = fit_scaling_law([(n, 5.0 / (n**2 + 3.0 * n)) for n in range(1, 8)])
        assert fit.heisenberg_comparison(4.0) == pytest.approx(5.0 / (1 + 12.0))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(FitError):
            fit_scaling_law([(1, 1.0), (2, 0.5)])
        with pytest.raises(FitError):
            fit_scaling_law([(1, 1.0), (2, 0.5), (3, -0.1)])

    def test_out_of_range_fails_by_name_without_warnings(self):
        # an exact law at 1e300 rad: the squared spread of the tilts overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="float range"):
                fit_scaling_law([(n, 1e300 / (n**2 + 3.0 * n)) for n in range(1, 5)])

    def test_tilts_without_spread_rejected(self):
        # equal tilts cannot give a positive N^2 coefficient
        with pytest.raises(FitError, match="quadratic coefficient"):
            fit_scaling_law([(n, 2e-9) for n in range(1, 5)])
        # an exact law at 1e-170 rad fits, but the squared spread of the
        # tilts underflows to 0, which leaves R^2 undefined
        with pytest.raises(FitError, match="no spread"):
            fit_scaling_law([(n, 1e-170 / (n**2 + 3.0 * n)) for n in range(1, 5)])


class TestEndToEndSweep:
    KW = dict(probe=PROBE, ps=PS, readout=READOUT, drive=DRIVE,
              z_bar=0.2, lead_in=0.325, seed=7)
    N_VALUES = list(range(1, 6))
    VOLTAGES = [i * 1e-3 for i in range(1, 6)]

    def floor(self):
        return calibrate_noise_floor(lab_geom, PROBE.waist_radius, PS, READOUT,
                                     DRIVE)

    def run(self, jitter, replicates=3, seed=7):
        kw = dict(self.KW)
        kw["seed"] = seed
        return end_to_end_sweep(self.N_VALUES, self.VOLTAGES, replicates,
                                noise=NoiseModel(self.floor(), jitter), **kw)

    def test_zero_jitter_closes_the_loop(self):
        # the analysis chain run on its own forward model recovers the
        # lead-in coefficient and fits perfectly
        result = self.run(jitter=0.0, replicates=1)
        assert result.scaling.r_squared == pytest.approx(1.0, abs=1e-9)
        assert result.scaling.b == pytest.approx(1 + 2 * 0.325 / 0.2, rel=1e-6)

    def test_deterministic_given_seed(self):
        a = self.run(jitter=0.05)
        b = self.run(jitter=0.05)
        assert sweeps_equal(a, b)
        c = self.run(jitter=0.05, seed=8)
        assert not sweeps_equal(c, a)

    def test_cells_follow_their_scalar_streams(self):
        # the per-cell stream contract, bit for bit: each (N, voltage) cell
        # is its base SNR times one log-normal factor per replicate, drawn
        # one at a time from the stream spawned from (seed, N, voltage index)
        jitter, seed, replicates = 0.05, 7, 4
        result = self.run(jitter=jitter, replicates=replicates, seed=seed)
        noise = NoiseModel(self.floor(), jitter)
        expected = []
        for n in self.N_VALUES:
            for vi, v in enumerate(self.VOLTAGES):
                base = snr_model(voltage_to_beam_tilt(v, DRIVE), lab_geom(n),
                                 PROBE.waist_radius, PS, READOUT, noise)
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(n, vi)))
                for r in range(replicates):
                    factor = float(np.exp(jitter * rng.standard_normal()))
                    expected.append((n, v, r, base * factor))
        assert samples(result) == expected

    def test_snr_monotonicity(self):
        result = self.run(jitter=0.0, replicates=1)
        by_cell = {(n, v): s for n, v, _, s in samples(result)}
        voltages = sorted({v for _, v, _, _ in samples(result)})
        for v in voltages:
            col = [by_cell[(n, v)] for n in range(1, 6)]
            assert all(b > a for a, b in zip(col, col[1:]))
        for n in range(1, 6):
            row = [by_cell[(n, v)] for v in voltages]
            assert all(b > a for a, b in zip(row, row[1:]))

    def test_noise_model_independent_of_sensor_count(self):
        # the jitter distribution is the same for every N (reproducible
        # per-cell streams, one shared width), and with jitter off the
        # jitter factors are exactly 1 everywhere
        result = self.run(jitter=0.05, replicates=50)
        base = self.run(jitter=0.0, replicates=50)
        base_map = {(n, v, r): s for n, v, r, s in samples(base)}
        log_factors = {}
        for n, v, r, s in samples(result):
            log_factors.setdefault(n, []).append(math.log(s / base_map[(n, v, r)]))
        stds = {n: float(np.std(v)) for n, v in log_factors.items()}
        for n, std in stds.items():
            assert std == pytest.approx(0.05, rel=0.35), (n, std)
        noise = NoiseModel(self.floor(), 0.0)
        model = {(n, v): snr_model(voltage_to_beam_tilt(v, DRIVE), lab_geom(n),
                                   PROBE.waist_radius, PS, READOUT, noise)
                 for n in self.N_VALUES for v in self.VOLTAGES}
        for n, v, r, s in samples(base):
            assert s == model[(n, v)], (n, v, r)

    def test_repeated_count_fits_all_of_its_blocks(self, monkeypatch):
        # a sensor count listed twice is fitted once per listing, each time
        # over every one of its blocks in sweep order
        fits = []
        fit = pipeline.fit_snr_vs_voltage

        def recording(*args):
            fits.append(args)
            return fit(*args)
        monkeypatch.setattr(pipeline, "fit_snr_vs_voltage", recording)
        n_values = [1, 2, 2, 3]
        result = end_to_end_sweep(n_values, self.VOLTAGES, 3,
                                  noise=NoiseModel(self.floor(), 0.05), **self.KW)
        assert result.snr.shape == (4, 5, 3)
        assert [args[0] for args in fits] == n_values
        for (n, volts, snrs), (n_point, phi) in zip(fits, result.precision_points):
            cells = [(v, s) for m, v, _, s in samples(result) if m == n]
            assert n_point == n
            assert list(zip(volts.tolist(), snrs.tolist())) == cells
            assert phi == voltage_to_beam_tilt(
                fit_snr_vs_voltage(n, *zip(*cells)), DRIVE)


class TestFullScaleSweep:
    def test_default_sweep_mirrors_the_rig(self):
        # nine sensor counts, 1..10 mV in 1 mV steps, 100 replicates
        floor = calibrate_noise_floor(lab_geom, PROBE.waist_radius, PS, READOUT,
                                      DRIVE)
        result = end_to_end_sweep(list(range(1, 10)),
                                  [i * 1e-3 for i in range(1, 11)], 100,
                                  PROBE, PS, READOUT, DRIVE,
                                  NoiseModel(floor, 0.05), 0.2, lead_in=0.325,
                                  seed=0)
        assert result.snr.shape == (9, 10, 100)
        assert result.scaling.b == pytest.approx(4.25, rel=0.1)
        assert result.scaling.r_squared > 0.99


class TestQcrbComparison:
    def test_row_count_and_modes(self):
        # one row per sensor count, one column per mode
        bounds = qcrb_comparison(range(1, 51), PROBE, 0.2)
        assert bounds.shape == (50, 4) and bounds.dtype == np.float64
        assert bounds.size == len(list(itertools.product(range(1, 51), SwitchMode)))

    @pytest.mark.parametrize("modes", [tuple(SwitchMode), (
        SwitchMode.PROBE_ALONE, SwitchMode.CLASSICAL_SWITCH, SwitchMode.SEQUENTIAL)],
        ids=["default", "probe-alone-first"])
    def test_rows_match_the_projected_matrices(self, modes):
        # each column is its own closed form, in itertools.product(n_values,
        # modes) order: the probe-alone column is probe_alone_qfi_at_origin bit
        # for bit, the others agree with qcrb_global's eigen projection of the
        # mode's closed-form matrix; the CSV's N^4 column on float squares and
        # its per-shot precision are the table's own bounds, exactly
        bounds = qcrb_comparison(range(1, 2001), PROBE, 0.2, modes)
        nf = np.arange(1, 2001, dtype=float)[:, None]
        scaled = bounds * ((nf * nf) * (nf * nf))
        rows = zip(bounds.ravel().tolist(), scaled.ravel().tolist(),
                   np.sqrt(bounds).ravel().tolist())
        for (bound, n4, shot), (n, mode) in zip(
                rows, itertools.product(range(1, 2001), modes), strict=True):
            gm = GeneratorMoments.from_probe_spec(PROBE, 0.2, n)
            if mode == SwitchMode.PROBE_ALONE:
                assert bound == probe_alone_qfi_at_origin(gm)
            else:
                ref = qcrb_global(QFIM_CLOSED_FORMS[mode](gm), n, 0.2)
                assert abs(bound - ref) <= EIGEN_ROUTE_REL * ref, (n, mode)
            assert (n4, shot) == (bound * n**4, float(np.sqrt(bound)))

    @pytest.mark.parametrize("z_bar", [0.2, 1e4])
    def test_sequential_column_is_one_over_4_n2_var_x(self, z_bar):
        # with no covariance the fixed-order bound is 1/(4 N^2 Var X) at any
        # path length (2.2e-16 measured at zbar = 0.2 m); at zbar = 1e4 m the
        # eigen projection cuts its small eigenvalue and cannot give it
        n = np.arange(1, 2001)
        seq = qcrb_comparison(n, PROBE, z_bar, [SwitchMode.SEQUENTIAL])[:, 0]
        exact = 1.0 / (4.0 * (n * n) * PROBE.delta_x**2)
        assert np.all(np.abs(seq - exact) <= 1e-15 * exact)

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86-64 kernels")
    def test_bounds_do_not_depend_on_the_blas_kernel(self, run_probe):
        for probe in (KERNEL_PROBE, REPLAY_PROBE):
            seen = [run_probe(probe, OPENBLAS_CORETYPE=coretype)
                    for coretype in (None, "Prescott")]
            assert seen[0] == seen[1]

    def test_probe_alone_equals_classical_rows(self):
        bounds = qcrb_comparison([1, 5, 20], PROBE, 0.2)
        by = dict(zip(itertools.product([1, 5, 20], SwitchMode),
                      bounds.ravel().tolist(), strict=True))
        for n in (1, 5, 20):
            csw = by[(n, SwitchMode.CLASSICAL_SWITCH)]
            assert by[(n, SwitchMode.PROBE_ALONE)] == pytest.approx(csw, rel=1e-12)

    def test_table_names_the_first_bound_out_of_range(self):
        # at zbar = 1e150 the probe-alone bound underflows to 0 from N = 2000
        # on: (N (N+1) zbar)^2 leaves the float range, ((N+1) zbar)^2 does not
        modes = (SwitchMode.QUANTUM_SWITCH, SwitchMode.CLASSICAL_SWITCH,
                 SwitchMode.PROBE_ALONE)
        assert np.all(qcrb_comparison([1, 2, 3], PROBE, 1e150, modes) > 0)
        with pytest.raises(DomainError, match=r"^bound 0 at N = 3000 is not "
                                              r"positive and finite$"):
            qcrb_comparison([1, 3000, 2, 2000], PROBE, 1e150, modes)

    def test_sensor_count_array_fails_like_its_worst_scalar(self):
        # Var X u^2 underflows to 0 at N = 100000 only; the array raises the
        # scalar call's DomainError there, and without a RuntimeWarning
        # (turned into an error by the suite's warning filter)
        def gm(n):
            return GeneratorMoments(1e-318, 1.0, 0.0, 0.0, 1.0, 1.0, n)
        gm(np.array([1, 2, 3]))
        with pytest.raises(DomainError) as scalar:
            gm(100000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as array:
                gm(np.array([1, 100000, 3]))
        assert str(array.value) == str(scalar.value)
        assert "leaves the float range" in str(scalar.value)
