import csv
import ctypes
import functools
import io
import itertools
import json
import math
import platform
import sys
import tracemalloc

import numpy as np
import pytest
import yaml

from cyclesense import (ConfigError, DomainError, GridOverflowError, NoiseModel,
                        RunConfig, SensorDriveModel, SwitchMode,
                        TABLETOP_PRECISION_TABLE, WaveFunction, end_to_end_sweep,
                        qfim_numerical, switched_state_family, traverse_sequence,
                        voltage_to_beam_tilt)
from cyclesense import cli, config, network, oracle, pipeline, wva
from cyclesense.cli import _write_csv, _write_json, main
from cyclesense.config import MAX_GRID_BYTES, MAX_SENSORS, MAX_SYNTHETIC_SAMPLES

QCRB = ["qcrb-sweep"]
SYNTHETIC = ["reproduce-experiment", "--source", "synthetic"]
WVA_SIM = ["wva-sim", "--n", "3"]
#: the walk readings of one traversal instance at 2^10 points, uncached
ONE_WALK = functools.partial(oracle._walk_readings, 1, 1 << 10)
TRAVERSAL_CHECKS = ("bch_traversal_fidelity", "composite_exact_phase",
                    "switch_relative_phase")
QFIM_CHECKS = {mode: f"qfim_{mode.value}_vs_finite_difference"
               for mode in oracle.QFIM_CLOSED_FORMS}


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_yaml_round_trip(self, tmp_path):
        cfg = RunConfig(waist_radius=1e-3, n_values=[1, 2], seed=5)
        cfg.echo_yaml(tmp_path / "c.yaml")
        back = RunConfig.from_yaml(tmp_path / "c.yaml")
        assert back == cfg

    @pytest.mark.parametrize("field,value,needle", [
        ("waist_radius", -1.0, "probe.waist_radius"),
        ("num_points", 1000, "grid.num_points"),
        ("replicates", 0, "sweep.replicates"),
        ("n_values", [0], "sweep.n_values"),
        ("voltages", [], "sweep.voltages"),
        ("modes", ["telepathy"], "sweep.modes"),
        ("jitter", -0.1, "noise.jitter"),
    ])
    def test_validation_names_field(self, field, value, needle):
        cfg = RunConfig(**{field: value})
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
            cfg.validate()

    @pytest.mark.parametrize("field,value,needle", [
        ("wavelength", math.inf, "probe.wavelength"),
        ("center_x", math.nan, "probe.center_x"),
        ("lead_in", math.inf, "geometry.lead_in"),
        ("theta_bar", -math.inf, "sweep.theta_bar"),
        ("waist_radius", 10**400, "probe.waist_radius"),
        ("voltages", [1e-3, math.inf], "sweep.voltages"),
        ("n_values", [1, math.nan], "sweep.n_values"),
    ], ids=["wavelength-inf", "center_x-nan", "lead_in-inf", "theta_bar-minus-inf",
            "waist_radius-int-beyond-float", "voltages-inf", "n_values-nan"])
    def test_non_finite_values_named(self, field, value, needle):
        cfg = RunConfig(**{field: value})
        with pytest.raises(ConfigError, match=needle.replace(".", r"\.") + ": "):
            cfg.validate()

    def test_unknown_section_and_field_rejected(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="unknown config section"):
            RunConfig.from_dict({"lasers": {}})
        with pytest.raises(ConfigError, match="probe.w0"):
            RunConfig.from_dict({"probe": {"w0": 1.0}})
        # the former run.trials and geometry.lead_out fields are rejected like
        # any unknown one
        for section, key, value in (("run", "trials", 4), ("geometry", "lead_out", 1.0)):
            with pytest.raises(ConfigError, match=rf"{section}\.{key}: unknown field"):
                RunConfig.from_dict({section: {key: value}})
            path = tmp_path / f"{key}.yaml"
            path.write_text(f"{section}: {{{key}: {value}}}\n")
            assert main(["--config", str(path), "--out", str(tmp_path / "x"),
                         *QCRB]) == 2
            assert f"{section}.{key}: unknown field" in capsys.readouterr().err

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_yaml("/nonexistent/config.yaml")

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="pyyaml without libyaml")
    @pytest.mark.parametrize("overrides", [{}, {"n_values": list(range(1, 2001))}],
                             ids=["default", "n_values-2000"])
    def test_libyaml_and_python_yaml_agree(self, tmp_path, monkeypatch, overrides):
        assert (config._LOADER, config._DUMPER) == (yaml.CSafeLoader, yaml.CSafeDumper)
        cfg = RunConfig(**overrides)
        echoes, loaded, parsed = [], [], []
        for pair in ((yaml.CSafeLoader, yaml.CSafeDumper),
                     (yaml.SafeLoader, yaml.SafeDumper)):
            monkeypatch.setattr(config, "_LOADER", pair[0])
            monkeypatch.setattr(config, "_DUMPER", pair[1])
            path = tmp_path / f"{pair[0].__name__}.yaml"
            cfg.echo_yaml(path)
            echoes.append(path.read_bytes())
            loaded.append(RunConfig.from_yaml(path))
            parsed.append(yaml.load(echoes[0], Loader=pair[0]))
        assert echoes[0] == echoes[1]
        assert parsed[0] == parsed[1] == cfg.to_dict()
        assert loaded[0] == loaded[1] == cfg

    @pytest.mark.parametrize("text", [b"probe: {waist_radius: [1, 2\nsweep: x\n",
                                      b"probe: \xff\xfe\n"],
                             ids=["unclosed-flow", "not-utf-8"])
    def test_invalid_yaml_names_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "broken.yaml"
        path.write_bytes(text)
        assert main(["--config", str(path), "--out", str(tmp_path / "x"),
                     "qcrb-sweep"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config file {path} is not valid YAML: ")
        assert "Traceback" not in err

    def test_schema_and_defaults_are_pinned(self, tmp_path):
        # every section, field and default of the YAML schema; the echo must
        # print them byte for byte, so an int default that became a float
        # fails too
        pinned = {
            "probe": {"waist_radius": 0.002, "wavelength": 7.8e-07,
                      "center_x": 0.0, "center_p": 0.0},
            "geometry": {"z_bar": 0.2, "lead_in": 0.325},
            "post_selection": {"weak_value_magnitude": 7.0},
            "readout": {"focal_length": 0.25, "qpd_gain": 10000.0,
                        "total_power": 0.0002, "position_slope": 0.65},
            "drive": {"pzt_displacement_per_volt": 2.2e-08, "chip_separation": 0.02,
                      "beam_tilt_factor": 2.0},
            "grid": {"num_points": 16384, "padding": 8.0},
            "sweep": {"n_values": [1, 2, 3, 4, 5, 6, 7, 8, 9],
                      "voltages": [0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007,
                                   0.008, 0.009000000000000001, 0.01],
                      "replicates": 100, "theta_bar": 0.02,
                      "modes": ["sequential", "quantum_switch", "classical_switch",
                                "probe_alone"]},
            "noise": {"noise_floor": 0.0, "jitter": 0.05},
            "run": {"seed": 0, "oracle_seeds": 20, "oracle_instances": 10},
        }
        assert RunConfig().to_dict() == pinned
        RunConfig().echo_yaml(tmp_path / "c.yaml")
        assert (tmp_path / "c.yaml").read_text() == yaml.safe_dump(pinned, sort_keys=True)

    def test_wave_number(self):
        assert RunConfig().wave_number == pytest.approx(2 * math.pi / 780e-9)

    def test_component_builders(self):
        cfg = RunConfig()
        assert cfg.probe_spec().waist_radius == 2e-3
        assert cfg.geometry(3).n_sensors == 3
        assert cfg.post_selection().epsilon == pytest.approx(math.atan(1 / 7))
        assert cfg.drive_model().tilt_per_volt == pytest.approx(2.2e-6)
        with pytest.raises(ConfigError):
            cfg.noise_model()   # floor unset and no calibration given


def write_config(tmp_path, **overrides):
    cfg = RunConfig(**overrides)
    path = tmp_path / "config.yaml"
    cfg.echo_yaml(path)
    return path


SMALL_SWEEP = dict(n_values=[1, 2, 3], voltages=[1e-3, 2e-3, 4e-3],
                   replicates=2, jitter=0.0)


class TestCli:
    def test_qcrb_sweep_outputs(self, tmp_path):
        cfg = write_config(tmp_path, n_values=[1, 2])
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "qcrb-sweep"]) == 0
        lines = (out / "qcrb_sweep.csv").read_text().splitlines()
        assert lines[0] == "n_sensors,mode,qcrb,qcrb_times_N4,per_shot_precision"
        assert len(lines) == 1 + 2 * 4
        assert (out / "config.yaml").exists()

    def test_qcrb_sweep_single_n(self, tmp_path):
        cfg = write_config(tmp_path, n_values=[4], modes=["sequential"])
        out = tmp_path / "single"
        assert main(["--config", str(cfg), "--out", str(out), "qcrb-sweep"]) == 0
        assert len((out / "qcrb_sweep.csv").read_text().splitlines()) == 2

    def test_qcrb_sweep_on_a_long_path(self, tmp_path):
        # from (N+1) zbar ~ 1.6e6 m on, the fixed-order matrix's small
        # eigenvalue falls under RANK_TOL of its largest, yet the bound is the
        # finite 1/(4 N^2 Var X) = 1/(N w0)^2
        path = tmp_path / "long.yaml"
        path.write_text("geometry: {z_bar: 1.0e+4}\nsweep: {n_values: [9, 200]}\n")
        out = tmp_path / "long"
        assert main(["--config", str(path), "--out", str(out), *QCRB]) == 0
        rows = [line.split(",") for line
                in (out / "qcrb_sweep.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[2]) for r in rows if r[1] == "sequential"] == [
            ("9", "3.086419753086e+03"), ("200", "6.250000000000e+00")]

    def test_qcrb_sweep_calls_no_eigensolver(self, tmp_path, monkeypatch):
        # every column is a closed form; only qcrb_global, the oracle,
        # eigendecomposes a matrix
        def refuse(*args, **kwargs):
            raise AssertionError("the bound table called np.linalg.eigh")
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        cfg = write_config(tmp_path, n_values=list(range(1, 201)))
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"), *QCRB]) == 0

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, **SMALL_SWEEP)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["--config", str(cfg), "--out", str(out),
                         "reproduce-experiment"]) == 0
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out.iterdir()) if p.is_file()})
        assert outs[0] == outs[1]

    def test_reproduce_synthetic_closes_loop(self, tmp_path):
        cfg = write_config(tmp_path, **SMALL_SWEEP)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out),
                     "reproduce-experiment"]) == 0
        fit = json.loads((out / "scaling_fit.json").read_text())
        assert fit["source"] == "synthetic"
        assert abs(fit["r_squared"] - 1.0) < 1e-9
        rows = (out / "snr_sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 3 * 2
        assert (out / "fitted_curve.csv").exists()
        assert (out / "heisenberg_curve.csv").exists()

    def test_set_noise_floor_scales_every_snr_and_threshold(self, tmp_path):
        # with no jitter each SNR is signal / floor, so doubling a floor that
        # the config sets halves every SNR and doubles every threshold
        snrs, thresholds = [], []
        for floor in (3e-6, 6e-6):
            cfg = write_config(tmp_path, **SMALL_SWEEP, noise_floor=floor)
            out = tmp_path / f"floor{floor}"
            assert main(["--config", str(cfg), "--out", str(out), *SYNTHETIC]) == 0
            with open(out / "snr_sweep.csv", newline="") as fh:
                snrs.append([float(row["snr"]) for row in csv.DictReader(fh)])
            fit = json.loads((out / "scaling_fit.json").read_text())
            thresholds.append([p["delta_phi_min_rad"] for p in fit["points"]])
        assert len(snrs[0]) == 3 * 3 * 2 and len(thresholds[0]) == 3
        np.testing.assert_allclose(snrs[1], np.divide(snrs[0], 2), rtol=1e-12, atol=0)
        np.testing.assert_allclose(thresholds[1], np.multiply(thresholds[0], 2),
                                   rtol=1e-12, atol=0)

    def test_reproduce_tabletop_reference(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "tab"
        assert main(["--config", str(cfg), "--out", str(out),
                     "reproduce-experiment", "--source", "tabletop"]) == 0
        fit = json.loads((out / "scaling_fit.json").read_text())
        assert abs(fit["a_rad"] - 4.77e-9) / 4.77e-9 < 0.03
        assert abs(fit["b"] - 4.25) / 4.25 < 0.05
        assert fit["r_squared"] >= 0.985
        assert len(fit["points"]) == 9

    def test_wva_sim(self, tmp_path):
        cfg = write_config(tmp_path, theta_bar=1.0, num_points=1 << 13)
        out = tmp_path / "sim"
        assert main(["--config", str(cfg), "--out", str(out),
                     "wva-sim", "--n", "2"]) == 0
        payload = json.loads((out / "wva_sim.json").read_text())
        assert payload["n_sensors"] == 2
        assert payload["success_probability"] == pytest.approx(
            math.sin(math.atan(1 / 7)) ** 2, rel=1e-2)
        assert payload["mean_momentum_exact"] == pytest.approx(
            payload["predicted_momentum_shift"], rel=1e-2)

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("sweep:\n  replicates: 0\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "x"),
                     "qcrb-sweep"]) == 2
        assert "sweep.replicates" in capsys.readouterr().err

    @pytest.mark.parametrize("yaml_text,needle", [
        ("probe: {waist_radius: abc}\n", "probe.waist_radius"),
        ("grid: {num_points: 4096.0}\n", "grid.num_points"),
        ("sweep: {n_values: [1, x]}\n", "sweep.n_values"),
    ])
    def test_mistyped_config_exit_code(self, tmp_path, capsys, yaml_text, needle):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml_text)
        assert main(["--config", str(path), "--out", str(tmp_path / "x"),
                     "qcrb-sweep"]) == 2
        assert f"config error: {needle}:" in capsys.readouterr().err

    def test_infinite_wavelength_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "inf.yaml"
        path.write_text("probe: {wavelength: .inf}\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "x"),
                     "wva-sim", "--n", "2"]) == 2
        assert "config error: probe.wavelength: must be finite" in capsys.readouterr().err

    def test_infinite_lead_in_writes_no_nan(self, tmp_path, capsys):
        path = tmp_path / "inf.yaml"
        path.write_text("geometry: {lead_in: .inf}\nsweep: {replicates: 2}\n")
        out = tmp_path / "x"
        assert main(["--config", str(path), "--out", str(out),
                     "reproduce-experiment", "--source", "synthetic"]) == 2
        assert "config error: geometry.lead_in: must be finite" in capsys.readouterr().err
        assert not (out / "scaling_fit.json").exists()

    def test_json_writer_refuses_nan(self, tmp_path):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError):
            _write_json(path, {"a_rad": math.nan})
        assert not path.exists()

    @pytest.mark.parametrize("keys,values,column", [
        (([1, 2], [0, 1]), ([1.0, 2.0, math.nan, 4.0],), "snr"),
        (([1, 2], [0, 1]), (np.array([1.0, 2.0, 3.0, -math.inf]),), "snr"),
        (([1, 2], [1e-3, math.inf]), ([1.0, 2.0, 3.0, 4.0],), "drive_voltage_pp"),
    ], ids=["nan-value", "minus-inf-value", "inf-key"])
    def test_csv_writer_refuses_non_finite(self, tmp_path, keys, values, column):
        path = tmp_path / "bad.csv"
        with pytest.raises(DomainError, match=f"bad.csv: .* column {column}$"):
            _write_csv(path, ["n_sensors", "drive_voltage_pp", "snr"], keys, values)
        assert not path.exists()

    @pytest.mark.parametrize("n_values", [9, 4], ids=["too-many", "too-few"])
    def test_csv_writer_refuses_a_column_of_the_wrong_length(self, tmp_path,
                                                             n_values):
        """6 rows over 2 x 3 keys: a column of another length is named, and
        the file is not opened."""
        path = tmp_path / "bad.csv"
        with pytest.raises(DomainError, match=f"^bad.csv: column snr_sq has "
                                              f"{n_values} values for 6 rows$"):
            _write_csv(path, ["n_sensors", "drive_voltage_pp", "snr", "snr_sq"],
                       ([1, 2], [0, 1, 2]), ([1.0] * 6, [1.0] * n_values))
        assert not path.exists()

    def test_integral_float_sensor_counts_accepted(self, tmp_path):
        path = tmp_path / "float_n.yaml"
        path.write_text("sweep: {n_values: [3.0]}\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "x"),
                     "qcrb-sweep"]) == 0

    def test_integral_float_sensor_counts_reach_the_synthetic_replay(self, tmp_path):
        path = tmp_path / "float_n.yaml"
        path.write_text("sweep: {n_values: [1.0, 2.0, 3.0], replicates: 2}\n")
        assert RunConfig.from_yaml(path).n_values == [1, 2, 3]
        out = tmp_path / "x"
        assert main(["--config", str(path), "--out", str(out),
                     "reproduce-experiment", "--source", "synthetic"]) == 0
        rows = (out / "snr_sweep.csv").read_text().splitlines()[1:]
        assert {r.split(",")[0] for r in rows} == {"1", "2", "3"}

    def test_synthetic_replay_builds_no_bound_table(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the replay built a bound table")
        monkeypatch.setattr(cli, "qcrb_comparison", refuse)
        monkeypatch.setattr(pipeline, "qcrb_comparison", refuse)
        cfg = write_config(tmp_path, n_values=[1, 2, 3], replicates=2)
        out = tmp_path / "x"
        assert main(["--config", str(cfg), "--out", str(out), *SYNTHETIC]) == 0
        assert (out / "scaling_fit.json").exists()

    def test_regime_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, theta_bar=1e5, num_points=1 << 10)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "wva-sim", "--n", "200"]) == 3
        assert capsys.readouterr().err.startswith("error: GridOverflowError: ")

    @pytest.mark.parametrize("center_p,parity_reverse", [(0.0, False), (30.0, True)],
                             ids=["lab-probe", "center_p-30"])
    def test_stacked_traversal_overflow_exit_code(self, tmp_path, capsys, monkeypatch,
                                                  center_p, parity_reverse):
        """The guard of the readout's walk ends wva-sim with exit code 3 on both
        routes: the even lab probe walks the plain orders, a probe with a
        centre momentum the parity-reversed ones."""
        walks = []

        def recording(psi, geom, kicks, **kwargs):
            walks.append(kwargs)
            try:
                return traverse_sequence(psi, geom, kicks, **kwargs)
            except GridOverflowError:
                walks.append("raised")
                raise

        monkeypatch.setattr(wva, "traverse_sequence", recording)
        cfg = write_config(tmp_path, theta_bar=1e5, num_points=1 << 10,
                           center_p=center_p)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "wva-sim", "--n", "200"]) == 3
        assert capsys.readouterr().err.startswith("error: GridOverflowError: ")
        assert walks == [{"parity_reverse": parity_reverse}, "raised"]

    def test_too_few_sensor_counts_for_fit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_values=[2], voltages=[1e-3, 2e-3])
        code = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "reproduce-experiment"])
        assert code == 2
        assert "three distinct sensor counts" in capsys.readouterr().err

    @pytest.mark.parametrize("command,yaml_text,error", [
        (QCRB, "probe: {waist_radius: 1.0e-300}", "DomainError"),
        (QCRB, "probe: {waist_radius: 1.0e+160}", "DomainError"),
        (QCRB, "probe: {wavelength: 1.0e-300}", "DomainError"),
        (QCRB, "probe: {wavelength: 1.0e+300}", "DomainError"),
        (QCRB, "geometry: {z_bar: 1.0e-300}", "DomainError"),
        (QCRB, "geometry: {z_bar: 1.0e+300}", "DomainError"),
        (QCRB, "probe: {center_p: 1.0e+300}", "DomainError"),
        (SYNTHETIC, "probe: {waist_radius: 1.0e-300}", "DomainError"),
        (SYNTHETIC, "probe: {waist_radius: 1.0e+160}", "DomainError"),
        (SYNTHETIC, "probe: {wavelength: 1.0e-300}", "DomainError"),
        (SYNTHETIC, "probe: {wavelength: 1.0e+300}", "DomainError"),
        (SYNTHETIC, "geometry: {z_bar: 1.0e-300}", "FitError"),
        (SYNTHETIC, "geometry: {z_bar: 1.0e+300}", "DomainError"),
        (SYNTHETIC, "probe: {center_p: 1.0e+300}", "DomainError"),
        (SYNTHETIC, "drive: {pzt_displacement_per_volt: 1.0e+300}", "FitError"),
        (SYNTHETIC, "sweep: {voltages: [1.0e+300, 2.0e+300]}", "FitError"),
        (WVA_SIM, "probe: {center_p: 1.0e+10}", "GridError"),
        (WVA_SIM, "probe: {center_x: 1.0e+300}", "GridError"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_extreme_finite_values_exit_3_by_name(self, tmp_path, capsys, command,
                                                  yaml_text, error):
        path = tmp_path / "extreme.yaml"
        path.write_text(yaml_text + "\n")
        out = tmp_path / "x"
        assert main(["--config", str(path), "--out", str(out), *command]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and "Traceback" not in err
        assert not (out / "scaling_fit.json").exists()

    @pytest.mark.parametrize("command,yaml_text,needle", [
        (QCRB, "grid: {num_points: 1099511627776}", "grid.num_points"),
        (SYNTHETIC, "sweep: {n_values: [1, 2, 100000000000000000000]}",
         "sweep.n_values"),
        (SYNTHETIC, "sweep: {n_values: [1, 2, 1000000000]}", "sweep.n_values"),
        (SYNTHETIC, "sweep: {replicates: 1000000000000}", "sweep.replicates"),
        (["wva-sim", "--n", "1000000000"], "run: {seed: 0}", "--n"),
    ], ids=["grid-2^40", "n-1e20", "n-1e9", "samples-1e14", "wva-sim-n-1e9"])
    def test_resource_ceilings_before_allocation(self, tmp_path, capsys, command,
                                                 yaml_text, needle):
        """Only values rejected before any allocation: the ceilings fail by name."""
        path = tmp_path / "huge.yaml"
        path.write_text(yaml_text + "\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "x"),
                     *command]) == 2
        assert f"config error: {needle}: " in capsys.readouterr().err

    def test_resource_ceilings_clear_the_workloads(self):
        # ten times over: 2^14 points, N = 3000 (the companion test of
        # criterion 1) and the 300k-sample synthetic replay
        assert 10 * 16 * (1 << 14) <= MAX_GRID_BYTES
        assert 10 * 3000 <= MAX_SENSORS
        assert 10 * 300_000 <= MAX_SYNTHETIC_SAMPLES

    def test_wva_sim_rejects_zero_sensors(self, tmp_path):
        assert main(["--out", str(tmp_path / "x"), "wva-sim", "--n", "0"]) == 2

    def test_negative_seed_rejected(self, tmp_path):
        assert main(["--out", str(tmp_path / "x"), "--seed", "-3",
                     "qcrb-sweep"]) == 2

    def test_seed_flag_changes_jittered_output(self, tmp_path):
        cfg = write_config(tmp_path, n_values=[1, 2, 3],
                           voltages=[1e-3, 2e-3, 4e-3], replicates=2, jitter=0.05)
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            assert main(["--config", str(cfg), "--out", str(out), "--seed", seed,
                         "reproduce-experiment"]) == 0
            texts.append((out / "snr_sweep.csv").read_text())
        assert texts[0] != texts[1]


def reference_csv(header, rows) -> bytes:
    """CSV text as the standard csv module writes it, floats with 12 digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{x:.12e}" if isinstance(x, float) else x for x in row])
    return buf.getvalue().encode()


def capture(monkeypatch, name):
    """Record every return value of cli.<name> while the CLI runs."""
    seen = []
    func = getattr(cli, name)

    def recording(*args, **kwargs):
        seen.append(func(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(cli, name, recording)
    return seen


class TestCsvBytes:
    """The block-wise CSV writer against the csv module, row by row."""

    @pytest.mark.parametrize("sweep", [
        dict(n_values=[1, 2, 3], voltages=[1e-3, 2.5e-3, 4e-3], replicates=3,
             jitter=0.05),
        dict(n_values=[1, 2, 3], voltages=[1, 2, 3], replicates=2, jitter=0.05),
        dict(n_values=[1, 2, 257, 300], voltages=[1e-3, 2e-3], replicates=260,
             jitter=0.05),
        dict(n_values=[1, 2, 2, 3], voltages=[1e-3, 2e-3, 4e-3], replicates=3,
             jitter=0.05),
    ], ids=["float-voltages", "integer-voltages", "counts-above-256",
            "repeated-count"])
    def test_synthetic_replay_matches_csv_module(self, tmp_path, monkeypatch, sweep):
        sweeps = capture(monkeypatch, "end_to_end_sweep")
        cfg = write_config(tmp_path, **sweep)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), *SYNTHETIC]) == 0
        (result,) = sweeps
        keys = itertools.product(sweep["n_values"], sweep["voltages"],
                                 range(sweep["replicates"]))
        assert (out / "snr_sweep.csv").read_bytes() == reference_csv(
            ["n_sensors", "drive_voltage_pp", "replicate", "snr"],
            [[*k, s] for k, s in zip(keys, result.snr.ravel().tolist(),
                                     strict=True)])
        n_max = max(sweep["n_values"])
        dense = [1.0 + 0.1 * i for i in range(10 * (n_max - 1) + 1)]
        fit = result.scaling
        assert (out / "fitted_curve.csv").read_bytes() == reference_csv(
            ["n_sensors", "delta_phi_min"], [[n, fit.predict(n)] for n in dense])
        assert (out / "heisenberg_curve.csv").read_bytes() == reference_csv(
            ["n_sensors", "delta_phi_min"],
            [[n, fit.heisenberg_comparison(n)] for n in dense])

    def test_integer_voltages_print_as_integers(self, tmp_path):
        path = tmp_path / "int_volts.yaml"
        path.write_text("sweep: {n_values: [1, 2, 3], voltages: [1, 2, 3], "
                        "replicates: 2}\n")
        out = tmp_path / "x"
        assert main(["--config", str(path), "--out", str(out), *SYNTHETIC]) == 0
        rows = (out / "snr_sweep.csv").read_text().splitlines()[1:]
        assert rows[0].startswith("1,1,0,") and rows[1].startswith("1,1,1,")
        assert rows[2].startswith("1,2,0,") and rows[-1].startswith("3,3,1,")

    def test_qcrb_sweep_matches_csv_module(self, tmp_path, monkeypatch):
        # N = 100000 (the ceiling) puts N^4 past the int64 range: the
        # reference takes it on Python ints
        tables = capture(monkeypatch, "qcrb_comparison")
        cfg = write_config(tmp_path, n_values=[1, 2, 300, 100000])
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), *QCRB]) == 0
        (bounds,) = tables
        keys = list(itertools.product([1, 2, 300, 100000], [
            "sequential", "quantum_switch", "classical_switch", "probe_alone"]))
        assert bounds.shape == (4, 4)
        assert (out / "qcrb_sweep.csv").read_bytes() == reference_csv(
            ["n_sensors", "mode", "qcrb", "qcrb_times_N4", "per_shot_precision"],
            [[n, mode, b, b * n**4, float(np.sqrt(b))]
             for (n, mode), b in zip(keys, bounds.ravel().tolist(), strict=True)])

    EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                   2.2250738585072014e-308, 1e-300, -1e300, 1e300,
                   sys.float_info.max, -sys.float_info.max, 0.1, 1.0]
    LABELS = ["100%", "%s", "%(x)d", "%%", "plain"]

    @pytest.mark.parametrize("labels_last", [False, True],
                             ids=["labels-first", "labels-last"])
    def test_edge_floats_and_percent_keys_match_csv_module(self, tmp_path,
                                                           labels_last):
        keys = [self.LABELS, self.EDGE_FLOATS]
        if labels_last:
            keys.reverse()
        rows = [[a, b] for a in keys[0] for b in keys[1]]
        first = [x for x in self.EDGE_FLOATS for _ in self.LABELS]
        values = (first, first[::-1])
        header = ["key0", "key1", "v0", "v1"]
        path = tmp_path / "edge.csv"
        _write_csv(path, header, keys, values)
        assert path.read_bytes() == reference_csv(
            header, [r + [v0, v1] for r, v0, v1 in zip(rows, *values)])

    @staticmethod
    def float_kernel_cases() -> dict[str, np.ndarray]:
        """Derandomized value sets for the float kernel; the test adds the
        negation of each value."""
        rng = np.random.default_rng(20261020)
        bits = rng.integers(0, 1 << 64, 40_000, dtype=np.uint64, endpoint=False)
        raw = bits.view(np.float64)
        raw = np.concatenate([raw[np.isfinite(raw)], [
            0.0, 5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
            1e-100, 9.99e99, 1e100, 1e-300, 1e300, sys.float_info.max]])
        # (M + 1/2) 10^(e - 12): every exponent of the fast path and its edges
        mantissas = rng.integers(10**12, 10**13, 40_000)
        exps = rng.integers(-13, 15, 40_000)
        ties = (mantissas + 0.5) * 10.0 ** (exps - 12)
        tens = 10.0 ** np.arange(-30, 31)
        # 13 nines and a 5: a mantissa that rounds up to 10^13
        nines = 9.9999999999995 * 10.0 ** np.arange(-14, 16)
        return {
            "raw-bits": raw,
            "near-ties": np.concatenate([ties, np.nextafter(ties, np.inf),
                                         np.nextafter(ties, -np.inf)]),
            "powers-of-ten": np.concatenate([tens, np.nextafter(tens, np.inf),
                                             np.nextafter(tens, -np.inf)]),
            "round-up-to-1e13": np.concatenate([nines, np.nextafter(nines, np.inf),
                                                np.nextafter(nines, -np.inf)]),
        }

    @pytest.mark.parametrize("case", ["raw-bits", "near-ties", "powers-of-ten",
                                      "round-up-to-1e13"])
    def test_float_kernel_matches_percent_formatting(self, case):
        x = self.float_kernel_cases()[case]
        x = np.concatenate([x, -x])
        out = np.zeros((x.size, cli._FLOAT_WIDTH), dtype=np.uint8)
        cli._format_floats(x, out)
        got = [r.replace(b"\0", b"").decode()
               for r in out.view(f"S{cli._FLOAT_WIDTH}")[:, 0].tolist()]
        wrong = [(v, g) for v, g in zip(x.tolist(), got) if g != cli._FLOAT % v]
        assert not wrong, f"{len(wrong)} of {x.size} differ, first {wrong[:3]}"

    def test_replay_table_is_written_in_bounded_memory(self, tmp_path):
        """The 300,000-row replay table is 13 MB of text; the writer holds
        one chunk of rows at a time, so its traced peak stays below 4 MB."""
        snr = np.random.default_rng(0).lognormal(3.0, 1.0, (30, 10, 1000))
        keys = (range(1, 31), [i * 1e-3 for i in range(1, 11)], range(1000))
        header = ["n_sensors", "drive_voltage_pp", "replicate", "snr"]
        path = tmp_path / "snr_sweep.csv"
        tracemalloc.start()
        try:
            _write_csv(path, header, keys, (snr,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert path.stat().st_size > 3 * peak

    def test_precision_points_match_csv_module(self, tmp_path):
        out = tmp_path / "tab"
        assert main(["--out", str(out), "reproduce-experiment", "--source",
                     "tabletop"]) == 0
        assert (out / "precision_points.csv").read_bytes() == reference_csv(
            ["n_sensors", "min_voltage_pp", "delta_phi_min"],
            TABLETOP_PRECISION_TABLE)


@pytest.mark.parametrize("yaml_text", [
    "probe: {waist_radius: 1.0e-300}",
    "probe: {wavelength: 1.0e+300}",
    "geometry: {z_bar: 1.0e+300}",
    "geometry: {lead_in: 1.0e+300}",
    "grid: {padding: 1.0e+300}",
])
def test_wva_sim_extreme_grid_values_exit_3(tmp_path, capsys, yaml_text):
    path = tmp_path / "extreme.yaml"
    path.write_text(yaml_text + "\n")
    out = tmp_path / "x"
    assert main(["--config", str(path), "--out", str(out), "wva-sim", "--n", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError: ") and "Traceback" not in err
    assert not (out / "wva_sim.json").exists()


# the sweep checks its sizes before it touches the forward-model arguments
NO_CHAIN = dict(probe=None, ps=None, readout=None, drive=None, noise=None,
                z_bar=0.2)


@pytest.mark.parametrize("call", [
    lambda: voltage_to_beam_tilt(-1.0, SensorDriveModel()),
    lambda: voltage_to_beam_tilt(math.nan, SensorDriveModel()),
    lambda: voltage_to_beam_tilt(math.inf, SensorDriveModel()),
    lambda: SensorDriveModel(chip_separation=0.0).tilt_per_volt,
    lambda: SensorDriveModel(pzt_displacement_per_volt=math.nan),
    lambda: SensorDriveModel(beam_tilt_factor=math.inf),
    lambda: SensorDriveModel(1e300, 1e-300, 2.0),
    lambda: SensorDriveModel(1e-300, 1e300, 2.0),
    lambda: NoiseModel(0.0),
    lambda: NoiseModel(math.inf),
    lambda: NoiseModel(1.0, jitter=-0.1),
    lambda: NoiseModel(1.0, jitter=math.nan),
    lambda: end_to_end_sweep([1, 2, 3], [1e-3], 0, **NO_CHAIN),
    lambda: end_to_end_sweep([], [1e-3], 1, **NO_CHAIN),
], ids=["negative-voltage", "nan-voltage", "inf-voltage", "zero-chip-separation",
        "nan-displacement", "inf-tilt-factor", "tilt-per-volt-overflow",
        "tilt-per-volt-underflow", "zero-noise-floor", "inf-noise-floor",
        "negative-jitter", "nan-jitter", "zero-replicates", "no-sensor-counts"])
def test_pipeline_inputs_out_of_domain(call):
    # DomainError is what the CLI reports with exit code 3
    with pytest.raises(DomainError):
        call()


class TestOracleVerifyCommand:
    def test_default_scale_passes(self, tmp_path):
        cfg = write_config(tmp_path, oracle_seeds=3, oracle_instances=2,
                           num_points=1 << 12)
        out = tmp_path / "oracle"
        code = main(["--config", str(cfg), "--out", str(out), "oracle-verify"])
        report = json.loads((out / "oracle_report.json").read_text())
        assert code == 0, [c for c in report["checks"] if not c["passed"]]
        assert report["all_passed"]
        names = {c["name"] for c in report["checks"]}
        assert "bch_traversal_fidelity" in names
        assert "qfim_quantum_switch_vs_finite_difference" in names

    @pytest.mark.parametrize("deficit", [1e-11, -1e-11], ids=["below-1", "above-1"])
    def test_bch_check_reports_deficits_of_either_sign(self, monkeypatch, deficit):
        # rounding can put the fidelity on either side of 1
        monkeypatch.setattr(oracle, "fidelity", lambda a, b: 1.0 - deficit)
        result = oracle.check_bch_fidelity(1, ONE_WALK)
        assert result.passed
        assert result.oracle == pytest.approx(1e-11, rel=1e-3, abs=0)

    def test_threshold_check_resolves_a_relative_shift_of_1e4(self, monkeypatch):
        # the check measures numerics (4.7e-8 at any grid size): a threshold
        # formula off by one part in 10^4 fails it
        exact = oracle.min_detectable_tilt
        assert oracle.check_threshold_consistency(1 << 10).passed
        monkeypatch.setattr(oracle, "min_detectable_tilt", lambda *args: tuple(
            x * (1.0 + 1e-4) for x in exact(*args)))
        result = oracle.check_threshold_consistency(1 << 10)
        assert not result.passed
        assert result.rel_error == pytest.approx(1e-4, rel=1e-2)

    @pytest.mark.parametrize("num_points,raises", [(1 << 8, False), (1 << 4, True)],
                             ids=["fails-by-value", "fails-by-raising"])
    def test_coarse_grid_fails_gracefully(self, tmp_path, capsys, num_points, raises):
        cfg = write_config(tmp_path, oracle_seeds=2, oracle_instances=1,
                           num_points=num_points)
        out = tmp_path / "coarse"
        code = main(["--config", str(cfg), "--out", str(out), "oracle-verify"])
        assert code == 1
        report = json.loads((out / "oracle_report.json").read_text())
        assert not report["all_passed"]
        failed = [c for c in report["checks"] if not c["passed"]]
        assert failed
        # a failure is either a value over its tolerance or a null entry
        # whose note names the cause
        for c in failed:
            values = [c["analytic"], c["oracle"], c["rel_error"]]
            if values == [None] * 3:
                assert c["note"]
            else:
                assert all(math.isfinite(v) for v in values)
                assert c["rel_error"] > c["tolerance"]
        assert any(c["rel_error"] is None for c in failed) == raises
        assert "Traceback" not in capsys.readouterr().err

    def test_nan_error_fails_its_check(self, monkeypatch):
        # a NaN error must not vanish in the worst-error reduction
        exact = oracle.composite_apply

        def nan_composite(*args, **kwargs):
            return tuple(WaveFunction(chi.grid, np.full_like(chi.amplitudes, np.nan),
                                      chi.representation)
                         for chi in exact(*args, **kwargs))
        monkeypatch.setattr(oracle, "composite_apply", nan_composite)
        monkeypatch.setattr(oracle, "overlap", lambda a, b: complex(math.nan, math.nan))
        for result in (oracle.check_composite_phase(1, ONE_WALK),
                       oracle.check_bch_fidelity(1, ONE_WALK),
                       oracle.check_switch_phase(1, ONE_WALK)):
            assert not result.passed
            assert result.rel_error is None and result.note

    def test_traversal_checks_share_one_walk_per_instance(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return traverse_sequence(*args, **kwargs)
        monkeypatch.setattr(oracle, "traverse_sequence", counted)
        results = oracle.run_all_checks(1 << 10, 3, 1)
        assert len(calls) == 3
        assert all(r.passed for r in results if r.name in TRAVERSAL_CHECKS)

        # a walk that raises is not cached: each check reports it by name
        def overflowing(*args, **kwargs):
            raise GridOverflowError("walk left the grid")
        monkeypatch.setattr(oracle, "traverse_sequence", overflowing)
        results = {r.name: r for r in oracle.run_all_checks(1 << 10, 3, 1)}
        for name in TRAVERSAL_CHECKS:
            r = results[name]
            assert not r.passed
            assert (r.analytic, r.oracle, r.rel_error) == (None, None, None)
            assert r.note.startswith("GridOverflowError: walk left the grid")

    def test_qfim_checks_share_one_stencil_per_instance(self, monkeypatch):
        # 9 builds per instance serve all three modes, not 9 per mode
        calls = []

        def counted(psi, geom, mode):
            build = switched_state_family(psi, geom, mode)
            return lambda g1, g2: calls.append(mode) or build(g1, g2)
        monkeypatch.setattr(oracle, "switched_state_family", counted)
        results = oracle.run_all_checks(1 << 10, 1, 2)
        assert calls == [SwitchMode.QUANTUM_SWITCH] * 18
        assert all(r.passed for r in results if r.name in QFIM_CHECKS.values())

    def test_shared_stencil_reproduces_each_mode_family(self):
        for seed in (5000, 5001):
            geom, psi, g1, g2 = oracle._fisher_instances(np.random.default_rng(seed),
                                                         1 << 10)
            stencil = functools.cache(switched_state_family(
                psi, geom, SwitchMode.QUANTUM_SWITCH))
            for mode in QFIM_CHECKS:
                shared = qfim_numerical(functools.partial(oracle._relabeled, mode,
                                                          stencil), (g1, g2), step=1e-4)
                own = qfim_numerical(switched_state_family(psi, geom, mode),
                                     (g1, g2), step=1e-4)
                assert np.array_equal(shared, own), mode

    def test_a_mode_that_raises_nulls_only_its_own_entry(self, monkeypatch):
        def no_closed_form(gm):
            raise DomainError("no closed form")
        monkeypatch.setitem(oracle.QFIM_CLOSED_FORMS, SwitchMode.CLASSICAL_SWITCH,
                            no_closed_form)
        results = {r.name: r for r in oracle.run_all_checks(1 << 10, 1, 2)}
        for mode, name in QFIM_CHECKS.items():
            r = results[name]
            if mode == SwitchMode.CLASSICAL_SWITCH:
                assert not r.passed
                assert (r.analytic, r.oracle, r.rel_error) == (None, None, None)
                assert r.note == "DomainError: no closed form"
            else:
                assert r.passed and r.rel_error is not None

    def test_a_stencil_that_raises_is_not_cached_and_nulls_every_mode(self, monkeypatch):
        calls = []

        def overflowing(*args):
            calls.append(args)
            raise GridOverflowError("stencil left the grid")
        monkeypatch.setattr(network, "composite_apply", overflowing)
        results = {r.name: r for r in oracle.run_all_checks(1 << 10, 1, 2)}
        assert len(calls) == 6          # each mode tries each instance's build once
        for name in QFIM_CHECKS.values():
            r = results[name]
            assert not r.passed
            assert (r.analytic, r.oracle, r.rel_error) == (None, None, None)
            assert r.note == "GridOverflowError: stencil left the grid"


def _glibc_mallopt() -> bool:
    return (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"
            and hasattr(ctypes.CDLL(None), "mallopt"))


FAULTS_OVER_SECOND_RUN = """
import resource, sys, tempfile
from cyclesense import cli
with tempfile.TemporaryDirectory() as tmp:
    argv = ["--out", tmp, "wva-sim", "--n", "9"]
    assert cli.main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(argv) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _no_libc(name):
    raise OSError("no C library")


class TestAllocator:
    @pytest.mark.skipif(not _glibc_mallopt(),
                        reason="the fault count is a glibc property: needs Linux "
                               "with a glibc that has mallopt")
    def test_second_run_does_not_fault_its_fft_scratch_back_in(self, run_probe):
        # ~5,600 minor faults with glibc's default thresholds, ~10 with main's
        faults = int(run_probe(FAULTS_OVER_SECOND_RUN))
        assert faults < 500

    @pytest.mark.parametrize("libc", [lambda name: object(), _no_libc],
                             ids=["no-mallopt", "no-libc"])
    def test_main_runs_without_mallopt(self, monkeypatch, tmp_path, libc):
        monkeypatch.setattr(cli.ctypes, "CDLL", libc)
        assert main(["--out", str(tmp_path), *WVA_SIM]) == 0
        assert (tmp_path / "wva_sim.json").exists()
