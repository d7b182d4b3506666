import json
import math

import pytest

from cyclesense import ConfigError, RunConfig
from cyclesense.cli import _write_json, main
from cyclesense.config import MAX_GRID_BYTES, MAX_SENSORS, MAX_SYNTHETIC_SAMPLES

QCRB = ["qcrb-sweep"]
SYNTHETIC = ["reproduce-experiment", "--source", "synthetic"]


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

    def test_unknown_section_and_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            RunConfig.from_dict({"lasers": {}})
        with pytest.raises(ConfigError, match="probe.w0"):
            RunConfig.from_dict({"probe": {"w0": 1.0}})

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_yaml("/nonexistent/config.yaml")

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

    def test_regime_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, theta_bar=1e5, num_points=1 << 10)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                     "wva-sim", "--n", "200"]) == 3
        assert capsys.readouterr().err.startswith("error: GridOverflowError: ")

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
        (SYNTHETIC, "probe: {waist_radius: 1.0e-300}", "DomainError"),
        (SYNTHETIC, "probe: {waist_radius: 1.0e+160}", "DomainError"),
        (SYNTHETIC, "probe: {wavelength: 1.0e-300}", "DomainError"),
        (SYNTHETIC, "probe: {wavelength: 1.0e+300}", "DomainError"),
        (SYNTHETIC, "geometry: {z_bar: 1.0e-300}", "FitError"),
        (SYNTHETIC, "geometry: {z_bar: 1.0e+300}", "DomainError"),
        (SYNTHETIC, "drive: {pzt_displacement_per_volt: 1.0e+300}", "FitError"),
        (SYNTHETIC, "sweep: {voltages: [1.0e+300, 2.0e+300]}", "FitError"),
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

    def test_coarse_grid_fails_gracefully(self, tmp_path):
        cfg = write_config(tmp_path, oracle_seeds=2, oracle_instances=1,
                           num_points=1 << 8)
        out = tmp_path / "coarse"
        code = main(["--config", str(cfg), "--out", str(out), "oracle-verify"])
        assert code == 1
        report = json.loads((out / "oracle_report.json").read_text())
        assert not report["all_passed"]
        assert any(not c["passed"] for c in report["checks"])
