"""Command-line front end: sweeps, oracle verification and experiment replay.

Every command reads one YAML config (defaults used where absent), writes
machine-readable outputs into --out and echoes the resolved config next to
them.  Runs are deterministic for a fixed (config, seed): CSV floats are
printed in exponent form with 12 digits after the point, JSON keys are
sorted, and the inner products behind the outputs are numpy sums, so their
bits do not depend on the BLAS thread count.  Amplitudes are stored in FFT
order (sample 0 at x = 0), so the grid transforms are plain numpy FFTs.
Each CSV table runs over the product of its key axes and is written one
block of rows at a time (one (N, voltage) cell of the SNR sweep), each
block one %-template with its keys baked in, filled by a single %.  A
non-finite config value is a configuration error, and no NaN or infinity
is written to JSON or CSV.  Exit codes: 0 success, 1 at least one
verification check failed, 2 configuration error, 3 any other toolkit error
(an input outside a numerical regime, such as a kick that overflows the
grid), printed as "error: <ClassName>: <message>".
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import MAX_SENSORS, MAX_SYNTHETIC_SAMPLES, RunConfig
from .errors import ConfigError, CycleSenseError, DomainError
from .fisher import GeneratorMoments
from .grid import make_gaussian, moments
from .network import KickVector
from . import oracle
from .pipeline import (TABLETOP_PRECISION_TABLE, calibrate_noise_floor,
                       end_to_end_sweep, fit_scaling_law, qcrb_comparison)
from .wva import (first_order_momentum_shift, min_detectable_tilt,
                  momentum_readout, qpd_signal, weak_value, wva_final_probe)

#: every float in a CSV file: 12 digits after the point, exponent form
_FLOAT = "%.12e"


def _non_finite(path: Path, column: str) -> DomainError:
    return DomainError(f"{path.name}: non-finite value in column {column}")


def _key_fields(path: Path, column: str, axis: Sequence) -> list[str]:
    """%-template text of one key axis: floats as _FLOAT, anything else by str."""
    if not all(math.isfinite(k) for k in axis if isinstance(k, float)):
        raise _non_finite(path, column)
    return [_FLOAT % k if isinstance(k, float) else str(k).replace("%", "%%")
            for k in axis]


def _write_csv(path: Path, header: Sequence[str], keys: Sequence[Sequence],
               values: Sequence[Sequence[float]]) -> None:
    """Write a table whose rows run over the product of its key axes.

    The first key axis varies slowest.  Each row holds its keys, then one
    entry of each float column in values, whose entries follow the row
    order.  The rows that share all but the last key form one block: one
    %-template with the key fields baked in and _FLOAT per value, filled by
    one % with the block's values interleaved row by row.  Every field is a
    number or an identifier, so none is quoted.  A non-finite float raises
    DomainError naming the file and column before the file is opened.
    """
    *outer, inner = [_key_fields(path, column, axis)
                     for column, axis in zip(header, keys)]
    columns = [np.asarray(v, dtype=float) for v in values]
    for column, col in zip(header[len(keys):], columns):
        if not np.all(np.isfinite(col)):
            raise _non_finite(path, column)
    tails = ["%s,%s\n" % (f, ",".join([_FLOAT] * len(columns))) for f in inner]
    blocks = [col.reshape(-1, len(tails)) for col in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for fields, *cells in zip(itertools.product(*outer), *blocks):
            prefix = "".join(f + "," for f in fields)
            fh.write((prefix + prefix.join(tails))
                     % tuple(np.ravel(cells, order="F").tolist()))


def _write_json(path: Path, payload: dict) -> None:
    # allow_nan=False: a NaN or infinity raises here instead of writing
    # invalid JSON; encoding first leaves no partial file behind
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _prepare_out(cfg: RunConfig, out: str) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.echo_yaml(out_dir / "config.yaml")
    return out_dir


# -- commands -----------------------------------------------------------------


def cmd_qcrb_sweep(cfg: RunConfig, out: str) -> int:
    out_dir = _prepare_out(cfg, out)
    modes = cfg.switch_modes()
    reports = qcrb_comparison(cfg.n_values, cfg.probe_spec(), cfg.z_bar, modes)
    _write_csv(out_dir / "qcrb_sweep.csv",
               ["n_sensors", "mode", "qcrb", "qcrb_times_N4", "per_shot_precision"],
               (cfg.n_values, [m.value for m in modes]),
               ([r.bound_on_theta_bar for r in reports],
                [r.scaled_bound for r in reports],
                [r.per_shot_precision for r in reports]))
    return 0


def cmd_oracle_verify(cfg: RunConfig, out: str) -> int:
    out_dir = _prepare_out(cfg, out)
    checks = oracle.run_all_checks(cfg.num_points, cfg.oracle_seeds,
                                   cfg.oracle_instances)
    payload = {
        "checks": [dataclasses.asdict(c) for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    _write_json(out_dir / "oracle_report.json", payload)
    for c in checks:
        detail = (c.note if c.rel_error is None
                  else f"rel_error={c.rel_error:.3e} tol={c.tolerance:g}")
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {detail}")
    return 0 if payload["all_passed"] else 1


def cmd_reproduce_experiment(cfg: RunConfig, out: str, source: str) -> int:
    if source == "synthetic" and len(set(cfg.n_values)) < 3:
        raise ConfigError("sweep.n_values: the scaling fit needs at least "
                          "three distinct sensor counts")
    samples = len(cfg.n_values) * len(cfg.voltages) * cfg.replicates
    if source == "synthetic" and samples > MAX_SYNTHETIC_SAMPLES:
        raise ConfigError(f"sweep.replicates: {samples} synthetic samples, above "
                          f"the ceiling of {MAX_SYNTHETIC_SAMPLES}")
    out_dir = _prepare_out(cfg, out)
    probe = cfg.probe_spec()
    ps = cfg.post_selection()
    readout = cfg.readout_model()
    drive = cfg.drive_model()

    if source == "tabletop":
        points = [(n, phi) for n, _, phi in TABLETOP_PRECISION_TABLE]
        fit = fit_scaling_law(points)
        n_col, v_col, phi_col = zip(*TABLETOP_PRECISION_TABLE)
        _write_csv(out_dir / "precision_points.csv",
                   ["n_sensors", "min_voltage_pp", "delta_phi_min"],
                   (n_col,), (v_col, phi_col))
    else:
        floor = calibrate_noise_floor(cfg.geometry, probe.waist_radius, ps,
                                      readout, drive)
        noise = cfg.noise_model(calibrated_floor=floor)
        result = end_to_end_sweep(cfg.n_values, cfg.voltages, cfg.replicates,
                                  probe, ps, readout, drive, noise, cfg.z_bar,
                                  cfg.lead_in, cfg.lead_out, cfg.seed)
        _write_csv(out_dir / "snr_sweep.csv",
                   ["n_sensors", "drive_voltage_pp", "replicate", "snr"],
                   (result.n_values, result.voltages, range(cfg.replicates)),
                   (result.snr,))
        points = list(result.precision_points)
        fit = result.scaling

    _write_json(out_dir / "scaling_fit.json", {
        "source": source,
        "a_rad": fit.a,
        "b": fit.b,
        "r_squared": fit.r_squared,
        "points": [{"n_sensors": int(n), "delta_phi_min_rad": float(d)}
                   for n, d in points],
    })
    n_max = max(int(n) for n, _ in points)
    dense = [1.0 + 0.1 * i for i in range(10 * (n_max - 1) + 1)]
    _write_csv(out_dir / "fitted_curve.csv", ["n_sensors", "delta_phi_min"],
               (dense,), ([fit.predict(n) for n in dense],))
    _write_csv(out_dir / "heisenberg_curve.csv", ["n_sensors", "delta_phi_min"],
               (dense,), ([fit.heisenberg_comparison(n) for n in dense],))
    return 0


def cmd_wva_sim(cfg: RunConfig, out: str, n_sensors: int) -> int:
    if not 1 <= n_sensors <= MAX_SENSORS:
        raise ConfigError(f"--n: need 1 to {MAX_SENSORS} sensors, got {n_sensors}")
    out_dir = _prepare_out(cfg, out)
    probe = cfg.probe_spec()
    ps = cfg.post_selection()
    geom = cfg.geometry(n_sensors)
    grid = cfg.grid(n_sensors)
    psi = make_gaussian(probe, grid)
    kicks = KickVector.uniform(n_sensors, cfg.theta_bar)

    chi, prob = wva_final_probe(psi, geom, kicks, ps, method="exact_grid")
    mean_exact, spread_exact = momentum_readout(chi, cfg.readout_model(),
                                                probe.wave_number)
    payload = {
        "n_sensors": n_sensors,
        "theta_bar": cfg.theta_bar,
        "phi_bar": cfg.theta_bar / probe.wave_number,
        "weak_value_imag": weak_value(ps).imag,
        "success_probability": prob,
        "success_probability_no_signal": math.sin(ps.epsilon) ** 2,
        "mean_momentum_exact": moments(chi).mean_p,
        "predicted_momentum_shift": first_order_momentum_shift(
            geom, probe.delta_p**2, ps, cfg.theta_bar),
        "detector_mean": mean_exact,
        "detector_spread": spread_exact,
    }
    try:
        chi_lin, prob_lin = wva_final_probe(psi, geom, kicks, ps,
                                            method="first_order")
        payload["mean_momentum_first_order"] = moments(chi_lin).mean_p
        payload["success_probability_first_order"] = prob_lin
    except CycleSenseError as exc:
        payload["first_order_skipped"] = f"{type(exc).__name__}: {exc}"
    theta_min, phi_min = min_detectable_tilt(geom, probe.delta_p, ps)
    payload["min_detectable_theta_bar"] = theta_min
    payload["min_detectable_phi_bar"] = phi_min
    i_delta, v_delta = qpd_signal(cfg.theta_bar / probe.wave_number, geom,
                                  probe.waist_radius, ps, cfg.readout_model())
    payload["qpd_differential_power_w"] = i_delta
    payload["qpd_voltage_v"] = v_delta
    gm = GeneratorMoments.from_moments(moments(psi), probe.wave_number,
                                       geom.z_bar, n_sensors)
    payload["probe_moments"] = {"var_x": gm.var_x, "var_p": gm.var_p,
                                "cov_xp": gm.cov_xp, "mean_p": gm.mean_p}
    _write_json(out_dir / "wva_sim.json", payload)
    return 0


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclesense",
        description="Cyclic sensing-network toolkit: precision bounds, "
                    "grid simulation and experiment-analysis replay.")
    parser.add_argument("--config", default=None, help="YAML config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("qcrb-sweep", help="closed-form bound table over N and mode")
    sub.add_parser("oracle-verify", help="run every analytic-vs-oracle check")
    p_rep = sub.add_parser("reproduce-experiment",
                           help="SNR sweep, threshold extraction and scaling fit")
    p_rep.add_argument("--source", choices=("synthetic", "tabletop"),
                       default="synthetic",
                       help="generate data from the forward model or reuse the "
                            "embedded tabletop table")
    p_sim = sub.add_parser("wva-sim", help="single-point readout chain dump")
    p_sim.add_argument("--n", type=int, default=3, help="number of sensors")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_yaml(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.validate()
        if args.command == "qcrb-sweep":
            return cmd_qcrb_sweep(cfg, args.out)
        if args.command == "oracle-verify":
            return cmd_oracle_verify(cfg, args.out)
        if args.command == "reproduce-experiment":
            return cmd_reproduce_experiment(cfg, args.out, args.source)
        if args.command == "wva-sim":
            return cmd_wva_sim(cfg, args.out, args.n)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CycleSenseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
