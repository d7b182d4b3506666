"""Command-line front end: sweeps, oracle verification and experiment replay.

Every command reads one YAML config (defaults used where absent), writes
machine-readable outputs into --out and echoes the resolved config next to
them.  Runs are deterministic for a fixed (config, seed): CSV floats are
printed in exponent form with 12 digits after the point, JSON keys are
sorted, and the inner products behind the outputs are numpy sums, so their
bits do not depend on the BLAS thread count.  Amplitudes are stored in FFT
order (sample 0 at x = 0), so the grid transforms are plain numpy FFTs.
Each CSV table runs over the product of its key axes and is written a
fixed number of rows at a time, so no table is held whole: numpy builds
each chunk as fixed-width byte rows, its floats printed byte for byte as
"%.12e" prints them, and only the few floats off the numpy kernel's exact
path (zero, a far exponent, a tie after scaling) take a Python %.  A
non-finite config value is a configuration error, and no NaN or infinity
is written to JSON or CSV.  Exit codes: 0 success, 1 at least one
verification check failed, 2 configuration error, 3 any other toolkit error
(an input outside a numerical regime, such as a kick that overflows the
grid), printed as "error: <ClassName>: <message>".
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
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
from .pipeline import (TABLETOP_PRECISION_TABLE, _times_n4, calibrate_noise_floor,
                       end_to_end_sweep, fit_scaling_law, qcrb_comparison)
from .wva import (first_order_momentum_shift, min_detectable_tilt,
                  momentum_readout, qpd_signal, weak_value, wva_final_probe)

#: every float in a CSV file: 12 digits after the point, exponent form
_FLOAT = "%.12e"
#: bytes of one float field, NUL-padded: "-d.dddddddddddde-ddd" at most
_FLOAT_WIDTH = 20
#: rows formatted per chunk; the writer's buffers hold this many rows, never
#: the whole table
_CHUNK_ROWS = 4096

# Tables of the float kernel: 10^k for k = 0..22 (each an exact double),
# then each 4-byte text read as one uint32: the four ASCII digits of
# 0..9999, and "e+dd", the exponent 12 - k of a value scaled by 10^k.
_POW10 = np.array([float(10**k) for k in range(23)])
_DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
                                + np.uint8(ord("0"))).view(np.uint32).ravel()
_EXPONENTS = np.array([b"e%+03d" % (12 - k) for k in range(23)]).view(np.uint32)


def _format_floats(x: np.ndarray, out: np.ndarray) -> None:
    """Write _FLOAT % v of each finite v in x into its row of out, NUL-padded.

    out holds _FLOAT_WIDTH bytes per row, its last axis contiguous.  For
    |v| > 0 take e = floor(log10 |v|) and k = 12 - e.  For k in 0..22, 10^k
    is an exact double, so y = |v| 10^k is the true product t rounded once
    to nearest.  Below 2^44 every half-integer is a double, and rounding is
    monotonic, so a y that is not a half-integer lies strictly between the
    same two half-integers as t: rint(y) is then the correctly rounded
    13-digit mantissa of t.  It is kept where 10^12 <= y and rint(y) < 10^13;
    a t just below 10^12 rounds to 10^13 units of the exponent below, which
    prints the same.  Its digits come from exact integer divisions into
    4-digit groups.  Every other value (zero, |v| outside 1e-10..1e13, a y
    on a half-integer, a misjudged e) goes through _FLOAT % v.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore"):              # log10(0) = -inf
        k = 12.0 - np.floor(np.log10(a))
    ok = (k >= 0) & (k <= 22)
    k = np.where(ok, k, 0).astype(np.intp)
    y = a * _POW10[k]
    m = np.rint(y)
    ok &= (y >= 1e12) & (m < 1e13) & (y - np.floor(y) != 0.5)
    m = np.where(ok, m, 1e12).astype(np.int64)
    words = out[:, 3:19].view(np.uint32)
    for i in (2, 1, 0):
        q = m // 10_000
        words[:, i] = _DIGITS4[m - q * 10_000]
        m = q
    words[:, 3] = _EXPONENTS[k]
    out[:, 0] = np.where(x < 0, ord("-"), 0)
    out[:, 1] = m + ord("0")
    out[:, 2] = ord(".")
    out[:, 19:] = 0
    rest = np.flatnonzero(~ok)
    if rest.size:
        text = [_FLOAT % v for v in x[rest].tolist()]
        out[rest] = np.array(text, dtype=f"S{_FLOAT_WIDTH}").view(np.uint8).reshape(
            -1, _FLOAT_WIDTH)


def _non_finite(path: Path, column: str) -> DomainError:
    return DomainError(f"{path.name}: non-finite value in column {column}")


def _key_table(path: Path, column: str, axis: Sequence) -> np.ndarray:
    """Text of one key axis as NUL-padded bytes: floats as _FLOAT, anything
    else by str."""
    if not all(math.isfinite(k) for k in axis if isinstance(k, float)):
        raise _non_finite(path, column)
    return np.array([(_FLOAT % k if isinstance(k, float) else str(k)).encode()
                     for k in axis], dtype=bytes)


def _write_csv(path: Path, header: Sequence[str], keys: Sequence[Sequence],
               values: Sequence[Sequence[float]]) -> None:
    """Write a table whose rows run over the product of its key axes.

    The first key axis varies slowest.  Each row holds its keys, then one
    entry of each float column in values, whose entries follow the row
    order.  Rows are built _CHUNK_ROWS at a time in one byte buffer of
    fixed-width fields, whose separators are set once: key fields gathered
    from per-axis tables, floats written by _format_floats.  The NUL padding
    is dropped on write.  Every field is a number or an identifier, so none
    is quoted.  A non-finite float, or a column whose length is not the row
    count, raises DomainError naming the file and column before the file is
    opened.
    """
    tables = [_key_table(path, column, axis) for column, axis in zip(header, keys)]
    n_rows = math.prod(len(t) for t in tables)
    columns = [np.asarray(v, dtype=float).ravel() for v in values]
    for column, col in zip(header[len(keys):], columns):
        if col.size != n_rows:
            raise DomainError(f"{path.name}: column {column} has {col.size} "
                              f"values for {n_rows} rows")
        if not np.all(np.isfinite(col)):
            raise _non_finite(path, column)
    widths = [t.itemsize for t in tables] + [_FLOAT_WIDTH] * len(columns)
    ends = np.cumsum(np.add(widths, 1))             # each past its separator
    text = np.zeros((min(n_rows, _CHUNK_ROWS), ends[-1]), dtype=np.uint8)
    text[:, ends - 1] = ord(",")
    text[:, -1] = ord("\n")
    fields = [text[:, end - 1 - width:end - 1] for end, width in zip(ends, widths)]
    key_fields = [f.view(t.dtype)[:, 0] for f, t in zip(fields, tables)]
    strides = np.cumprod([1] + [len(t) for t in tables[:0:-1]])[::-1]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n_rows, _CHUNK_ROWS):
            n = min(_CHUNK_ROWS, n_rows - start)
            rows = np.arange(start, start + n)
            for table, stride, field in zip(tables, strides, key_fields):
                field[:n] = table[rows // stride % len(table)]
            for col, field in zip(columns, fields[len(tables):]):
                _format_floats(col[start:start + n], field[:n])
            fh.write(text[:n].tobytes().translate(None, b"\0"))


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
    bounds = qcrb_comparison(cfg.n_values, cfg.probe_spec(), cfg.z_bar, modes)
    _write_csv(out_dir / "qcrb_sweep.csv",
               ["n_sensors", "mode", "qcrb", "qcrb_times_N4", "per_shot_precision"],
               (cfg.n_values, [m.value for m in modes]),
               (bounds, _times_n4(bounds, cfg.n_values), np.sqrt(bounds)))
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

    if source == "tabletop":
        points = [(n, phi) for n, _, phi in TABLETOP_PRECISION_TABLE]
        fit = fit_scaling_law(points)
        n_col, v_col, phi_col = zip(*TABLETOP_PRECISION_TABLE)
        _write_csv(out_dir / "precision_points.csv",
                   ["n_sensors", "min_voltage_pp", "delta_phi_min"],
                   (n_col,), (v_col, phi_col))
    else:
        drive = cfg.drive_model()       # only the forward model reads the drive
        floor = calibrate_noise_floor(cfg.geometry, probe.waist_radius, ps,
                                      readout, drive)
        noise = cfg.noise_model(calibrated_floor=floor)
        result = end_to_end_sweep(cfg.n_values, cfg.voltages, cfg.replicates,
                                  probe, ps, readout, drive, noise, cfg.z_bar,
                                  cfg.lead_in, cfg.seed)
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

def _keep_freed_memory() -> None:
    """Keep the FFT scratch memory that glibc would return to the kernel.

    Every numpy FFT of 2^14 points mallocs ~384 KB of scratch and frees it.
    By default glibc serves that from mmap or trims it off the heap top, and
    the next transform faults those pages back in.  Both thresholds are
    needed: a high mmap threshold alone still trims, a high trim threshold
    alone still maps.  Only the CLI process sets them.  Where the C library
    has no mallopt, this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD, at glibc's 64-bit ceiling
    mallopt(-1, 128 << 20)      # M_TRIM_THRESHOLD


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
    _keep_freed_memory()
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
