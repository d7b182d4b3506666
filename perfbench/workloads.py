"""The three workloads: their inputs, their commands and their output checks.

Inputs depend only on the workload seed.  Each command is a CLI argv for
cyclesense.cli.main with its own output directory; its check reads only the
files the command wrote, never Python return values, so it survives changes
to the package's internal types.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import yaml

WORKLOADS = ("oracle_verify", "deep_traverse", "analysis_sweep")

ORACLE_CHECKS = frozenset((
    "bch_traversal_fidelity", "composite_exact_phase",
    "composite_scalar_identities", "switch_relative_phase",
    "qfim_sequential_vs_finite_difference",
    "qfim_quantum_switch_vs_finite_difference",
    "qfim_classical_switch_vs_finite_difference",
    "probe_alone_equals_classical_switch", "sequential_bound_times_n2_constant",
    "super_heisenberg_asymptote", "wva_mean_momentum_first_order",
    "detection_threshold_identity", "waveplate_compensation",
    "tabletop_fit_amplitude", "tabletop_fit_linear_coeff",
    "tabletop_fit_r_squared"))

#: wva-sim sensor counts of one deep_traverse pass.
DEEP_LADDER = (9, 50, 200)
#: theta_bar range (1/m) that keeps the first-order guards satisfied at N = 200.
THETA_BAR_RANGE = (0.005, 0.02)
#: default sweep geometry; the synthetic fit must recover b = 1 + 2 lead_in / z_bar.
LEAD_IN, Z_BAR = 0.325, 0.2


@dataclass
class Outcome:
    """Result of one command's output check."""

    ok: bool
    detail: str = ""
    oracle_margin: float = 0.0
    snr_samples: int = 0


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    out_dir: Path
    check: Callable[["Command", object], Outcome]
    sensor_steps: int = 0          # kick-plus-propagation pairs it completes


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    setup: tuple[tuple[str, int], ...]   # (config path, sensor count for its grid)
    #: trace boundaries a pass must reach; a rename that silences one fails
    expected_spans: frozenset[str]

    def output_files(self) -> list[Path]:
        return sorted(p for c in self.commands if c.out_dir.is_dir()
                      for p in c.out_dir.iterdir() if p.is_file())


# -- checks ------------------------------------------------------------------


def _fail(detail: str) -> Outcome:
    return Outcome(False, detail)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_oracle(cmd: Command, rc) -> Outcome:
    if rc != 0:
        return _fail(f"exit {rc}")
    report = json.loads((cmd.out_dir / "oracle_report.json").read_text())
    names = {c["name"] for c in report["checks"]}
    if names != ORACLE_CHECKS:
        return _fail(f"check set differs: missing {sorted(ORACLE_CHECKS - names)}, "
                     f"extra {sorted(names - ORACLE_CHECKS)}")
    if not report["all_passed"]:
        return _fail("all_passed is false")
    margin = max(c["rel_error"] / c["tolerance"]
                 for c in report["checks"] if c["tolerance"] > 0)
    return Outcome(True, oracle_margin=margin)


def check_wva(cmd: Command, rc) -> Outcome:
    if rc != 0:
        return _fail(f"exit {rc}")
    d = json.loads((cmd.out_dir / "wva_sim.json").read_text())
    if "mean_momentum_first_order" not in d:
        return _fail(f"first-order readout skipped: {d.get('first_order_skipped')}")
    exact = d["mean_momentum_exact"]
    lin = _rel(exact, d["mean_momentum_first_order"])
    pred = _rel(exact, d["predicted_momentum_shift"])
    if not (lin <= 1e-3 and pred <= 1e-2):
        return _fail(f"exact vs first order {lin:.3g} (limit 1e-3), "
                     f"vs predicted {pred:.3g} (limit 1e-2)")
    return Outcome(True)


def check_qcrb(cmd: Command, rc, n_values: int) -> Outcome:
    if rc != 0:
        return _fail(f"exit {rc}")
    with open(cmd.out_dir / "qcrb_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 4 * n_values:
        return _fail(f"{len(rows)} rows, expected {4 * n_values}")
    for r in rows:
        for col in ("qcrb", "qcrb_times_N4"):
            v = float(r[col])
            if not (math.isfinite(v) and v > 0):
                return _fail(f"{col} = {v} at N = {r['n_sensors']}, {r['mode']}")
    seq = [float(r["qcrb"]) * int(r["n_sensors"]) ** 2
           for r in rows if r["mode"] == "sequential"]
    spread = (max(seq) - min(seq)) / seq[0]
    if spread > 1e-12:
        return _fail(f"sequential bound * N^2 varies by {spread:.3g} (limit 1e-12)")
    return Outcome(True)


def check_tabletop(cmd: Command, rc) -> Outcome:
    if rc != 0:
        return _fail(f"exit {rc}")
    fit = json.loads((cmd.out_dir / "scaling_fit.json").read_text())
    if not (_rel(fit["a_rad"], 4.77e-9) <= 0.03 and _rel(fit["b"], 4.25) <= 0.05
            and fit["r_squared"] >= 0.985):
        return _fail(f"tabletop fit a={fit['a_rad']:.4g} b={fit['b']:.4g} "
                     f"R2={fit['r_squared']:.4g}")
    return Outcome(True)


def check_synthetic(cmd: Command, rc, expected_samples: int) -> Outcome:
    if rc != 0:
        return _fail(f"exit {rc}")
    fit = json.loads((cmd.out_dir / "scaling_fit.json").read_text())
    b_expected = 1.0 + 2.0 * LEAD_IN / Z_BAR
    if _rel(fit["b"], b_expected) > 0.05:
        return _fail(f"synthetic fit b={fit['b']:.4g}, expected {b_expected} +- 5%")
    with open(cmd.out_dir / "snr_sweep.csv", "rb") as fh:
        samples = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
    if samples != expected_samples:
        return _fail(f"{samples} SNR samples, expected {expected_samples}")
    return Outcome(True, snr_samples=samples)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- workload construction -----------------------------------------------------


def _write_config(path: Path, sections: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(sections, sort_keys=True))
    return str(path)


def build(name: str, seed: int, smoke: bool, root: Path) -> Workload:
    """Write the workload's configs under root and return its commands.

    smoke shrinks every size (2^10 grid points, fewer oracle instances, a
    shorter analysis sweep) while reaching the same code paths.
    """
    grid = {"num_points": 1 << 10} if smoke else {}
    out = root / "out"

    def cmd(label, cfg, args, check, steps=0):
        argv = ("--config", cfg, "--out", str(out / label)) + tuple(args)
        return Command(label, argv, out / label, check, steps)

    if name == "oracle_verify":
        run = {"oracle_seeds": 2, "oracle_instances": 2} if smoke else {}
        cfg = _write_config(root / "oracle.yaml", {"grid": grid, "run": run})
        return Workload(name, (cmd("oracle_verify", cfg, ["oracle-verify"],
                                   check_oracle),),
                        ((cfg, 9),),
                        frozenset({"cli.main", "cli.cmd", "config.from_yaml",
                                   "config.validate", "fisher.qfim_numerical",
                                   "network.traverse_sequence",
                                   "network.composite_apply", "network.apply_kick",
                                   "network.apply_propagation", "grid.moments",
                                   "wva.wva_final_probe.exact_grid",
                                   "oracle.check_bch_fidelity",
                                   "oracle.check_composite_phase",
                                   "oracle.check_switch_phase",
                                   "oracle.check_wva_mean_momentum",
                                   "oracle.check_threshold_consistency"}
                                  | {f"oracle.check_qfim_mode.{m}" for m in
                                     ("sequential", "quantum_switch",
                                      "classical_switch")}))

    if name == "deep_traverse":
        theta_bar = random.Random(seed).uniform(*THETA_BAR_RANGE)
        cfg = _write_config(root / "deep.yaml",
                            {"grid": grid, "sweep": {"theta_bar": theta_bar}})
        cmds = tuple(cmd(f"wva_sim_n{n}", cfg, ["wva-sim", "--n", str(n)],
                         check_wva, steps=2 * n) for n in DEEP_LADDER)
        return Workload(name, cmds, ((cfg, max(DEEP_LADDER)),),
                        frozenset({"cli.main", "cli.cmd", "config.from_yaml",
                                   "config.validate", "network.traverse_sequence",
                                   "network.apply_kick", "network.apply_propagation",
                                   "grid.moments", "wva.wva_final_probe.exact_grid",
                                   "wva.wva_final_probe.first_order",
                                   "wva.momentum_readout"}))

    if name == "analysis_sweep":
        n_qcrb = 200 if smoke else 2000
        n_syn, replicates = (10, 50) if smoke else (30, 1000)
        voltages = 10                  # the config default, sweep.voltages
        qcfg = _write_config(root / "qcrb.yaml", {
            "grid": grid, "sweep": {"n_values": list(range(1, n_qcrb + 1))}})
        scfg = _write_config(root / "synthetic.yaml", {
            "grid": grid, "sweep": {"n_values": list(range(1, n_syn + 1)),
                                    "replicates": replicates}})
        samples = n_syn * voltages * replicates
        cmds = (
            cmd("qcrb_sweep", qcfg, ["qcrb-sweep"],
                lambda c, rc: check_qcrb(c, rc, n_qcrb)),
            cmd("reproduce_synthetic", scfg,
                ["--seed", str(seed), "reproduce-experiment", "--source",
                 "synthetic"],
                lambda c, rc: check_synthetic(c, rc, samples)),
            cmd("reproduce_tabletop", scfg,
                ["reproduce-experiment", "--source", "tabletop"], check_tabletop),
        )
        return Workload(name, cmds, ((qcfg, n_qcrb), (scfg, n_syn)),
                        frozenset({"cli.main", "cli.cmd", "config.from_yaml",
                                   "config.validate", "pipeline.end_to_end_sweep",
                                   "pipeline.fit_snr_vs_voltage",
                                   "pipeline.qcrb_comparison"}))

    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
