"""Workload process: runs passes of one workload through cyclesense.cli.main.

run.py starts one of these per workload, with PYTHONPATH at the checkout's
src/ and BLAS/OpenMP pinned to one thread, so the process's peak memory is
the workload's own.  Closed loop, one client: each command starts when the
previous one has returned.  After one untimed warm pass it runs passes until
--seconds have elapsed.  With --trace 1 it alternates untraced and traced
passes, then runs one pass at the reference seed to compare output digests.
Measurements go to --result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import metrics
import workloads
from tracing import Tracer

REFERENCE_SEED = 0


class Ledger:
    """Commands attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.oracle_margin = 0.0

    def record(self, label: str, outcome: workloads.Outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failures.append(f"{label}: {outcome.detail}")
        self.oracle_margin = max(self.oracle_margin, outcome.oracle_margin)


def run_pass(wl: workloads.Workload, cli, ledger: Ledger,
             tracer: Tracer | None = None) -> dict:
    """One pass over the workload's commands; checks run after the timing."""
    for cmd in wl.commands:
        shutil.rmtree(cmd.out_dir, ignore_errors=True)
    gc.collect()               # start every pass without the last one's garbage
    rcs, cmd_s = {}, {}
    if tracer is not None:
        tracer.install()
    try:
        start = perf_counter()
        for cmd in wl.commands:
            t = perf_counter()
            try:
                rcs[cmd.label] = cli.main(list(cmd.argv))
            except Exception as exc:  # an escaped traceback is a failed command
                rcs[cmd.label] = f"{type(exc).__name__}: {exc}"
            cmd_s[cmd.label] = perf_counter() - t
        pass_s = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    snr_samples = 0
    for cmd in wl.commands:
        try:
            outcome = cmd.check(cmd, rcs[cmd.label])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome = workloads.Outcome(False, f"unreadable output: {exc!r}")
        ledger.record(cmd.label, outcome)
        snr_samples += outcome.snr_samples
    steps = sum(c.sensor_steps for c in wl.commands)
    return {"pass_s": pass_s, "cmd_s": cmd_s, "snr_samples": snr_samples,
            "steps_per_s": steps / pass_s,
            "output_bytes": sum(p.stat().st_size for p in wl.output_files())}


def digests(wl: workloads.Workload) -> dict[str, str]:
    return {f"{wl.name}/{p.parent.name}/{p.name}": workloads.sha256(p)
            for p in wl.output_files()}


def digest_changes(found: dict[str, str], reference: dict[str, str]) -> int:
    return sum(found.get(k) != reference.get(k) for k in found.keys() | reference.keys())


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[dict]) -> dict[str, float]:
    return {
        "pass_s": _median([p["pass_s"] for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(wl, untraced: list[dict], traced: list[dict],
              summaries: list[dict], ledger: Ledger, changes: int) -> dict:
    """Per-layer metrics: counts must repeat exactly across traced passes."""
    out = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        if all(isinstance(v, int) for v in values):
            if len(set(values)) != 1:
                raise RuntimeError(f"count {key} differs between traced passes: {values}")
            out[key] = values[0]
        else:
            out[key] = _median(values)
    fired = {k[:-len(".calls")] for k, v in out.items() if k.endswith(".calls") and v}
    silent = sorted(wl.expected_spans - fired)
    if silent:
        raise RuntimeError(f"{wl.name}: traced boundaries never fired: {silent}; "
                           f"was a function renamed or moved?")
    samples = {p["snr_samples"] for p in traced}
    if len(samples) != 1:
        raise RuntimeError(f"SNR sample count differs between passes: {samples}")
    out["pipeline.snr_samples"] = snr = samples.pop()
    out["pipeline.s_per_snr_sample"] = (
        out["pipeline.end_to_end_sweep.total_s"] / snr if snr else 0.0)
    out["cli.output_bytes"] = untraced[-1]["output_bytes"]
    out["cli.output_digest_changes"] = changes
    out["trace.overhead_share"] = (_median([p["pass_s"] for p in traced])
                                   / _median([p["pass_s"] for p in untraced]) - 1.0)
    for c in metrics.COMMAND_METRICS:
        out[f"cmd.{c}_s"] = _median([p["cmd_s"][c] for p in untraced
                                     if c in p["cmd_s"]])
    steps = [p["steps_per_s"] for p in untraced if p["steps_per_s"]]
    out["sensor_steps_per_s"] = _median(steps)
    out["oracle_margin_max"] = ledger.oracle_margin
    out["failed_share"] = len(ledger.failures) / ledger.attempted
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--reference", type=Path, required=True,
                    help="JSON of output digests at the reference seed")
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    import cyclesense
    from cyclesense import cli
    src = (Path.cwd() / "src").resolve()
    if src not in Path(cyclesense.__file__).resolve().parents:
        raise RuntimeError(f"imported cyclesense from {cyclesense.__file__}, "
                           f"not from {src}")

    wl = workloads.build(args.workload, args.seed, args.smoke, args.root)
    ledger = Ledger()
    run_pass(wl, cli, ledger)                         # warm-up, untimed
    deadline = perf_counter() + args.seconds
    untraced, traced, summaries = [], [], []
    while not untraced or perf_counter() < deadline:
        untraced.append(run_pass(wl, cli, ledger))
        if args.trace:
            tracer = Tracer()
            traced.append(run_pass(wl, cli, ledger, tracer))
            summaries.append(tracer.summary())

    result = {"pass_s_values": [p["pass_s"] for p in untraced],
              "end_to_end": end_to_end(untraced)}
    if args.trace:
        ref = workloads.build(args.workload, REFERENCE_SEED, args.smoke,
                              args.root / "reference")
        run_pass(ref, cli, ledger)
        found = digests(ref)
        reference = {}
        if args.reference.is_file():
            section = json.loads(args.reference.read_text())
            reference = {k: v for k, v in section["smoke" if args.smoke else "full"].items()
                         if k.startswith(f"{wl.name}/")}
        result["digests"] = found
        result["per_layer"] = per_layer(wl, untraced, traced, summaries, ledger,
                                        digest_changes(found, reference))
    result.update(attempted=ledger.attempted, failed=len(ledger.failures),
                  failures=ledger.failures[:20])
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
