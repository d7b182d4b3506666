"""cyclesense benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload deep_traverse --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke             # every workload, tiny sizes
    python3 perfbench/run.py --record-digests    # rewrite reference_digests.json

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The last line of standard output is one JSON object with
keys correct, attempted, failed and metrics.  The program is built from the
checkout's src/ (byte-compiled; it is pure Python) and driven through
cyclesense.cli.main in a separate workload process; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402

#: fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 11
OUT_DIR = ".bench_out"
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: a run must end within 180 s; the worker gets what is left after set-up.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CYCLESENSE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env.update({k: "1" for k in THREAD_PINS})
    return env


def check_declared(root: Path) -> None:
    """BENCHMARK.json must declare exactly the metrics this code emits."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None
    for key, ours in (("end_to_end", metrics.END_TO_END),
                      ("per_layer", metrics.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec.get(key, [])]
        if declared != list(ours):
            raise BenchError(f"BENCHMARK.json {key} differs from perfbench/metrics.py")
    names = [w["name"] for w in spec.get("workloads", [])]
    if names != list(workloads.WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from perfbench/workloads.py")


def build(root: Path, env: dict[str, str]) -> None:
    if not (root / "src" / "cyclesense" / "__init__.py").is_file():
        raise BenchError(f"no cyclesense sources under {root / 'src'}; run from "
                         f"the repository root")
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"byte-compiling src/ failed:\n{proc.stdout}{proc.stderr}")


def setup_seconds(wl: workloads.Workload, root: Path, env: dict[str, str]) -> float:
    """Median wall time of fresh interpreters doing the workload's set-up."""
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    for path, n in wl.setup:
        argv += [path, str(n)]
    times = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True,
                              text=True, timeout=60)
        times.append(perf_counter() - t)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
    return statistics.median(times)


def run_once(root: Path, name: str, seed: int, seconds: float, trace: int,
             smoke: bool) -> dict:
    """One benchmark run of one workload; returns the worker's result plus setup_s."""
    started = perf_counter()
    env = child_env(root)
    build(root, env)
    wroot = root / OUT_DIR / (name + ("-smoke" if smoke else ""))
    shutil.rmtree(wroot, ignore_errors=True)
    wroot.mkdir(parents=True)
    wl = workloads.build(name, seed, smoke, wroot)
    setup = None if trace else setup_seconds(wl, root, env)
    result_path = wroot / "result.json"
    log_path = wroot / "worker.log"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--root", str(wroot), "--reference", str(HERE / "reference_digests.json"),
            "--result", str(result_path)] + (["--smoke"] if smoke else [])
    budget = RUN_LIMIT_S - (perf_counter() - started)
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(argv, cwd=root, env=env, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=budget)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: workload process exceeded {budget:.0f} s") from None
    if proc.returncode != 0:
        tail = log_path.read_text()[-3000:]
        raise BenchError(f"{name}: workload process exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    if setup is not None:
        result["end_to_end"]["setup_s"] = setup
    return result


def metric_block(result: dict, trace: int) -> dict:
    spec = metrics.PER_LAYER if trace else metrics.END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    missing = [n for n, _, _ in spec if n not in values]
    if missing:
        raise BenchError(f"metrics not emitted: {missing}")
    return {n: {"value": values[n], "unit": unit} for n, unit, _ in spec}


def report(name: str, seed: int, trace: int, result: dict, block: dict) -> None:
    """Human-readable lines ahead of the JSON line."""
    times = sorted(result["pass_s_values"])
    n = len(times)
    pct = (f"p{100 * (n - 10) / n:.0f} = {times[n - 11]:.4f} s" if n > 10
           else "no percentile has 10 samples beyond it")
    print(f"# {name} seed={seed} trace={trace}: {n} timed passes, "
          f"{result['attempted']} commands, {result['failed']} failed "
          f"(failed_share {result['failed'] / result['attempted']:.3g})")
    print(f"# pass_s median {statistics.median(times):.4f} s over {n} samples; {pct}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for key, m in block.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")


def smoke(root: Path) -> int:
    """Every workload at 2^10 points, one pass, both modes: names and checks."""
    bad = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_once(root, name, 1, 0, trace, smoke=True)
            block = metric_block(result, trace)
            ok = result["failed"] == 0
            bad += not ok
            print(f"smoke {name} trace={trace}: {len(block)} metrics, "
                  f"{result['attempted']} commands, "
                  f"{'ok' if ok else 'FAILED ' + '; '.join(result['failures'])}")
    return 1 if bad else 0


def record_digests(root: Path) -> int:
    out = {}
    for section, is_smoke in (("full", False), ("smoke", True)):
        out[section] = {}
        for name in workloads.WORKLOADS:
            out[section].update(run_once(root, name, 0, 0, 1, is_smoke)["digests"])
    (HERE / "reference_digests.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(v) for v in out.values())} digests")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="check every workload and metric name at tiny sizes")
    mode.add_argument("--record-digests", action="store_true",
                      help="rewrite the reference output digests (seed 0)")
    args = ap.parse_args(argv)
    root = Path.cwd()
    try:
        check_declared(root)
        if args.smoke:
            return smoke(root)
        if args.record_digests:
            return record_digests(root)
        if args.workload is None:
            ap.error("--workload is required")
        result = run_once(root, args.workload, args.seed, args.seconds,
                          args.trace, smoke=False)
        block = metric_block(result, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.trace, result, block)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": block}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
