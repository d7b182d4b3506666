"""Every function the per-layer benchmark trace wraps still exists and fires.

perfbench/tracing.py rebinds the package's public functions by name; a
removed or renamed one makes Tracer.install raise, and one that a workload
no longer reaches leaves a span of its expected_spans silent, which fails
the traced benchmark run.  Both are checked here, on the workloads' smoke
sizes, so they are Tier-1 failures instead of ones only the traced
benchmark run shows.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import cyclesense.cli
import cyclesense.pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, monkeypatch):
    """perfbench/<name>.py as a module, registered while the test runs."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # the workload dataclasses resolve their module through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_trace_boundaries_install_and_restore(monkeypatch):
    tracing = load("tracing", monkeypatch)
    originals = (cyclesense.pipeline.end_to_end_sweep,
                 cyclesense.pipeline.fit_snr_vs_voltage, np.fft.fft)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert cyclesense.pipeline.fit_snr_vs_voltage is not originals[1]
    finally:
        tracer.uninstall()
    assert (cyclesense.pipeline.end_to_end_sweep,
            cyclesense.pipeline.fit_snr_vs_voltage, np.fft.fft) == originals


def test_every_workload_fires_its_expected_spans(tmp_path, monkeypatch):
    tracing = load("tracing", monkeypatch)
    workloads = load("workloads", monkeypatch)
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 0, True, tmp_path / name)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            rcs = [cyclesense.cli.main(list(cmd.argv)) for cmd in wl.commands]
        finally:
            tracer.uninstall()
        fired = {label for label, *_ in tracer.spans}
        assert not wl.expected_spans - fired, (name, wl.expected_spans - fired)
        for cmd, rc in zip(wl.commands, rcs):
            outcome = cmd.check(cmd, rc)
            assert outcome.ok, (name, cmd.label, outcome.detail)


def test_oracle_verify_builds_each_stencil_pair_once(tmp_path, monkeypatch):
    """The smoke oracle-verify (2 walk and 2 Fisher instances) makes one
    composite_apply call per walk instance and per build, 9 builds per
    Fisher instance, and differentiates each built branch 1.5 times: the
    fixed order takes one branch of a pair, the quantum switch both."""
    tracing = load("tracing", monkeypatch)
    workloads = load("workloads", monkeypatch)
    wl = workloads.build("oracle_verify", 0, True, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rcs = [cyclesense.cli.main(list(cmd.argv)) for cmd in wl.commands]
    finally:
        tracer.uninstall()
    assert rcs == [0]
    counters = tracer.summary()
    assert counters["fisher.builder_calls"] == 18
    assert counters["network.composite_apply.calls"] == 20
    assert counters["fisher.branch_use_ratio"] == 1.5
