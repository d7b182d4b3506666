"""Every function the per-layer benchmark trace wraps still exists.

perfbench/tracing.py rebinds the package's public functions by name; a
removed or renamed one makes Tracer.install raise.  Installing and
uninstalling the tracer here, without running anything, turns that into a
Tier-1 failure instead of one that only the traced benchmark run shows.
"""

import importlib.util
from pathlib import Path

import numpy as np

import cyclesense.pipeline

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_boundaries_install_and_restore():
    tracing = load_tracing()
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
