import math
import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from cyclesense import Grid, ProbeSpec, WaveFunction, make_gaussian

LAB_WAVELENGTH = 780e-9
LAB_WAVE_NUMBER = 2.0 * math.pi / LAB_WAVELENGTH


def parity(psi):
    """Spatial inversion psi(x) -> psi(-x) of one state: sample j to sample -j mod n."""
    return WaveFunction(psi.grid, np.roll(psi.amplitudes[::-1], 1), psi.representation)


@pytest.fixture(scope="session")
def unit_grid():
    """Dimensionless grid: k = 1 scale problems, w0 of order one."""
    return Grid(1 << 13, 24.0)


@pytest.fixture(scope="session")
def unit_probe(unit_grid):
    """Centered Gaussian with w0 = 2 (DeltaX = 1, DeltaP = 1/2) at k = 1."""
    return make_gaussian(ProbeSpec(2.0, 1.0), unit_grid)


@pytest.fixture(scope="session")
def lab_spec():
    """The tabletop probe: 2 mm waist radius at 780 nm."""
    return ProbeSpec(2e-3, LAB_WAVE_NUMBER)


@pytest.fixture(scope="session")
def run_probe():
    """Run code in a fresh interpreter on this checkout's src/; return stdout.

    Keyword arguments set environment variables, and None unsets one.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(code: str, **env_vars) -> str:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        for name, value in env_vars.items():
            if value is None:
                env.pop(name, None)
            else:
                env[name] = value
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
