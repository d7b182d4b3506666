"""One set-up in a fresh interpreter: import, load and validate, build grids.

Usage: python3 perfbench/setup_probe.py CONFIG N [CONFIG N ...]
run.py times this process from start to exit as setup_s.  N is the sensor
count whose network the grid must hold.
"""

import sys

import cyclesense  # noqa: F401  (the import is part of what is timed)
from cyclesense.config import RunConfig

args = sys.argv[1:]
for path, n in zip(args[::2], args[1::2]):
    cfg = RunConfig.from_yaml(path)
    cfg.validate()
    grid = cfg.grid(int(n))
    grid.positions, grid.momenta
