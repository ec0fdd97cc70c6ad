"""One set-up of a workload in a fresh interpreter, for the ``setup_s`` metric.

Usage: python3 perfbench/probe.py WORKLOAD SEED DIRECTORY

Imports ``curvlab.cli``, writes the workload's inputs into DIRECTORY and
prints ``ready`` and the host's mean speed during that set-up (``speed.py``).
The caller times the span from spawning this process to reading that line.
"""

import sys
from pathlib import Path

from speed import SpeedSampler

if __name__ == "__main__":
    sampler = SpeedSampler()
    sampler.start()
    from program import bootstrap

    bootstrap()
    import curvlab.cli  # noqa: F401  (part of the measured set-up)
    import workloads

    workloads.prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    sampler.stop()
    print("ready", sampler.factor(), flush=True)
