"""Locate the curvlab sources of the checkout this benchmark lives in.

The benchmark must measure the program next to it, never an installed copy,
so every entry point calls :func:`bootstrap` before importing curvlab.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"


class ProgramMissing(RuntimeError):
    """The checkout holds no curvlab sources to measure."""


def bootstrap() -> None:
    """Put ``src/`` first on ``sys.path`` and check curvlab resolves there."""
    package = SRC / "curvlab"
    if not (package / "cli.py").is_file():
        raise ProgramMissing(f"no curvlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import curvlab

    if Path(curvlab.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"curvlab was imported from {curvlab.__file__}, not {package}")
