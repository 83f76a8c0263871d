"""Puts the benchmark's modules and the repository sources on the path."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parents[1]
for path in (_HERE.parent / "src", _HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
