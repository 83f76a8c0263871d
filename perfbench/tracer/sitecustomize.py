"""Installs the benchmark's span wrappers in spawned worker processes.

Only active on a traced run's ``PYTHONPATH`` with ``PERFBENCH_TRACE_DIR``
set, and only in ``multiprocessing`` spawn children (the cluster's
linker workers): the server process itself installs them through
``launch.py``.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR") and any(
    "spawn_main" in arg for arg in getattr(sys, "orig_argv", ())
):
    import benchtrace

    benchtrace.install()
