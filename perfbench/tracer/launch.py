"""Start ``repro.cli`` with the benchmark's span wrappers installed.

Usage (what the traced run does)::

    PYTHONPATH=perfbench/tracer:src PERFBENCH_TRACE_DIR=<dir> \
        python perfbench/tracer/launch.py serve --snapshot <store> ...

Spans are written to ``<dir>/spans-<pid>.jsonl`` when each process
exits; ``sitecustomize.py`` on the same path covers spawned workers.
"""

import sys

import benchtrace

if __name__ == "__main__":
    benchtrace.install()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
