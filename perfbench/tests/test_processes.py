"""A run leaves no process behind: its children and adopted orphans end."""

import os
import subprocess
import sys
from pathlib import Path

import serverctl


def test_end_all_stops_children_and_adopted_orphans():
    serverctl.adopt_orphans()
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    # The shell ends at once; its background sleep is orphaned.
    shell = subprocess.run(
        ["sh", "-c", "sleep 30 >/dev/null 2>&1 & echo $!"],
        check=True, capture_output=True, text=True,
    )
    orphan = int(shell.stdout)
    assert {child.pid, orphan} <= set(serverctl.descendants(os.getpid()))

    serverctl.end_all(timeout=5.0)

    assert serverctl.descendants(os.getpid()) == [os.getpid()]
    assert not Path(f"/proc/{child.pid}").exists()
    assert not Path(f"/proc/{orphan}").exists()
