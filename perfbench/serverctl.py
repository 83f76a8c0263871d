"""Start, probe and stop the real server (``python -m repro.cli serve``)."""

from __future__ import annotations

import ctypes
import http.client
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, List, Optional

HOST = "127.0.0.1"
#: ``prctl`` option that makes a process the parent of its orphans.
PR_SET_CHILD_SUBREAPER = 36
#: Environment variables that would switch on the program's own
#: tracing or logging; the benchmark measures the default server.
_PROGRAM_ENV = ("TENET_TRACE", "TENET_LOG")


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    setup_s: float
    log: IO[bytes]

    @property
    def pid(self) -> int:
        return self.process.pid


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


def _healthy(port: int) -> bool:
    connection = http.client.HTTPConnection(HOST, port, timeout=5)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        return response.status == 200
    except OSError:
        return False
    finally:
        connection.close()


def start(
    root: Path,
    store: Path,
    serve_args: List[str],
    log_path: Path,
    trace_dir: Optional[Path] = None,
    timeout: float = 120.0,
) -> Server:
    """Spawn a server and wait for its first 200 from ``/healthz``.

    ``setup_s`` runs from just before the spawn to that first 200.  With
    *trace_dir* the server starts through the tracing launcher instead
    of ``-m repro.cli``.
    """
    port = _free_port()
    env = {k: v for k, v in os.environ.items() if k not in _PROGRAM_ENV}
    src = str(root / "src")
    if trace_dir is None:
        command = [sys.executable, "-m", "repro.cli"]
        env["PYTHONPATH"] = src
    else:
        tracer = Path(__file__).resolve().parent / "tracer"
        command = [sys.executable, str(tracer / "launch.py")]
        env["PYTHONPATH"] = f"{tracer}{os.pathsep}{src}"
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    command += ["serve", "--host", HOST, "--port", str(port), "--snapshot", str(store)]
    command += serve_args
    log = open(log_path, "ab")
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=str(root), env=env, stdout=log, stderr=subprocess.STDOUT
    )
    server = Server(process, port, 0.0, log)
    while not _healthy(port):
        if process.poll() is not None or time.perf_counter() - started > timeout:
            stop(server)
            tail = log_path.read_text(errors="replace").splitlines()[-20:]
            raise RuntimeError("server did not become healthy:\n" + "\n".join(tail))
        time.sleep(0.002)
    server.setup_s = time.perf_counter() - started
    return server


def descendants(pid: int) -> List[int]:
    """*pid* and every process below it, from ``/proc/<pid>/task/*/children``."""
    found, queue = [], [pid]
    while queue:
        current = queue.pop()
        found.append(current)
        tasks = Path(f"/proc/{current}/task")
        try:
            for task in tasks.iterdir():
                queue.extend(int(c) for c in (task / "children").read_text().split())
        except OSError:
            continue
    return found


def peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over the server process and its children, in MB."""
    total_kb = 0
    for member in descendants(pid):
        try:
            for line in Path(f"/proc/{member}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def stop(server: Server, timeout: float = 20.0) -> None:
    """SIGINT (the server's clean shutdown), escalating to SIGKILL.

    Returns only when the server and every process it started (the
    cluster's workers) have ended.
    """
    process = server.process
    try:
        children = descendants(process.pid)[1:] if process.poll() is None else []
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(10)
        for pid in children:
            _reap(pid)
    finally:
        server.log.close()


def _reap(pid: int, timeout: float = 10.0) -> None:
    """Wait for an orphaned child to end, killing it past *timeout*.

    A zombie has ended; reaping it is its new parent's job.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            return
        if state == "Z":
            return
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline += timeout
        time.sleep(0.01)


def adopt_orphans() -> None:
    """Become the parent of every orphaned descendant (Linux ``prctl``).

    A process whose parent ends (a server's helper, once the server has
    gone) then comes to this process instead of to init, so
    :func:`end_all` can stop it and wait for it.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return  # no prctl: orphans go to init instead
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def end_all(timeout: float = 10.0) -> None:
    """Stop every process still below this one and wait until each has ended.

    SIGTERM first, SIGKILL past *timeout*; ended children are reaped.
    """
    deadline = time.monotonic() + timeout
    signalled = set()
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        below = descendants(os.getpid())[1:]
        if not below or time.monotonic() > deadline + timeout:
            return
        late = time.monotonic() > deadline
        for pid in below:
            if late or pid not in signalled:
                signalled.add(pid)
                try:
                    os.kill(pid, signal.SIGKILL if late else signal.SIGTERM)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)
