"""Process hygiene for the spine benchmark.

A run that boots ``repro serve`` leaves one process behind even after
the server exits 0 on SIGTERM: the ``multiprocessing.resource_tracker``
child it spawned is re-parented when the server (its session leader)
dies, and nobody reaps it.  The benchmark therefore

* never imports ``repro.serve.server`` or ``multiprocessing.shared_memory``
  (either would make that tracker a child of the benchmark itself) — the
  server is always ``python -m repro serve`` in its own session;
* marks itself a child subreaper before it starts anything, so orphans
  of that session are re-parented to the benchmark and can be reaped;
* on teardown sends SIGTERM, waits, SIGKILLs the whole session, reaps
  every orphan, and then scans ``/proc`` and ``/dev/shm``: a surviving
  descendant or shared-memory segment fails the run.
"""

from __future__ import annotations

import ctypes
import os
import selectors
import signal
import subprocess
import sys
import time
from typing import List, Optional, Sequence

_PR_SET_CHILD_SUBREAPER = 36
_SHM_DIR = "/dev/shm"
_BOOT_TIMEOUT_S = 60.0
_DRAIN_TIMEOUT_S = 15.0


class HygieneError(RuntimeError):
    """A process or shared-memory segment outlived the run."""


def become_subreaper(on: bool = True) -> None:
    """Adopt orphaned descendants so that they can be reaped here."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, int(on), 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def exit_on_signals() -> None:
    """Turn SIGTERM/SIGINT into SystemExit so ``finally`` blocks run."""

    def _exit(signum, _frame) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _exit)
    signal.signal(signal.SIGINT, _exit)


def _stat_fields(pid: str) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None  # raced with the process exiting
    # comm may contain spaces and parentheses: split after the last ')'.
    return raw[raw.rindex(")") + 2 :].split()


def descendants(root: Optional[int] = None) -> List[int]:
    """Pids of every live or zombie descendant of ``root`` (default: self)."""
    root = os.getpid() if root is None else root
    parent = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None:
                parent[int(entry)] = int(fields[1])  # ppid
    found = []
    for pid in parent:
        cursor = pid
        while cursor in parent and cursor != root:
            cursor = parent[cursor]
        if cursor == root and pid != root:
            found.append(pid)
    return sorted(found)


def session_members(sid: int) -> List[int]:
    """Pids whose session id is ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields is not None and int(fields[3]) == sid:
                found.append(int(entry))
    return found


def reap_orphans(timeout_s: float = 5.0) -> int:
    """Reap every child (adopted orphans included); returns how many."""
    reaped = 0
    deadline = time.monotonic() + timeout_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return reaped
        if pid:
            reaped += 1
        elif time.monotonic() > deadline:
            return reaped
        else:
            time.sleep(0.01)


def shm_segments(prefix: str) -> List[str]:
    if not prefix or not os.path.isdir(_SHM_DIR):
        return []
    return sorted(n for n in os.listdir(_SHM_DIR) if n.startswith(prefix))


def assert_clean(shm_prefixes: Sequence[str] = ()) -> None:
    """Fail unless no descendant and no owned segment remains."""
    reap_orphans()
    left = descendants()
    if left:
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        reap_orphans()
        raise HygieneError(f"processes left running: {left}")
    segments = [s for p in shm_prefixes for s in shm_segments(p)]
    if segments:
        for name in segments:
            try:
                os.unlink(os.path.join(_SHM_DIR, name))
            except OSError:
                pass
        raise HygieneError(f"shared-memory segments left: {segments}")


class ServeProcess:
    """``python -m repro serve`` in its own session, booted and torn down.

    ``boot_s`` is spawn → ``listening on`` line; ``drain_s`` is SIGTERM →
    exit.  ``stop()`` is idempotent and never raises for a dead server;
    it raises :class:`HygieneError` when the session had to be killed.
    """

    def __init__(
        self, src_dir: str, graph_path: str, extra_args: Sequence[str], log_path: str
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.log_path = log_path
        self.drain_s = 0.0
        self.exit_code: Optional[int] = None
        self.shm_prefix = ""
        started = time.perf_counter()
        with open(log_path, "wb") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", graph_path,
                 "--port", "0", *extra_args],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                env=env,
                start_new_session=True,
            )
        self.sid = self._proc.pid
        try:
            self.port = self._read_port()
        except BaseException:
            self.stop(check=False)
            raise
        self.boot_s = time.perf_counter() - started

    def _read_port(self) -> int:
        stdout = self._proc.stdout
        assert stdout is not None
        deadline = time.monotonic() + _BOOT_TIMEOUT_S
        buffered = b""
        with selectors.DefaultSelector() as sel:
            sel.register(stdout, selectors.EVENT_READ)
            while b"\n" not in buffered:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(remaining):
                    raise TimeoutError("repro serve did not announce a port")
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        "repro serve exited during boot: " + self.log_tail()
                    )
                buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        if not line.startswith("listening on "):
            raise RuntimeError(f"unexpected boot line: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def log_tail(self, limit: int = 800) -> str:
        try:
            with open(self.log_path, "rb") as fh:
                return fh.read()[-limit:].decode("utf-8", "replace")
        except OSError:
            return ""

    def stop(self, check: bool = True) -> None:
        proc = self._proc
        if proc is None:
            return
        self._proc = None
        started = time.perf_counter()
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            self.exit_code = proc.wait(timeout=_DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.exit_code = None
        self.drain_s = time.perf_counter() - started
        if proc.stdout is not None:
            proc.stdout.close()
        # Whatever the server left in its session (the resource tracker,
        # a wedged worker) goes now; as subreaper we then collect it.
        survivors = [p for p in session_members(self.sid) if p != proc.pid]
        try:
            os.killpg(self.sid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if self.exit_code is None:
            proc.wait()
        reap_orphans()
        segments = shm_segments(self.shm_prefix)
        for name in segments:
            os.unlink(os.path.join(_SHM_DIR, name))
        if not check:
            return
        if self.exit_code != 0:
            raise HygieneError(
                f"repro serve exited {self.exit_code} on SIGTERM "
                f"(killed: {survivors}): {self.log_tail()}"
            )
        if segments:
            raise HygieneError(f"repro serve left segments: {segments}")
