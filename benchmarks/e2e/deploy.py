"""Server subprocesses: spawn, account for, and always reap.

Every ``serve`` / ``serve-fleet`` the benchmark starts goes through
:class:`Server`, which gives it a run directory under the benchmark's
work dir (pidfiles, stderr log), reads its CPU time from
``/proc/<pid>/stat`` and stops the whole tree -- including the fleet
workers, should the front door have to be killed.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_STOP_TIMEOUT_S = 10.0
_PR_SET_CHILD_SUBREAPER = 36


class ServerStartError(RuntimeError):
    """The server exited or printed something else than its hand-off line."""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    # A zombie is dead for our purposes; only its parent can reap it.
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def cpu_seconds(pid: int) -> float:
    """On-CPU time of one process, all threads, in seconds.

    Summed from the per-thread ``schedstat`` files, which count in
    nanoseconds; ``stat``'s utime + stime only tick every 10 ms, too
    coarse for a window that holds a dozen operations.  The servers'
    threads are pool threads that live as long as the process, so none
    drops out of the sum inside a window.
    """
    try:
        return sum(
            int(task.read_text().split()[0])
            for task in Path(f"/proc/{pid}/task").glob("*/schedstat")
        ) / 1e9
    except (OSError, ValueError, IndexError):
        stat = Path(f"/proc/{pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def adopt_orphans() -> None:
    """Make this process the parent of every orphaned descendant.

    A helper that outlives the child that started it (a fleet worker of
    a killed front door, a multiprocessing resource tracker) is then
    re-parented to the benchmark instead of to init, where
    :func:`reap_descendants` finds it and waits for it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
        )
    except (OSError, AttributeError):
        pass  # not Linux: direct children are still reaped below


def _children() -> list[int]:
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def reap_descendants(grace_s: float = 3.0) -> None:
    """Stop every process still below this one and wait until it is gone.

    Called on every way out of the benchmark, after the servers were
    stopped the regular way; what is left by then ends on its own (the
    resource tracker of the multiprocess kernel probe exits once its
    pipe is closed), is terminated after ``grace_s``, or killed after
    twice that.
    """
    if "multiprocessing.resource_tracker" in sys.modules:
        from multiprocessing import resource_tracker

        # Closes the tracker's pipe and waits for the process; a no-op
        # if none was started.
        resource_tracker._resource_tracker._stop()
    started = time.monotonic()
    while True:
        children = _children()
        if not children:
            return
        waited = time.monotonic() - started
        for pid in children:
            if waited > grace_s:
                try:
                    os.kill(
                        pid,
                        signal.SIGKILL if waited > 2 * grace_s else signal.SIGTERM,
                    )
                except ProcessLookupError:
                    pass
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.02)


class Server:
    """One ``python -m repro serve`` or ``serve-fleet`` process tree."""

    def __init__(self, artifact: Path, run_dir: Path, *, fleet: bool):
        self.artifact = artifact
        self.run_dir = run_dir
        self.fleet = fleet
        self.port = 0
        #: name -> pid of every process of the tree ("router", "shard0-..").
        self.pids: dict[str, int] = {}
        self._proc: subprocess.Popen | None = None
        self._stderr = None

    def start(self) -> None:
        """Spawn the tree and wait for its hand-off line."""
        try:
            self._spawn()
        except BaseException:
            self.stop()
            raise

    def _spawn(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, "-m", "repro"]
        if self.fleet:
            command += [
                "serve-fleet", str(self.artifact),
                "--shards", "2", "--replicas", "1",
                "--port", "0", "--run-dir", str(self.run_dir),
            ]
            prefix = "fleet serving on "
        else:
            command += ["serve", str(self.artifact), "--port", "0"]
            prefix = "serving on "
        self._stderr = open(self.run_dir / "stderr.log", "wb")
        self._proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr, text=True
        )
        line = self._proc.stdout.readline()
        if not line.startswith(prefix):
            raise ServerStartError(
                f"{' '.join(command)} did not hand off (got {line!r});"
                f" see {self.run_dir / 'stderr.log'}"
            )
        self.port = int(line[len(prefix):].split()[0].rsplit(":", 1)[1])
        if self.fleet:
            # serve-fleet writes its pidfiles before the hand-off line.
            for path in sorted(self.run_dir.glob("*.pid")):
                self.pids[path.stem] = int(path.read_text())
        else:
            self.pids["serve"] = self._proc.pid
            (self.run_dir / "serve.pid").write_text(f"{self._proc.pid}\n")

    def cpu_by_process(self) -> dict[str, float]:
        return {name: cpu_seconds(pid) for name, pid in self.pids.items()}

    def stop(self) -> None:
        """Terminate the tree and wait until every process has ended."""
        proc, self._proc = self._proc, None
        if proc is not None:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        # The fleet front door reaps its workers (and removes its pidfiles)
        # on SIGTERM; if it had to be killed, or died before handing off,
        # the workers are orphans and the pidfiles are how we find them.
        pids = set(self.pids.values())
        for path in self.run_dir.glob("*.pid"):
            pids.add(int(path.read_text()))
            path.unlink()
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        for pid in pids:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.02)
        self.pids = {}
        if self._stderr is not None:
            self._stderr.close()
            self._stderr = None
