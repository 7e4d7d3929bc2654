"""The processes under test: launching, cold-start timing, CPU and memory.

Every process of the system under test is a subprocess of the harness
(``repro serve``, ``repro worker``, the offline jobs, the layer probes),
started in its own session so that stopping it also stops whatever it
forked.
:class:`ProcessTree` reads ``/proc`` (psutil is not a dependency) to
attribute CPU time and peak memory to those processes and every
descendant they spawn, including forkserver children and restarted
workers: each :meth:`ProcessTree.walk` rediscovers the tree.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

CLK_TCK = os.sysconf("SC_CLK_TCK")


def repro_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], root: Path, log_path: Path) -> subprocess.Popen:
    """Start ``argv`` (stdout piped, stderr to ``log_path``) in its own session."""
    with open(log_path, "ab") as log:
        return subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=log,
            env=repro_env(root),
            cwd=root,
            start_new_session=True,
        )


def spawn_repro(args: list[str], root: Path, log_path: Path) -> subprocess.Popen:
    return spawn([sys.executable, "-m", "repro", *args], root, log_path)


class Lines:
    """Stdout of a child, line by line, with timeouts (raw fd, no buffering
    behind ``select``'s back)."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.buf = b""

    def next(self, timeout_s: float) -> str | None:
        """The next line, ``None`` on timeout; raises once the child exits."""
        deadline = time.perf_counter() + timeout_s
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise RuntimeError(
                        f"{' '.join(map(str, self.proc.args[1:4]))} exited "
                        f"with code {self.proc.wait()}"
                    )
                self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line.decode("utf-8", "replace")


def read_line(proc: subprocess.Popen, marker: str, timeout_s: float = 120.0) -> str:
    """Next stdout line containing ``marker``; raises if the process dies."""
    lines = Lines(proc)
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        line = lines.next(deadline - time.perf_counter())
        if line is not None and marker in line:
            return line
    raise TimeoutError(f"no {marker!r} from {proc.args} within {timeout_s}s")


def stop(procs, grace_s: float = 5.0) -> None:
    """SIGINT each process, then SIGKILL its whole session; always reap.

    The grace period is short because ``repro serve --frontend async``
    sometimes ignores SIGINT (about 1 start in 12 on a 2-vCPU VM, even idle).
    """
    procs = [p for p in procs if p is not None]
    for proc in procs:
        if proc.poll() is None:
            try:
                proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
    deadline = time.perf_counter() + grace_s
    for proc in procs:
        try:
            proc.wait(max(0.1, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers it forked
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()


def wait_healthy(address, timeout_s: float = 120.0) -> dict:
    """Poll ``GET /healthz`` until it answers 200 with status ``ok``."""
    deadline = time.perf_counter() + timeout_s
    while True:
        conn = http.client.HTTPConnection(address[0], address[1], timeout=5)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            payload = json.loads(response.read())
            if response.status == 200 and payload.get("status") == "ok":
                return payload
        except (OSError, ValueError, http.client.HTTPException):
            pass
        finally:
            conn.close()
        if time.perf_counter() > deadline:
            raise TimeoutError(f"{address} not healthy within {timeout_s}s")
        time.sleep(0.002)


def start_server(topology: str, artifact: Path, root: Path, work: Path):
    """One cold start of a serving topology.

    Returns ``(server, agents, address, setup_s)``; ``setup_s`` runs from
    the first spawn (agents included) to the first healthy ``/healthz``.
    """
    log = work / "server.log"
    started = time.perf_counter()
    agents = []
    args = ["serve", str(artifact), "--host", "127.0.0.1", "--port", "0"]
    if topology == "async":
        args += ["--frontend", "async"]
    elif topology == "shards":
        args += ["--workers", "2"]
    elif topology == "fleet":
        agents = [
            spawn_repro(["worker", "--listen", "127.0.0.1:0"], root, log)
            for _ in range(2)
        ]
        endpoints = [read_line(a, "listening on").split()[-1] for a in agents]
        args += ["--fleet", ",".join(endpoints)]
    else:
        raise ValueError(topology)
    server = spawn_repro(args, root, log)
    try:
        url = read_line(server, "http://").split("http://", 1)[1].split()[0]
        host, _, port = url.rpartition(":")
        address = (host, int(port))
        wait_healthy(address)
    except BaseException:
        stop([server, *agents])
        raise
    return server, agents, address, time.perf_counter() - started


# -- /proc accounting ----------------------------------------------------------


def _ppid(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read()
    except OSError:
        return None
    return int(text[text.rfind(b")") + 2 :].split()[1])


def _cpu_seconds(pid: int) -> float:
    """CPU time of a process: its live threads' run time in nanoseconds
    (``schedstat``; ``stat`` counts only whole 10 ms ticks, too coarse for
    a few-second slice) plus ``cutime``/``cstime`` of reaped children, so
    a tree's total stays monotonic while pool workers come and go."""
    total = 0.0
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/schedstat", "rb") as handle:
                total += int(handle.read().split()[0]) / 1e9
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read()
    except OSError:  # exited mid-read; its time moves to its parent
        return total
    fields = text[text.rfind(b")") + 2 :].split()
    return total + (int(fields[13]) + int(fields[14])) / CLK_TCK


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ProcessTree:
    """CPU and peak RSS of some root processes and all their descendants.

    ``roots`` maps pid → role; a descendant takes the role ``worker``.
    Peak RSS is the largest sum, over the processes alive at one walk, of
    their ``VmHWM`` (each process's own high-water mark), so pools that
    come and go one after another are not added together.
    """

    def __init__(self, roots: dict[int, str]):
        self.roots = dict(roots)
        self.peak_kb = 0

    def walk(self) -> dict[str, float]:
        """CPU seconds so far per role (``front`` / ``worker`` / ...)."""
        children: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                ppid = _ppid(int(entry))
                if ppid is not None:
                    children.setdefault(ppid, []).append(int(entry))
        cpu: dict[str, float] = {}
        live_kb = 0
        stack = list(self.roots.items())
        while stack:
            pid, role = stack.pop()
            cpu[role] = cpu.get(role, 0.0) + _cpu_seconds(pid)
            live_kb += _hwm_kb(pid)
            stack.extend((child, "worker") for child in children.get(pid, ()))
        self.peak_kb = max(self.peak_kb, live_kb)
        return cpu

    @property
    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


def cpu_delta(before: dict, after: dict) -> dict[str, float]:
    roles = set(before) | set(after)
    return {role: after.get(role, 0.0) - before.get(role, 0.0) for role in roles}
