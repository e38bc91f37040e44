"""Build, boot, pin and stop the service under test.

The server is ``python -m repro.service serve --port 0`` with its
defaults plus ``REPRO_BACKEND=native``, started from the checkout's
``src/``.  Install costs are paid once per checkout, outside any
timing: the native library is compiled into a native-store directory
the benchmark owns, and one untimed boot per run fills the bytecode
cache the benchmark owns.  Every boot gets a fresh ``REPRO_STORE_DIR``.
"""

from __future__ import annotations

import http.client
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import procstat

HERE = Path(__file__).resolve().parent
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class BenchSetupError(RuntimeError):
    """The program under test could not be built or started."""


class Layout:
    """Where a checkout keeps its source and the benchmark its state."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        self.state = root / ".bench_build" / "perfbench"
        self.native = self.state / "native"
        self.pycache = self.state / "pycache"
        self.runs = self.state / "runs"
        self.counts = self.state / "counts"

    def check(self) -> None:
        if not (self.src / "repro" / "service" / "__main__.py").is_file():
            raise BenchSetupError(
                f"no repro sources under {self.src}: run from the root of "
                "a checkout")

    def server_env(self, store_dir: Path) -> dict[str, str]:
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.update(
            PYTHONPATH=str(self.src),
            PYTHONPYCACHEPREFIX=str(self.pycache),
            REPRO_BACKEND="native",
            REPRO_STORE_DIR=str(store_dir),
            REPRO_STORE_NATIVE_DIR=str(self.native),
        )
        return env


def cpu_plan() -> "tuple[int | None, int | None]":
    """``(server cpu, generator cpu)``; ``None`` when only one is usable."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[1]


def build_native(layout: Layout) -> None:
    """Compile the native kernels into the benchmark's native store."""
    layout.state.mkdir(parents=True, exist_ok=True)
    code = ("import sys; from repro.native import native_available; "
            "sys.exit(0 if native_available() else 3)")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=layout.server_env(layout.state),
        cwd=layout.state, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise BenchSetupError(
            f"native backend unavailable (rc={proc.returncode}): "
            f"{proc.stderr.strip()[-2000:]}")


class Server:
    """One running service process."""

    def __init__(self, proc: subprocess.Popen, store: Path,
                 start_ns: int) -> None:
        self.proc, self.store = proc, store
        self.port = 0
        #: Spawn and first 200 on ``/healthz``, ``time.monotonic_ns()``.
        self.boot_window = (start_ns, start_ns)
        #: CPU seconds the server tree had used by then.
        self.boot_cpu_s = 0.0

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then kill if it hangs; waits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def discard(self) -> None:
        self.stop()
        shutil.rmtree(self.store, ignore_errors=True)


def _read_port(proc: subprocess.Popen, deadline: float) -> int:
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or proc.poll() is not None:
            raise BenchSetupError(
                f"server did not start (exit code {proc.poll()})")
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if ready:
            line = proc.stdout.readline()
            if " listening on http://" in line:
                return int(line.split()[3].rsplit(":", 1)[1])
            if not line:
                raise BenchSetupError(
                    f"server closed its output (exit code {proc.wait()})")


def _healthz(port: int) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        resp.read()
        return resp.status
    finally:
        conn.close()


def boot(layout: Layout, store: Path, cpu: "int | None",
         traced_spans: "Path | None" = None) -> Server:
    """Spawn a server and time it to its first 200 on ``/healthz``."""
    store.mkdir(parents=True)
    if traced_spans is None:
        argv = [sys.executable, "-m", "repro.service"]
    else:
        argv = [sys.executable, str(HERE / "traced_server.py"),
                str(traced_spans)]
    argv += ["serve", "--port", "0"]
    log = open(store / "server.log", "w")
    start_ns = time.monotonic_ns()
    try:
        proc = subprocess.Popen(
            argv, env=layout.server_env(store), cwd=store,
            stdout=subprocess.PIPE, stderr=log, text=True)
    finally:
        log.close()
    if cpu is not None:
        os.sched_setaffinity(proc.pid, {cpu})
    server = Server(proc, store, start_ns)
    try:
        server.port = _read_port(proc, start_ns / 1e9 + BOOT_TIMEOUT_S)
        status = _healthz(server.port)
        server.boot_window = (start_ns, time.monotonic_ns())
        if status != 200:
            raise BenchSetupError(f"/healthz answered {status}")
        server.boot_cpu_s = procstat.tree_cpu_seconds(proc.pid)
    except BaseException:
        server.stop()
        raise
    return server


def server_log(store: Path) -> str:
    try:
        return (store / "server.log").read_text()[-4000:]
    except OSError:
        return ""
