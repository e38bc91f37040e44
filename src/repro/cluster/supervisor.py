"""Boot, supervise, and kill the worker ring.

Two deployment shapes share one API surface:

* :class:`ClusterSupervisor` — real subprocesses, one
  ``python -m repro.service serve`` per shard, each with a private
  ``REPRO_STORE_DIR`` (its own artifact store) and result-cache
  directory.  This is what benchmarks and the ``serve`` CLI use:
  separate interpreters mean real parallelism (no shared GIL) and
  :meth:`ClusterSupervisor.kill_shard` delivers a genuine SIGKILL for
  chaos runs.
* :class:`BackgroundCluster` — the same topology inside one process
  (thread-per-shard :class:`~repro.service.server.BackgroundServer`
  plus a :class:`BackgroundRouter`).  For tests and runnable docs:
  no subprocess spawn cost, deterministic teardown, still exercising
  the full wire protocol over loopback sockets.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.cluster.router import ClusterRouter
from repro.service.server import BackgroundLoop, BackgroundServer

__all__ = ["ClusterSupervisor", "BackgroundCluster", "BackgroundRouter"]


def _free_port() -> int:
    """An OS-assigned free TCP port (raceable in principle, fine here)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_healthy(url: str, timeout_s: float) -> None:
    from repro.service.client import ServiceClient

    deadline = time.monotonic() + timeout_s
    last: "Exception | None" = None
    while time.monotonic() < deadline:
        try:
            ServiceClient(url, timeout=2.0, retries=0).healthz()
            return
        except Exception as exc:  # noqa: BLE001 - still booting
            last = exc
            time.sleep(0.05)
    raise TimeoutError(f"shard at {url} not healthy after {timeout_s}s: {last}")


class ClusterSupervisor:
    """N subprocess shards, each a full ``repro.service`` server.

    Parameters
    ----------
    num_shards:
        Ring size.
    store_root:
        Parent directory; shard ``i`` gets ``store_root/shard-i`` as its
        ``REPRO_STORE_DIR`` (artifact store) and result-cache dir.
    jobs, max_batch_size, queue_bound:
        Per-shard service knobs, passed through to ``serve``.
    extra_args:
        Extra ``serve`` CLI flags appended to every shard's command
        line (e.g. ``["--no-telemetry"]``).
    """

    def __init__(
        self,
        num_shards: int = 3,
        *,
        store_root: "Path | str",
        jobs: "int | str" = 1,
        cache: bool = True,
        max_batch_size: int = 32,
        queue_bound: int = 1024,
        boot_timeout_s: float = 30.0,
        extra_args: "list[str] | None" = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.store_root = Path(store_root)
        self.jobs = jobs
        self.cache = cache
        self.max_batch_size = max_batch_size
        self.queue_bound = queue_bound
        self.boot_timeout_s = boot_timeout_s
        self.extra_args = list(extra_args or [])
        self.shard_urls: list[str] = []
        self._procs: list["subprocess.Popen | None"] = []

    # -- lifecycle ---------------------------------------------------------
    def _launch(self, index: int) -> str:
        """Boot shard ``index`` (its own store + cache dirs); no wait."""
        port = _free_port()
        shard_dir = self.store_root / f"shard-{index}"
        env = dict(os.environ)
        env["REPRO_STORE_DIR"] = str(shard_dir / "store")
        env.setdefault("PYTHONPATH", "")
        cmd = [
            sys.executable, "-m", "repro.service", "serve",
            "--host", "127.0.0.1", "--port", str(port),
            "--jobs", str(self.jobs),
            "--max-batch-size", str(self.max_batch_size),
            "--queue-bound", str(self.queue_bound),
        ]
        if self.cache:
            cmd += ["--cache-dir", str(shard_dir / "cache")]
        else:
            cmd += ["--no-cache"]
        cmd += self.extra_args
        proc = subprocess.Popen(
            cmd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self._procs.append(proc)
        url = f"http://127.0.0.1:{port}"
        self.shard_urls.append(url)
        return url

    def start(self) -> list[str]:
        """Launch every shard and wait until all answer ``/healthz``."""
        assert not self._procs, "already started"
        self.store_root.mkdir(parents=True, exist_ok=True)
        for index in range(self.num_shards):
            self._launch(index)
        try:
            for url in self.shard_urls:
                _wait_healthy(url, self.boot_timeout_s)
        except Exception:
            self.stop()
            raise
        return list(self.shard_urls)

    def spawn_shard(self) -> str:
        """Boot one *additional* shard and wait for it; returns its URL.

        The new shard is not ring traffic yet — POST its URL to the
        router's ``/v1/ring/add`` to start routing to it (see
        docs/TELEMETRY.md for the membership walkthrough).
        """
        self.store_root.mkdir(parents=True, exist_ok=True)
        url = self._launch(len(self._procs))
        _wait_healthy(url, self.boot_timeout_s)
        return url

    def kill_shard(self, index: int, *, sig: int = signal.SIGKILL) -> str:
        """Abruptly kill one shard (chaos testing); returns its URL."""
        proc = self._procs[index]
        if proc is not None and proc.poll() is None:
            proc.send_signal(sig)
            proc.wait(timeout=10)
        self._procs[index] = None
        return self.shard_urls[index]

    def stop(self) -> None:
        """Graceful ring drain: SIGTERM every shard, SIGKILL stragglers."""
        for proc in self._procs:
            if proc is not None and proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + 15
        for proc in self._procs:
            if proc is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5)
        self._procs = []
        self.shard_urls = []

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class BackgroundRouter(BackgroundLoop):
    """A :class:`~repro.cluster.router.ClusterRouter` on a
    :class:`~repro.service.server.BackgroundLoop`, like
    :class:`~repro.service.server.BackgroundServer`: enter the context
    manager, talk to :attr:`url`, exit to drain.
    """

    def __init__(self, shard_urls: list[str], **router_kwargs) -> None:
        shard_urls = list(shard_urls)
        super().__init__(lambda: ClusterRouter(shard_urls, **router_kwargs))

    @property
    def router(self) -> "ClusterRouter | None":
        return self.door


class BackgroundCluster:
    """A whole ring in one process: N thread shards + a thread router.

    >>> from repro.cluster import BackgroundCluster           # doctest: +SKIP
    >>> with BackgroundCluster(num_shards=3) as cluster:      # doctest: +SKIP
    ...     ServiceClient(cluster.url).cost("sum", "hmm", {"n": 4096, "p": 64})

    Shard result caches are isolated per shard under ``cache_root``
    (pass ``None`` for cache-off shards).  Because every shard lives in
    this process, throughput is GIL-bound — use
    :class:`ClusterSupervisor` to measure scaling; use this for
    correctness, warming, and failure-semantics tests.
    """

    def __init__(
        self,
        num_shards: int = 3,
        *,
        cache_root: "Path | str | None" = None,
        server_kwargs: "dict | None" = None,
        **router_kwargs,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.cache_root = None if cache_root is None else Path(cache_root)
        self._server_kwargs = dict(server_kwargs or {})
        self._router_kwargs = router_kwargs
        self.servers: list = []
        self._router: "BackgroundRouter | None" = None
        self.url = ""

    @property
    def shard_urls(self) -> list[str]:
        return [srv.url for srv in self.servers]

    @property
    def router(self) -> "ClusterRouter | None":
        return self._router.router if self._router else None

    def __enter__(self) -> "BackgroundCluster":
        try:
            for _ in range(self.num_shards):
                self._boot_shard()
            self._router = BackgroundRouter(self.shard_urls,
                                            **self._router_kwargs)
            self._router.__enter__()
            self.url = self._router.url
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        if self._router is not None:
            self._router.stop()
            self._router = None
        for server in self.servers:
            server.stop()
        self.servers = []

    def stop_shard(self, index: int) -> str:
        """Gracefully drain one shard (its URL keeps failing fast after).

        Thread shards can't be SIGKILLed; for abrupt-death chaos runs
        use :class:`ClusterSupervisor`.
        """
        server = self.servers[index]
        url = server.url
        server.stop()
        return url

    def add_shard(self) -> str:
        """Boot one more thread shard; returns its URL.

        Same cache layout as the initial shards (``cache_root/shard-N``).
        Like :meth:`ClusterSupervisor.spawn_shard`, the new shard serves
        but receives no ring traffic until ``/v1/ring/add`` names it.
        """
        return self._boot_shard().url

    def _boot_shard(self) -> BackgroundServer:
        index = len(self.servers)
        kwargs = dict(self._server_kwargs)
        if self.cache_root is None:
            kwargs.setdefault("cache", False)
        else:
            kwargs.setdefault("cache", True)
            kwargs.setdefault("cache_dir", self.cache_root / f"shard-{index}")
        server = BackgroundServer(**kwargs)
        server.__enter__()
        self.servers.append(server)
        return server
