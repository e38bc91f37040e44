"""The native compiled backend: selection, build cache, and fallback.

Equivalence of the actual numbers lives in
``test_native_equivalence.py``; this file covers the machinery — the
``backend=`` / ``$REPRO_BACKEND`` resolution rules, the content-hashed
build cache in the artifact store, the warn-once Python fallback when
no compiler exists, and the per-backend counters.
"""

import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.metrics import PROCESS
from repro.native import (
    BACKEND_ENV,
    native_available,
    native_kernels,
    reset_native,
    resolve_backend,
)
from repro.native import build as native_build


@pytest.fixture(autouse=True)
def isolated_native(tmp_path, monkeypatch):
    """Each test gets a private store, a clean env, and fresh state."""
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.delenv("CC", raising=False)
    reset_native()
    PROCESS.reset()
    yield
    reset_native()
    PROCESS.reset()


class TestResolveBackend:
    def test_default_is_python(self):
        assert resolve_backend(None) == "python"
        assert resolve_backend("python") == "python"
        assert resolve_backend("native") == "native"

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "native")
        assert resolve_backend(None) == "native"
        # Explicit argument beats the environment.
        assert resolve_backend("python") == "python"

    def test_normalization(self, monkeypatch):
        assert resolve_backend(" Native ") == "native"
        monkeypatch.setenv(BACKEND_ENV, "  PYTHON ")
        assert resolve_backend(None) == "python"

    def test_invalid_argument(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("fortran")

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "cuda")
        with pytest.raises(ConfigurationError):
            resolve_backend(None)


@pytest.mark.skipif(
    not native_available(), reason="no usable C compiler on this host"
)
class TestBuildCache:
    def test_first_build_compiles_then_caches(self):
        reset_native()
        PROCESS.reset()
        assert native_kernels() is not None
        assert PROCESS["native.builds"] == 1
        assert PROCESS["native.build_cache_hits"] == 0
        # Same process, new state: the materialized .so is reused
        # without invoking the compiler.
        reset_native()
        assert native_kernels() is not None
        assert PROCESS["native.builds"] == 1
        assert PROCESS["native.build_cache_hits"] == 1

    def test_library_lands_in_store_namespace(self):
        assert native_kernels() is not None
        ns = native_build._store_namespace()
        key = native_build.build_key(
            native_build.SOURCE.read_text(),
            native_build.compiler_identity(native_build.compiler()),
        )
        # Framed store entry plus the loadable (unframed) copy.
        assert ns.get(key) is not None
        assert (ns.directory / "lib" / f"{key}.so").exists()

    def test_store_entry_rehydrates_lib(self):
        """Deleting the loadable copy re-materializes it from the store
        entry without recompiling."""
        assert native_kernels() is not None
        ns = native_build._store_namespace()
        key = native_build.build_key(
            native_build.SOURCE.read_text(),
            native_build.compiler_identity(native_build.compiler()),
        )
        (ns.directory / "lib" / f"{key}.so").unlink()
        reset_native()
        PROCESS.reset()
        assert native_kernels() is not None
        assert PROCESS["native.builds"] == 0
        assert PROCESS["native.build_cache_hits"] == 1
        assert (ns.directory / "lib" / f"{key}.so").exists()

    def test_concurrent_first_calls_build_once(self):
        """Threads racing on the first native call share one build."""
        import threading

        tables, errors = [], []

        def first_call():
            try:
                tables.append(native_kernels())
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=first_call) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(tables) == 8 and all(t is tables[0] for t in tables)
        assert PROCESS["native.builds"] \
            + PROCESS["native.build_cache_hits"] == 1

    def test_kernel_table_complete(self):
        kernels = native_kernels()
        assert set(kernels) == {
            "repro_replay_price",
            "repro_slot_counts",
            "repro_batch_sim",
            "repro_safe_prefix",
            "repro_wave_starts",
        }


class TestBoundPointers:
    """Buffers validated once by ``KernelDescription.pointers`` pass
    through a kernel call; anything mistyped still raises TypeError."""

    def _slot_counts(self, **override):
        kernel = native_kernels()["repro_slot_counts"]
        args = dict(n_list=2, ops=np.array([0, 1]),
                    addr_off=np.array([0, 2, 4]),
                    addresses=np.array([0, 4, 1, 2]), width=4, policy=0,
                    out=np.zeros(2, dtype=np.int64))
        args.update(override)
        return kernel, args

    def test_pointers_and_arrays_give_one_answer(self):
        kernel, args = self._slot_counts()
        assert kernel(*args.values()) == 0
        expected = args["out"].tolist()
        out = np.zeros(2, dtype=np.int64)
        bound = kernel.description.pointers(
            ops=args["ops"], addr_off=args["addr_off"],
            addresses=args["addresses"], out=out)
        assert kernel(*{**args, **bound}.values()) == 0
        assert out.tolist() == expected == [2, 1]

    @pytest.mark.parametrize("bad, match", [
        (np.array([0, 2, 4], dtype=np.int32), "dtype int64"),
        (np.array([0, 0, 2, 2, 4, 4])[::2], "C-contiguous"),
        ([0, 2, 4], "must be an ndarray"),
    ])
    def test_mistyped_buffer_raises(self, bad, match):
        kernel, args = self._slot_counts()
        with pytest.raises(TypeError, match=match):
            kernel.description.pointers(addr_off=bad)
        with pytest.raises(TypeError, match=match):
            kernel(*{**args, "addr_off": bad}.values())

    def test_pointer_of_other_element_type_raises(self):
        kernel, args = self._slot_counts()
        short = native_kernels()["repro_replay_price"].description.pointers(
            op_unit=np.zeros(3, dtype=np.int16))["op_unit"]
        with pytest.raises(TypeError, match="addr_off"):
            kernel(*{**args, "addr_off": short}.values())
        with pytest.raises(TypeError, match="no array argument"):
            kernel.description.pointers(width=np.zeros(1, dtype=np.int64))


class TestMissingCompilerFallback:
    def test_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("CC", "/bin/false")
        reset_native()
        PROCESS.reset()
        assert not native_available()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert native_kernels() is None
            assert native_kernels() is None
        relevant = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert len(relevant) == 1
        assert "falling back" in str(relevant[0].message)
        assert PROCESS["native.python_fallbacks"] == 2
        assert PROCESS["native.builds"] == 0

    def test_engine_still_runs(self, monkeypatch, rng):
        """backend="native" without a compiler silently prices in
        Python — same numbers, no exception."""
        import numpy as np

        from repro import DMM, MachineParams

        monkeypatch.setenv("CC", "/bin/false")
        reset_native()
        x = rng.normal(size=256)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            native = DMM(MachineParams(width=4, latency=5), mode="batch",
                         backend="native").sum(x, 32)
        python = DMM(MachineParams(width=4, latency=5), mode="batch",
                     backend="python").sum(x, 32)
        assert native[0] == python[0]
        assert native[1].cycles == python[1].cycles

    def test_nonexistent_compiler_detail(self, monkeypatch):
        monkeypatch.setenv("CC", "/no/such/compiler")
        reset_native()
        lib, how, detail = native_build.load_library()
        assert lib is None
        assert how == "unavailable"
        assert "no usable C compiler" in detail


class TestMetricsSnapshot:
    def test_snapshot_shape(self):
        snap = PROCESS["native"]
        for field in ("native_calls", "python_fallbacks",
                      "build_cache_hits", "builds"):
            assert isinstance(snap[field], int)
        assert snap["default_backend"] == "python"
        # Nothing has tried to build yet: availability is unknown, and
        # the snapshot must not trigger a compile to find out.
        assert snap["available"] is None
        assert PROCESS["native.builds"] == 0

    def test_snapshot_after_use(self):
        if not native_available():
            pytest.skip("no usable C compiler on this host")
        snap = PROCESS["native"]
        assert snap["available"] is True

    def test_invalid_env_reported(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "cuda")
        assert PROCESS["native"]["default_backend"] == "invalid"
