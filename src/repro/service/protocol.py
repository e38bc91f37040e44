"""Wire protocol of the cost-oracle service: parsing and validation.

Every endpoint speaks JSON.  Requests are validated *here*, before any
simulator work is queued, and malformed input is rejected with a
:class:`ProtocolError` that the server renders as a structured ``400``
body::

    {"error": {"code": "invalid_param", "field": "w",
               "message": "w must be a positive power of two, got 0"}}

The parsed form of a cost query is a **spec**: a flat, JSON-able,
picklable dict ``{kernel, model, mode, seed, n, k, p, w, l, d}``.  The
spec doubles as

* the micro-batcher's coalescing key (identical specs in one batching
  window are evaluated once — see :mod:`repro.service.batcher`), and
* the parameter point of the sweep executor's persistent result cache
  (see :class:`repro.analysis.executor.SweepExecutor`),

so a spec *is* the identity of a measurement, end to end.

Size limits (``MAX_N``, ``MAX_THREADS``, ``MAX_GRID_POINTS``, ...) bound
the work one request can demand; they protect the service, not the
model — library callers can go as large as they like in-process.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

__all__ = [
    "DEFAULT_SEED",
    "KERNELS",
    "MODELS",
    "MODES",
    "BACKENDS",
    "MACHINE_MODELS",
    "MAX_N",
    "MAX_KERNEL_LEN",
    "MAX_THREADS",
    "MAX_WIDTH",
    "MAX_LATENCY",
    "MAX_DMMS",
    "MAX_GRID_POINTS",
    "TUNE_TASKS",
    "TUNE_STRATEGIES",
    "TUNE_MODES",
    "MAX_TUNE_BUDGET",
    "MAX_TUNE_LATENCIES",
    "MAX_PUSH_ENTRY_BYTES",
    "ProtocolError",
    "parse_cost_request",
    "parse_sweep_request",
    "parse_advise_request",
    "parse_tune_request",
    "parse_store_push",
    "parse_store_pull",
    "parse_events_query",
    "parse_ring_change",
    "MAX_EVENTS_TIMEOUT_S",
    "spec_key",
]

#: Seed of the experiment drivers (table1's default); using the same
#: default keeps service answers bit-identical to the offline sweeps.
DEFAULT_SEED = 20130520

KERNELS = ("sum", "convolution")
MODELS = ("sequential", "pram", "dmm", "umm", "hmm")
#: Models that simulate a memory machine (and therefore can be advised).
MACHINE_MODELS = ("dmm", "umm", "hmm")
MODES = ("batch", "event", "replay")
#: Cost-model backends a request may name.  ``"auto"`` (the default)
#: defers to the server's ``$REPRO_BACKEND``; results are bit-identical
#: under every choice, so the backend is not part of the cache identity
#: (:func:`spec_key`).
BACKENDS = ("auto", "python", "native")

MAX_N = 1 << 22
MAX_KERNEL_LEN = 1 << 12
MAX_THREADS = 1 << 18
MAX_WIDTH = 1 << 10
MAX_LATENCY = 1 << 16
MAX_DMMS = 1 << 10
#: Ceiling on the expanded size of a ``/v1/sweep`` grid.
MAX_GRID_POINTS = 4096

#: Spec fields in canonical order (the wire and cache-key layout).
_SPEC_FIELDS = ("kernel", "model", "mode", "seed", "n", "k", "p", "w", "l", "d")

_PARAM_LIMITS = {
    "n": (1, MAX_N),
    "p": (1, MAX_THREADS),
    "w": (1, MAX_WIDTH),
    "l": (1, MAX_LATENCY),
    "d": (1, MAX_DMMS),
}
_PARAM_DEFAULTS = {"w": 16, "l": 16, "d": 8, "k": 0}


class ProtocolError(Exception):
    """A request the service refuses to act on (rendered as HTTP 400)."""

    def __init__(
        self, message: str, *, field: str | None = None,
        code: str = "invalid_request",
    ) -> None:
        super().__init__(message)
        self.message = message
        self.field = field
        self.code = code

    def body(self) -> dict:
        """The structured JSON error body."""
        error: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.field is not None:
            error["field"] = self.field
        return {"error": error}


def _require_object(payload: Any, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"{what} must be a JSON object, got {type(payload).__name__}",
            code="invalid_body",
        )
    return payload


def _int_field(
    payload: Mapping, name: str, *, default: int | None = None,
    low: int = 1, high: int | None = None,
) -> int:
    value = payload.get(name, default)
    if value is None:
        raise ProtocolError(f"missing required field {name!r}", field=name,
                            code="missing_param")
    # bool is an int subclass; `"w": true` is malformed, not width 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            f"{name} must be an integer, got {value!r}", field=name,
            code="invalid_param",
        )
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ProtocolError(
            f"{name} must be {bound}, got {value}", field=name,
            code="invalid_param",
        )
    return value


def _choice_field(
    payload: Mapping, name: str, choices: tuple[str, ...], default: str | None,
) -> str:
    value = payload.get(name, default)
    if value not in choices:
        raise ProtocolError(
            f"{name} must be one of {', '.join(choices)}, got {value!r}",
            field=name, code="invalid_param",
        )
    return value


def _validate_shape(spec: dict) -> dict:
    """Cross-field rules shared by every endpoint."""
    w = spec["w"]
    if w & (w - 1) != 0:
        raise ProtocolError(
            f"w must be a positive power of two, got {w}", field="w",
            code="invalid_param",
        )
    if spec["kernel"] == "convolution":
        if spec["k"] < 1:
            raise ProtocolError(
                "convolution requires k >= 1", field="k", code="invalid_param",
            )
        if spec["k"] > spec["n"]:
            raise ProtocolError(
                f"the paper assumes k <= n; got k={spec['k']}, n={spec['n']}",
                field="k", code="invalid_param",
            )
    elif spec["k"] != 0:
        raise ProtocolError(
            f"k only applies to the convolution kernel, got k={spec['k']}",
            field="k", code="invalid_param",
        )
    return spec


def _parse_spec(payload: Mapping) -> dict:
    """One validated (kernel, model, mode, seed, point) spec."""
    spec: dict[str, Any] = {
        "kernel": _choice_field(payload, "kernel", KERNELS, None),
        "model": _choice_field(payload, "model", MODELS, None),
        "mode": _choice_field(payload, "mode", MODES, "replay"),
        "backend": _choice_field(payload, "backend", BACKENDS, "auto"),
        "seed": _int_field(payload, "seed", default=DEFAULT_SEED, low=0,
                           high=(1 << 63) - 1),
    }
    for name, (low, high) in _PARAM_LIMITS.items():
        spec[name] = _int_field(payload, name,
                                default=_PARAM_DEFAULTS.get(name),
                                low=low, high=high)
    spec["k"] = _int_field(payload, "k", default=0, low=0, high=MAX_KERNEL_LEN)
    unknown = set(payload) - set(_SPEC_FIELDS) - {"backend"}
    if unknown:
        raise ProtocolError(
            f"unknown field(s): {', '.join(sorted(unknown))}",
            field=sorted(unknown)[0], code="unknown_field",
        )
    out = {name: spec[name] for name in _SPEC_FIELDS}
    out["backend"] = spec["backend"]
    return _validate_shape(out)


def parse_cost_request(payload: Any) -> dict:
    """Validate a ``POST /v1/cost`` body into a spec dict."""
    return _parse_spec(_require_object(payload, "cost request"))


def parse_advise_request(params: Mapping[str, str]) -> dict:
    """Validate ``GET /v1/advise`` query parameters into a spec dict.

    Query values arrive as strings; integers are converted before the
    shared spec validation runs.  Advice needs per-unit statistics, so
    only the memory-machine models qualify.
    """
    converted: dict[str, Any] = {}
    for name, raw in params.items():
        if name in ("kernel", "model", "mode", "backend"):
            converted[name] = raw
        else:
            try:
                converted[name] = int(raw)
            except (TypeError, ValueError):
                raise ProtocolError(
                    f"{name} must be an integer, got {raw!r}", field=name,
                    code="invalid_param",
                ) from None
    spec = _parse_spec(converted)
    if spec["model"] not in MACHINE_MODELS:
        raise ProtocolError(
            "advise requires a memory-machine model "
            f"({', '.join(MACHINE_MODELS)}), got {spec['model']!r}",
            field="model", code="invalid_param",
        )
    return spec


def parse_sweep_request(payload: Any) -> tuple[dict, list[dict]]:
    """Validate a ``POST /v1/sweep`` body.

    The body names one (kernel, model, mode, seed) and an ``axes``
    object mapping parameter names to value lists::

        {"kernel": "sum", "model": "hmm",
         "axes": {"n": [1024, 4096], "p": [64, 256], "l": [16, 128]}}

    Returns ``(base_spec, specs)`` where ``specs`` is the expanded grid
    (cartesian product, axis order preserved), every point individually
    validated.  Grids larger than :data:`MAX_GRID_POINTS` are rejected
    before expansion.
    """
    body = _require_object(payload, "sweep request")
    axes_raw = body.get("axes")
    axes = _require_object(
        axes_raw if axes_raw is not None else None, "axes")
    if not axes:
        raise ProtocolError("axes must name at least one parameter",
                            field="axes", code="invalid_param")
    sweepable = set(_PARAM_LIMITS) | {"k"}
    total = 1
    for name, values in axes.items():
        if name not in sweepable:
            raise ProtocolError(
                f"axes.{name} is not sweepable (allowed: "
                f"{', '.join(sorted(sweepable))})",
                field=f"axes.{name}", code="invalid_param",
            )
        if not isinstance(values, (list, tuple)) or not values:
            raise ProtocolError(
                f"axes.{name} must be a non-empty list", field=f"axes.{name}",
                code="invalid_param",
            )
        total *= len(values)
        if total > MAX_GRID_POINTS:
            raise ProtocolError(
                f"sweep grid exceeds {MAX_GRID_POINTS} points",
                field="axes", code="grid_too_large",
            )
    scalars = {k: v for k, v in body.items() if k != "axes"}
    points: list[dict] = [{}]
    for name, values in axes.items():
        points = [{**pt, name: v} for pt in points for v in values]
    specs = []
    for pt in points:
        merged = {**scalars, **pt}
        try:
            specs.append(_parse_spec(merged))
        except ProtocolError as exc:
            raise ProtocolError(
                f"grid point {pt}: {exc.message}", field=exc.field,
                code=exc.code,
            ) from None
    meta = {name: specs[0][name] for name in ("kernel", "model", "mode", "seed")}
    return meta, specs


def spec_key(spec: Mapping) -> str:
    """Canonical string identity of a spec (batcher coalescing key)."""
    return json.dumps({k: spec[k] for k in _SPEC_FIELDS}, sort_keys=True)


# ---------------------------------------------------------------------------
# POST /v1/tune
# ---------------------------------------------------------------------------

#: Demo task names, mirrored statically from ``repro.tuner.demos.TASKS``
#: so the protocol layer stays import-light (a test pins the mirror).
TUNE_TASKS = ("gather", "permutation", "sort", "sum", "transpose")
TUNE_STRATEGIES = ("exhaustive", "random", "greedy", "anneal")
TUNE_MODES = ("auto",) + MODES

MAX_TUNE_BUDGET = 256
MAX_TUNE_LATENCIES = 16

#: Shape overrides a tune request may set, with service-side caps (the
#: library accepts anything; these bound one HTTP request's work).
_TUNE_SHAPE_LIMITS = {
    "w": (1, 64),
    "d": (1, 64),
    "m": (1, 256),
    "n": (1, 1 << 16),
}


def parse_tune_request(payload: Any) -> dict:
    """Validate a ``POST /v1/tune`` body into a tune spec dict.

    The body names a demo task and, optionally, the search strategy,
    evaluation budget, engine mode, seed, latency grid, and shape
    overrides::

        {"task": "transpose", "strategy": "greedy", "budget": 8,
         "latencies": [4, 16, 64], "shape": {"m": 64}}

    Returns ``{task, strategy, budget, mode, seed, latencies, shape}``
    with ``budget``/``latencies`` as ``None`` when defaulted.  Shape
    keys are capped but not cross-checked against the task here — the
    oracle maps the library's ``ConfigurationError`` to a 400.
    """
    body = _require_object(payload, "tune request")
    allowed = {"task", "strategy", "budget", "mode", "seed", "latencies",
               "shape"}
    unknown = sorted(set(body) - allowed)
    if unknown:
        raise ProtocolError(
            f"unknown field {unknown[0]!r} (allowed: "
            f"{', '.join(sorted(allowed))})",
            field=unknown[0], code="invalid_param",
        )
    spec: dict[str, Any] = {
        "task": _choice_field(body, "task", TUNE_TASKS, None),
        "strategy": _choice_field(body, "strategy", TUNE_STRATEGIES,
                                  "exhaustive"),
        "mode": _choice_field(body, "mode", TUNE_MODES, "auto"),
        "seed": _int_field(body, "seed", default=0, low=0),
    }
    spec["budget"] = (
        None if body.get("budget") is None
        else _int_field(body, "budget", low=1, high=MAX_TUNE_BUDGET)
    )
    lats = body.get("latencies")
    if lats is None:
        spec["latencies"] = None
    else:
        if not isinstance(lats, (list, tuple)) or not lats:
            raise ProtocolError(
                "latencies must be a non-empty list of integers",
                field="latencies", code="invalid_param",
            )
        if len(lats) > MAX_TUNE_LATENCIES:
            raise ProtocolError(
                f"at most {MAX_TUNE_LATENCIES} latency points per tune "
                f"request, got {len(lats)}",
                field="latencies", code="grid_too_large",
            )
        for v in lats:
            if isinstance(v, bool) or not isinstance(v, int) \
                    or not 1 <= v <= MAX_LATENCY:
                raise ProtocolError(
                    f"latencies entries must be integers in "
                    f"[1, {MAX_LATENCY}], got {v!r}",
                    field="latencies", code="invalid_param",
                )
        spec["latencies"] = [int(v) for v in lats]
    shape_raw = body.get("shape")
    shape: dict[str, int] = {}
    if shape_raw is not None:
        shape_body = _require_object(shape_raw, "shape")
        for key in shape_body:
            if key not in _TUNE_SHAPE_LIMITS:
                raise ProtocolError(
                    f"shape.{key} is not tunable over HTTP (allowed: "
                    f"{', '.join(sorted(_TUNE_SHAPE_LIMITS))})",
                    field=f"shape.{key}", code="invalid_param",
                )
            low, high = _TUNE_SHAPE_LIMITS[key]
            shape[key] = _int_field(shape_body, key, low=low, high=high)
    spec["shape"] = shape
    return spec


# ---------------------------------------------------------------------------
# POST /v1/store/push · GET /v1/store/pull  (cluster cache warming)
# ---------------------------------------------------------------------------

#: Ceiling on one pushed entry's framed size, decoded.  Must leave room
#: for base64 expansion (4/3) plus the JSON wrapper inside the server's
#: 1 MiB body cap.
MAX_PUSH_ENTRY_BYTES = 700_000

_STORE_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")
_STORE_KEY_OK = _STORE_NAME_OK | set("abcdef0123456789.")


def _store_name_field(payload: Mapping, name: str, allowed: frozenset,
                      max_len: int) -> str:
    value = payload.get(name)
    if not isinstance(value, str) or not value or len(value) > max_len \
            or not set(value.lower()) <= allowed:
        raise ProtocolError(
            f"{name} must be a short [a-z0-9-_] string, got {value!r}",
            field=name, code="invalid_param",
        )
    return value


def parse_store_push(payload: Any) -> tuple[str, str, bytes]:
    """Validate a ``POST /v1/store/push`` body into (namespace, key, blob).

    ``blob`` is the base64-decoded framed store entry — the PR 6
    integrity envelope plus payload, exactly as it sits on the sender's
    disk.  Only the transport is validated here; the envelope itself
    (magic, digest, size) is checked by
    :meth:`repro.store.Namespace.put_framed` on the receiving store, so
    an entry corrupted in flight is rejected, never stored.
    """
    import base64
    import binascii

    body = _require_object(payload, "store push")
    namespace = _store_name_field(body, "namespace", frozenset(_STORE_NAME_OK),
                                  64)
    key = _store_name_field(body, "key", frozenset(_STORE_KEY_OK), 256)
    entry = body.get("entry")
    if not isinstance(entry, str) or not entry:
        raise ProtocolError("entry must be a base64 string", field="entry",
                            code="invalid_param")
    try:
        blob = base64.b64decode(entry.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError):
        raise ProtocolError("entry is not valid base64", field="entry",
                            code="invalid_param") from None
    if len(blob) > MAX_PUSH_ENTRY_BYTES:
        raise ProtocolError(
            f"entry exceeds {MAX_PUSH_ENTRY_BYTES} bytes", field="entry",
            code="body_too_large",
        )
    return namespace, key, blob


def parse_store_pull(params: Mapping[str, str]) -> tuple[str, str]:
    """Validate ``GET /v1/store/pull`` query params into (namespace, key)."""
    namespace = _store_name_field(params, "namespace",
                                  frozenset(_STORE_NAME_OK), 64)
    key = _store_name_field(params, "key", frozenset(_STORE_KEY_OK), 256)
    return namespace, key


# ---------------------------------------------------------------------------
# GET /v1/events · POST /v1/ring/{add,drain}  (telemetry + membership)
# ---------------------------------------------------------------------------

#: Ceiling on one long-poll's server-side wait.  Keeps a poll request
#: from pinning a connection longer than the clients' own timeouts.
MAX_EVENTS_TIMEOUT_S = 60.0


def parse_events_query(params: Mapping[str, str]) -> dict:
    """Validate ``GET /v1/events`` query params.

    Returns ``{"mode", "from_seq", "timeout_s", "limit"}``.  ``mode``
    is ``"sse"`` (default — a live stream, no Content-Length) or
    ``"poll"`` (one long-poll round returning a JSON body).  ``from``
    is the resume cursor (events with ``seq > from`` are delivered);
    ``timeout`` bounds a poll's wait; ``limit`` caps delivered events —
    under SSE the *server* closes the stream once it is reached.
    """
    mode = params.get("mode", "sse")
    if mode not in ("sse", "poll"):
        raise ProtocolError(
            f"mode must be 'sse' or 'poll', got {mode!r}", field="mode",
            code="invalid_param",
        )
    out: dict[str, Any] = {"mode": mode}
    raw = params.get("from", "0")
    try:
        from_seq = int(raw)
    except (TypeError, ValueError):
        raise ProtocolError(f"from must be an integer, got {raw!r}",
                            field="from", code="invalid_param") from None
    if from_seq < 0:
        raise ProtocolError(f"from must be >= 0, got {from_seq}",
                            field="from", code="invalid_param")
    out["from_seq"] = from_seq
    raw = params.get("timeout", "25")
    try:
        timeout_s = float(raw)
    except (TypeError, ValueError):
        raise ProtocolError(f"timeout must be a number, got {raw!r}",
                            field="timeout", code="invalid_param") from None
    if not 0.0 <= timeout_s <= MAX_EVENTS_TIMEOUT_S:
        raise ProtocolError(
            f"timeout must be in [0, {MAX_EVENTS_TIMEOUT_S:g}], got {raw}",
            field="timeout", code="invalid_param",
        )
    out["timeout_s"] = timeout_s
    raw = params.get("limit")
    if raw is None:
        out["limit"] = None
    else:
        try:
            limit = int(raw)
        except (TypeError, ValueError):
            raise ProtocolError(f"limit must be an integer, got {raw!r}",
                                field="limit", code="invalid_param") from None
        if limit < 1:
            raise ProtocolError(f"limit must be >= 1, got {limit}",
                                field="limit", code="invalid_param")
        out["limit"] = limit
    return out


def parse_ring_change(payload: Any) -> str:
    """Validate a ``POST /v1/ring/add`` / ``/v1/ring/drain`` body.

    The body names one shard: ``{"url": "http://host:port"}``.  Returns
    the normalized base URL (scheme + host + explicit port, no path),
    which is the ring's member identity.
    """
    from urllib.parse import urlsplit

    body = _require_object(payload, "ring change")
    unknown = sorted(set(body) - {"url"})
    if unknown:
        raise ProtocolError(
            f"unknown field {unknown[0]!r} (allowed: url)",
            field=unknown[0], code="invalid_param",
        )
    raw = body.get("url")
    if not isinstance(raw, str) or not raw:
        raise ProtocolError("url must be a non-empty string", field="url",
                            code="missing_param")
    split = urlsplit(raw)
    if split.scheme != "http" or not split.hostname or split.port is None:
        raise ProtocolError(
            f"url must look like http://host:port, got {raw!r}",
            field="url", code="invalid_param",
        )
    return f"http://{split.hostname}:{split.port}"
