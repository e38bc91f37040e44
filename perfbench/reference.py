"""The correctness gate: every answer against the event scheduler.

Each returned cycle count is a *claim* about one set of inputs.  The
reference for a claim is the event scheduler run on the same inputs in
the generator's own process, after the timed phase.  When a run makes
more distinct claims than ``budget``, a sample of ``budget`` of them,
drawn from the run seed, is re-computed; the rest are still checked for
shape (status, fields, point order).  A request fails when its status
is not 200, its transport failed, its body is malformed, or any of its
checked claims differs from the reference.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Hashable

from loadgen import Outcome
from workloads import Request

#: A claim key: ``("point", spec items...)`` or ``("tune", ...)``.
Key = tuple


@dataclass
class Verdict:
    """Result of checking one run's answers."""

    failed: set = field(default_factory=set)
    points: int = 0
    claims: int = 0
    checked: int = 0
    engines: Counter = field(default_factory=Counter)
    certificates: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)

    def fail(self, index: int, why: str) -> None:
        self.failed.add(index)
        if len(self.errors) < 10:
            self.errors.append(f"request {index}: {why}")


def _point_key(spec: dict) -> Key:
    fields = ("kernel", "model", "seed", "n", "k", "p", "w", "l", "d")
    defaults = {"k": 0, "seed": 20130520}
    return ("point",) + tuple(spec.get(f, defaults.get(f)) for f in fields)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _claims(req: Request, body: dict, verdict: Verdict
            ) -> "list[tuple[Key, int]] | str":
    """The (key, cycles) claims of one 200 answer, or why it is malformed."""
    if req.path == "/v1/cost":
        if not _is_count(body.get("cycles")):
            return "no cycle count"
        verdict.engines[body.get("engine", "?")] += 1
        verdict.points += 1
        return [(_point_key(req.body), body["cycles"])]
    if req.path == "/v1/sweep":
        points = body.get("points")
        lats = req.body["axes"]["l"]
        if not isinstance(points, list) or len(points) != len(lats):
            return "wrong number of sweep points"
        out = []
        for lat, point in zip(lats, points):
            if point.get("params", {}).get("l") != lat \
                    or not _is_count(point.get("cycles")):
                return "sweep point out of order or without cycles"
            verdict.engines[point.get("engine", "?")] += 1
            spec = {k: v for k, v in req.body.items() if k != "axes"}
            out.append((_point_key(dict(spec, l=lat)), point["cycles"]))
        verdict.points += len(points)
        return out
    # /v1/tune: the baseline and the best configuration at every latency.
    lats = [str(l) for l in req.body["latencies"]]
    out = []
    for role in ("baseline", "best"):
        result = body.get(role) or {}
        cycles = result.get("cycles") or {}
        config = result.get("config")
        if sorted(cycles) != sorted(lats) or not isinstance(config, dict) \
                or not all(_is_count(cycles[l]) for l in lats):
            return f"tune {role} is malformed"
        out.extend(
            (("tune", req.body["task"], tuple(sorted(config.items())), int(l)),
             cycles[l])
            for l in lats)
    evaluations = body.get("evaluations")
    if not _is_count(evaluations):
        return "tune without an evaluation count"
    verdict.certificates[body.get("certificate") or "none"] += 1
    verdict.points += evaluations * len(lats)
    return out


def check(requests: list[Request], outcomes: list[Outcome],
          reference: Callable[[Key], int], budget: int, seed: Hashable
          ) -> Verdict:
    """Check every outcome; re-compute at most ``budget`` distinct claims."""
    verdict = Verdict()
    by_key: dict[Key, list[tuple[int, int]]] = {}
    for out in outcomes:
        req = requests[out.index]
        if out.error or out.status != 200 or not isinstance(out.body, dict):
            verdict.fail(out.index, out.error or f"HTTP {out.status}")
            continue
        claims = _claims(req, out.body, verdict)
        if isinstance(claims, str):
            verdict.fail(out.index, claims)
            continue
        for key, cycles in claims:
            by_key.setdefault(key, []).append((out.index, cycles))
            verdict.claims += 1
    keys = sorted(by_key, key=repr)
    if len(keys) > budget:
        keys = random.Random(f"reference:{seed}").sample(keys, budget)
    for key in keys:
        expected = reference(key)
        for index, cycles in by_key[key]:
            verdict.checked += 1
            if cycles != expected:
                verdict.fail(index, f"{key}: served {cycles}, "
                                    f"event reference {expected}")
    return verdict


def event_reference(src: str) -> Callable[[Key], int]:
    """Reference cycles from the checkout's event scheduler.

    Imports the program under test from ``src`` into this process with
    the artifact store off, so the reference reads no served result.
    """
    import os
    import sys

    os.environ["REPRO_STORE"] = "off"
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.service.oracle import evaluate_point
    from repro.tuner.demos import get_task, run_config

    def reference(key: Key) -> int:
        if key[0] == "point":
            names = ("kernel", "model", "seed", "n", "k", "p", "w", "l", "d")
            spec = dict(zip(names, key[1:]), mode="event", backend="python")
            return evaluate_point(spec)[0]
        _, task, config, lat = key
        return run_config(task, dict(config), get_task(task).shape(None),
                          lat, "event")[0]

    return reference
