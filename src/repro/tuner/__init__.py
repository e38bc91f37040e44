"""Layout & launch autotuner.

Searches a kernel's tunable space — per-array bank padding/skew,
index permutations, thread count against the ``p >= lw`` occupancy
rule, dispatch policy — for the configuration minimizing modeled time
units, using trace replay to re-cost oblivious candidates and the
:class:`~repro.analysis.executor.SweepExecutor` to fan evaluation out.
See ``docs/TUNER.md``.
"""

from repro.tuner.demos import TASKS, TuneTask, get_task, run_config
from repro.tuner.search import (
    STRATEGIES,
    AnnealSearch,
    ExhaustiveSearch,
    GreedySearch,
    RandomSearch,
    SearchStrategy,
    make_strategy,
)
from repro.tuner.space import Axis, ParamSpace
from repro.tuner.transforms import (
    Compose,
    Identity,
    Pad,
    Permute,
    Skew,
    Transform,
    TransformedArray,
    compose,
    wrap,
)
from repro.tuner.tuner import (
    DEFAULT_LATENCIES,
    CandidateResult,
    TuneReport,
    measure_candidate,
    resolve_tune_mode,
    tune,
)

__all__ = [
    # spaces
    "Axis",
    "ParamSpace",
    # transforms
    "Transform",
    "Identity",
    "Pad",
    "Skew",
    "Permute",
    "Compose",
    "compose",
    "TransformedArray",
    "wrap",
    # search
    "SearchStrategy",
    "ExhaustiveSearch",
    "RandomSearch",
    "GreedySearch",
    "AnnealSearch",
    "STRATEGIES",
    "make_strategy",
    # tasks
    "TuneTask",
    "TASKS",
    "get_task",
    "run_config",
    # orchestrator
    "tune",
    "TuneReport",
    "CandidateResult",
    "DEFAULT_LATENCIES",
    "resolve_tune_mode",
    "measure_candidate",
]
