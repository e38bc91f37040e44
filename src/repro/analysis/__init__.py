"""Closed-form analysis of the memory machine models.

* :mod:`repro.analysis.terms` — composable cost terms (``n/w``,
  ``nl/p``, ``l·log n``, ...);
* :mod:`repro.analysis.costmodel` — Table I: the computing time of the
  sum and the direct convolution on every model;
* :mod:`repro.analysis.lower_bounds` — Table II: speed-up / bandwidth /
  latency / reduction limitations;
* :mod:`repro.analysis.tables` — renders both tables, symbolically and
  numerically;
* :mod:`repro.analysis.fitting` — least-squares fits of measured time
  units against the formula terms (the shape-agreement check);
* :mod:`repro.analysis.optimality` — verifies measured times sit between
  the lower bound and a constant multiple of the upper bound;
* :mod:`repro.analysis.sweeps` — parameter-sweep drivers used by the
  benchmarks and EXPERIMENTS.md;
* :mod:`repro.analysis.executor` — sharded process-pool sweep execution
  with a persistent on-disk result cache.
"""

from repro.analysis.advisor import Advice, Regime, UnitDiagnosis, diagnose
from repro.analysis.executor import (
    ResultCache,
    SweepExecutor,
    SweepProgress,
)
from repro.analysis.crossover import axis_values, crossover_point, saturation_point
from repro.analysis.costmodel import (
    CONV_FORMULAS,
    SUM_FORMULAS,
    convolution_time,
    sum_time,
)
from repro.analysis.fitting import FitResult, fit_terms
from repro.analysis.lower_bounds import (
    CONV_BOUNDS,
    SUM_BOUNDS,
    convolution_lower_bound,
    sum_lower_bound,
)
from repro.analysis.optimality import OptimalityReport, check_optimality
from repro.analysis.sweeps import SweepPoint, run_sweep
from repro.analysis.tables import render_table1, render_table2
from repro.analysis.terms import Params, Term, Formula

__all__ = [
    "Advice",
    "CONV_BOUNDS",
    "CONV_FORMULAS",
    "FitResult",
    "Formula",
    "OptimalityReport",
    "Params",
    "ResultCache",
    "SUM_BOUNDS",
    "SUM_FORMULAS",
    "SweepExecutor",
    "SweepPoint",
    "SweepProgress",
    "Term",
    "axis_values",
    "check_optimality",
    "crossover_point",
    "saturation_point",
    "Regime",
    "UnitDiagnosis",
    "convolution_lower_bound",
    "diagnose",
    "convolution_time",
    "fit_terms",
    "render_table1",
    "render_table2",
    "run_sweep",
    "sum_lower_bound",
    "sum_time",
]
