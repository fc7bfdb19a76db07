"""Experiment harness regenerating every figure of the paper's §8.

- :mod:`repro.experiments.config` — experiment parameter records.
- :mod:`repro.experiments.runner` — algorithm factories and the
  one-by-one / concurrent execution drivers.
- :mod:`repro.experiments.figures` — one entry point per paper figure
  (``fig4`` … ``fig15``), each returning a printable result.
- :mod:`repro.experiments.reporting` — plain-text tables of the series
  the paper plots.
"""

from repro.experiments.config import (
    CostExperiment,
    LoadExperiment,
    PAPER_ALGORITHMS,
)
from repro.experiments.runner import (
    make_tracker,
    execute_one_by_one,
    execute_concurrent,
    run_cost_sweep,
    run_load_experiment,
)
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.reporting import format_cost_table, format_load_table

__all__ = [
    "CostExperiment",
    "LoadExperiment",
    "PAPER_ALGORITHMS",
    "make_tracker",
    "execute_one_by_one",
    "execute_concurrent",
    "run_cost_sweep",
    "run_load_experiment",
    "FIGURES",
    "run_figure",
    "format_cost_table",
    "format_load_table",
]
