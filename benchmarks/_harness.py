"""Shared bench logic (imported by conftest.py and the bench modules)."""

from __future__ import annotations

import os

from repro.analysis.asciiplot import render_error_plot
from repro.analysis.tables import render_table
from repro.experiments import environment
from repro.experiments.figures import FIGURES
from repro.experiments.protocol import draw_transfer_pairs
from repro.experiments.runner import run_experiment


def default_repetitions(fallback: int = 5) -> int:
    """Benches' repetition count (paper used 10; 5 keeps wall-time sane)."""
    raw = os.environ.get("REPRO_REPS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return fallback


def root_seed(fallback: int = 20120917) -> int:
    """Root seed for every stochastic draw (date of CLUSTER 2012 week)."""
    raw = os.environ.get("REPRO_SEED", "")
    try:
        return int(raw)
    except ValueError:
        return fallback


class FigureHarness:
    """Session-cached experiment results + prediction workloads."""

    def __init__(self) -> None:
        self.forecast = environment.forecast_service()
        self.testbed = environment.testbed()
        self.seed = root_seed()
        self.repetitions = default_repetitions()
        self._series: dict[tuple, object] = {}

    def series(self, fig_id: str, platform_name: str = "g5k_test",
               sizes=None, repetitions=None):
        key = (fig_id, platform_name, sizes, repetitions)
        if key not in self._series:
            figure = FIGURES[fig_id]
            self._series[key] = run_experiment(
                figure.spec, self.forecast, self.testbed,
                platform_name=platform_name, seed=self.seed,
                repetitions=repetitions or self.repetitions, sizes=sizes,
            )
        return self._series[key]

    def verify(self, fig_id: str, series) -> list[str]:
        return FIGURES[fig_id].verify(series)

    def prediction_workload(self, fig_id: str, size: float = 5e8):
        """The PNFS request matching one repetition of the figure."""
        figure = FIGURES[fig_id]
        pairs = draw_transfer_pairs(figure.spec, self.seed)
        return [(src, dst, size) for src, dst in pairs]


def figure_bench(harness: FigureHarness, console, benchmark, fig_id: str) -> None:
    """The common body of every per-figure bench: run, print, assert, time."""
    series = harness.series(fig_id)
    console(render_error_plot(series))
    console(render_table(
        ["size", "median err", "q1", "q3", "median duration (s)", "n"],
        series.rows(),
        title=f"{fig_id}: {FIGURES[fig_id].title} "
              f"(reps={harness.repetitions}, seed={harness.seed})",
    ))
    failures = harness.verify(fig_id, series)
    assert failures == [], "\n".join(failures)
    workload = harness.prediction_workload(fig_id)
    benchmark(lambda: harness.forecast.predict_transfers("g5k_test", workload))
