"""Golden regression for the 1x10 and 10x10 figure experiments.

The summary statistics of ``fig3`` (sagittaire 1x10) and ``fig4`` (sagittaire
10x10) are frozen into ``goldens/figure_goldens.json``, beside the name of
every figure's shape checks (each name carries its band, so a loosened band
is a drift too).  Every run of the
experiment pipeline is deterministic given the root seed, so any drift here
means a solver/model/testbed refactor changed results — loudly, instead of
silently shifting the paper-comparison tables.

To regenerate after an *intentional* change:

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/experiments/test_figure_goldens.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.protocol import LARGE_SIZE_THRESHOLD
from repro.experiments.summary import summarize

GOLDEN_PATH = Path(__file__).parent / "goldens" / "figure_goldens.json"
GOLDEN_FIGS = ("fig3", "fig4")
GOLDEN_SEED = 20120917
GOLDEN_REPS = 2
RTOL = 1e-9


def figure_checks() -> dict:
    return {fig_id: [check.__name__ for check in figure.checks]
            for fig_id, figure in FIGURES.items()}


def compute_golden(fig_id: str, forecast, network) -> dict:
    series, _failures = run_figure(
        fig_id, forecast, network, seed=GOLDEN_SEED, repetitions=GOLDEN_REPS
    )
    stats = summarize([series], size_threshold=LARGE_SIZE_THRESHOLD)
    return {
        "rows": [list(row) for row in series.rows()],
        "summary": {
            "n_observations": stats.n_observations,
            "median_abs_error": stats.median_abs_error,
            "error_stddev": stats.error_stddev,
            "fraction_below_0575": stats.fraction_below_0575,
        },
    }


@pytest.fixture(scope="module")
def goldens(forecast_service, g5k_testbed) -> dict:
    computed = {
        fig_id: compute_golden(fig_id, forecast_service, g5k_testbed)
        for fig_id in GOLDEN_FIGS
    }
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(
                {
                    "_meta": {"seed": GOLDEN_SEED, "repetitions": GOLDEN_REPS},
                    **computed,
                    "checks": figure_checks(),
                },
                indent=1,
            )
            + "\n",
            encoding="utf-8",
        )
    return computed


def stored() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing — generate it with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("fig_id", GOLDEN_FIGS)
def test_rows_match_golden(goldens, fig_id):
    frozen = stored()[fig_id]["rows"]
    fresh = goldens[fig_id]["rows"]
    assert len(fresh) == len(frozen), (
        f"{fig_id}: {len(fresh)} size points vs {len(frozen)} frozen"
    )
    for fresh_row, frozen_row in zip(fresh, frozen):
        # size, median error, q1, q3, median duration, n
        assert fresh_row[0] == pytest.approx(frozen_row[0], rel=RTOL)
        for got, want, column in zip(
            fresh_row[1:5], frozen_row[1:5],
            ("median error", "q1", "q3", "median duration"),
        ):
            assert got == pytest.approx(want, rel=RTOL, abs=1e-12), (
                f"{fig_id} size {fresh_row[0]:.3g}: {column} drifted "
                f"({got!r} vs frozen {want!r})"
            )
        assert fresh_row[5] == frozen_row[5]


@pytest.mark.parametrize("fig_id", GOLDEN_FIGS)
def test_summary_matches_golden(goldens, fig_id):
    frozen = stored()[fig_id]["summary"]
    fresh = goldens[fig_id]["summary"]
    assert fresh["n_observations"] == frozen["n_observations"]
    for key in ("median_abs_error", "error_stddev", "fraction_below_0575"):
        assert fresh[key] == pytest.approx(frozen[key], rel=RTOL, abs=1e-12), (
            f"{fig_id}: summary statistic {key} drifted "
            f"({fresh[key]!r} vs frozen {frozen[key]!r})"
        )


def test_checks_match_golden():
    assert figure_checks() == stored()["checks"]


def test_golden_metadata_matches_parameters():
    meta = stored()["_meta"]
    assert meta["seed"] == GOLDEN_SEED
    assert meta["repetitions"] == GOLDEN_REPS
