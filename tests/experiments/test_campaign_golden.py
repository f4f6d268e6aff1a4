"""The §V-A campaign's per-combination rows, bit for bit.

A small slice of the campaign (endpoint counts 1 and 2, both clusters and
the grid, seed 11, one repetition, sizes 1 MB and 1 GB: 9 combinations) is
frozen into ``goldens/campaign_golden.json`` as ``float.hex`` of every
``ErrorSeries.rows()`` entry, keyed by combination id in campaign order.
The serial and the ``workers=2`` runs must both reproduce it, so any change
to how a combination is seeded, run or aggregated fails here.  To
regenerate after an *intentional* change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \\
        tests/experiments/test_campaign_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.campaign import campaign_combinations, run_campaign

GOLDEN_PATH = Path(__file__).parent / "goldens" / "campaign_golden.json"
COUNTS = (1, 2)
SEED = 11
REPETITIONS = 1
SIZES = (1e6, 1e9)


def _hex_rows(series) -> list[list]:
    return [[float(v).hex() if isinstance(v, float) else v for v in row]
            for row in series.rows()]


def compute(forecast, network, workers) -> dict:
    results = run_campaign(
        forecast, network, combinations=campaign_combinations(counts=COUNTS),
        seed=SEED, repetitions=REPETITIONS, sizes=SIZES, workers=workers,
    )
    return {cid: _hex_rows(series) for cid, series in results.items()}


@pytest.fixture(scope="module")
def serial(forecast_service, g5k_testbed) -> dict:
    computed = compute(forecast_service, g5k_testbed, None)
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_PATH.write_text(json.dumps({
            "_meta": {"counts": list(COUNTS), "seed": SEED,
                      "repetitions": REPETITIONS, "sizes": list(SIZES)},
            "rows": computed,
        }, indent=1) + "\n", encoding="utf-8")
    return computed


@pytest.fixture(scope="module")
def stored() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_serial_rows_are_bit_identical(serial, stored):
    assert list(serial) == list(stored["rows"])  # campaign order
    assert serial == stored["rows"]


def test_parallel_rows_are_bit_identical(forecast_service, g5k_testbed, stored):
    parallel = compute(forecast_service, g5k_testbed, 2)
    assert list(parallel) == list(stored["rows"])
    assert parallel == stored["rows"]


def test_golden_metadata(stored):
    assert stored["_meta"] == {"counts": list(COUNTS), "seed": SEED,
                               "repetitions": REPETITIONS, "sizes": list(SIZES)}
    assert len(stored["rows"]) == 9
