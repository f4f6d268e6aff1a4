"""The recalibration loop's output, value for value.

Two 4-host :class:`~repro.metrology.demo.StarMetrologyDemo` runs are
frozen: one whose first link degrades (capacity to 0.3, latency ×3) a
third into the run, and one whose bandwidth sensors drift 2 % per cycle
under gaussian EWMA re-anchoring while the network stays healthy.  Each
stores every applied ``LinkUpdate.to_json()`` and the final
``LoopStats.to_json()``.  A change to how probes become estimates, or
estimates become link writes, that moves one ulp fails here.  To
regenerate after an *intentional* change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \\
        tests/metrology/test_loop_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.metrology.demo import StarMetrologyDemo

GOLDEN_PATH = Path(__file__).parent / "goldens" / "loop_output.json"
WARMUP = 3
STEPS = 9

RUNS = {
    "degrading": lambda: StarMetrologyDemo.for_run(
        n_hosts=4, period=15.0, seed=3, warmup=WARMUP, steps=STEPS,
        degrade_factor=0.3, degrade_latency_factor=3.0),
    "drifting": lambda: StarMetrologyDemo(
        n_hosts=4, period=15.0, seed=3, degrade_at=1e9, sensor_drift=0.02,
        anchor_alpha=0.25, anchor_health_band=0.12,
        anchor_weighting="gaussian"),
}


def loop_output(name: str) -> dict:
    demo = RUNS[name]()
    demo.warmup(WARMUP)
    updates = demo.run(STEPS)
    return {"updates": [u.to_json() for u in updates],
            "stats": demo.loop.stats.to_json()}


@pytest.fixture(scope="module")
def computed() -> dict:
    fresh = {name: loop_output(name) for name in RUNS}
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(fresh, indent=1) + "\n",
                               encoding="utf-8")
    return fresh


@pytest.mark.parametrize("name", sorted(RUNS))
def test_loop_output_is_bit_identical(computed, name):
    stored = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    assert stored["updates"], f"{name}: the frozen run applies no update"
    assert computed[name] == stored
