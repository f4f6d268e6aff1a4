"""The live metrology loop end to end: probe → RRD → forecast → stamp →
re-predict, scored against the testbed's ground truth.

- **accuracy:** on the degraded phase, forecasts from the recalibrated
  platform have a strictly lower median |log2 error| than the static
  platform's, with the serving cache off and on;
- **consistency:** a served answer right before and right after a
  recalibration equals a fresh serial simulation;
- **drift:** when the probes drift while the network stays healthy,
  EWMA re-anchored references beat frozen ones, which bake the sensor
  bias into the platform.
"""

from __future__ import annotations

import pytest

from repro._util.stats import median
from repro.metrology.demo import DEMO_PLATFORM, StarMetrologyDemo
from repro.serving.service import ForecastServingService

N_HOSTS = 3
#: warm-up polls must cover the loop's min_observations anchor (3): the
#: reference estimate has to be taken while every link is still healthy
WARMUP = 3
STEPS = 4
SIZE = 2e8
SEED = 3


def serving_matches_serial(demo, serving, transfers) -> None:
    served = serving.predict(DEMO_PLATFORM, transfers)
    direct = demo.service.predict_transfers(DEMO_PLATFORM, transfers)
    assert [f.to_json() for f in served] == [f.to_json() for f in direct], (
        "serving answer differs from serial ground truth")


@pytest.mark.parametrize("cache_size", [0, 4096])
def test_recalibrated_beats_static(cache_size):
    demo = StarMetrologyDemo.for_run(
        n_hosts=N_HOSTS, period=15.0, seed=SEED,
        warmup=WARMUP, steps=STEPS, degrade_factor=0.3,
    )
    demo.warmup(WARMUP)
    transfers = demo.workload(SIZE)
    recal_errors, static_errors = [], []
    with ForecastServingService(demo.service,
                                cache_size=cache_size) as serving:
        for step in range(STEPS):
            serving_matches_serial(demo, serving, transfers)
            epoch_before = demo.loop.epoch
            demo.step()
            if demo.loop.epoch != epoch_before:
                # the answer cached before the recalibration is unreachable
                serving_matches_serial(demo, serving, transfers)
            evaluation = demo.evaluate_step(serving, transfers,
                                            seed_salt=step)
            if evaluation.degraded:
                recal_errors.append(evaluation.err_recalibrated)
                static_errors.append(evaluation.err_static)
        if cache_size:
            assert serving.cache.stats()["misses"] >= 1
    assert recal_errors, "degradation never fired"
    assert demo.loop.stats.updates_applied >= 1, (
        "the loop never recalibrated the platform")
    recal, static = median(recal_errors), median(static_errors)
    assert recal < static, (
        f"recalibrated forecasts must strictly beat the static baseline: "
        f"{recal:.3f} >= {static:.3f}")


#: Per-cycle multiplicative sensor bias: it compounds to a ~15-20 % under-read
#: over the run, far beyond probe noise and well under a real outage.
DRIFT_PER_CYCLE = 0.02
DRIFT_STEPS = 8


def drift_error(anchor_alpha: float) -> float:
    """Median |log2 err| of a drifting-sensor run against ground truth.

    The testbed never degrades (``degrade_at`` lies past the run), so every
    error beyond the probe-noise floor is the loop chasing a sensor bias."""
    demo = StarMetrologyDemo(
        n_hosts=N_HOSTS, period=15.0, seed=SEED,
        degrade_at=1e9, sensor_drift=DRIFT_PER_CYCLE,
        anchor_alpha=anchor_alpha, anchor_health_band=0.12,
    )
    demo.warmup(WARMUP)
    transfers = demo.workload(SIZE)
    errors = []
    with ForecastServingService(demo.service) as serving:
        for step in range(DRIFT_STEPS):
            demo.step()
            errors.append(demo.evaluate_step(
                serving, transfers, seed_salt=step).err_recalibrated)
    return median(errors)


def test_reanchored_references_beat_frozen_anchors_under_drift():
    frozen, reanchored = drift_error(0.0), drift_error(0.25)
    assert reanchored < frozen, (
        f"EWMA re-anchoring must strictly beat frozen references under "
        f"sensor drift: {reanchored:.3f} >= {frozen:.3f}")
