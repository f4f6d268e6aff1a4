"""The live metrology loop's two end-to-end paths no unit test covers.

- The ``repro metrology run --workers`` path: warm-pool serving under live
  recalibration recycles its workers on the epoch bump and keeps answering
  bit-identically to a serial simulation.
- A combined bandwidth + latency recording round-trips through JSON and
  replays as measured scenario dynamics: both kernel modes agree, and the
  replayed latency lands within 12 % of the recorded testbed's (probe
  jitter puts ~3 % of the full RTT on the latency delta).
"""

from __future__ import annotations

import pytest

from repro.metrology.demo import DEMO_PLATFORM, StarMetrologyDemo
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    MeasuredTrace,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.serving.service import ForecastServingService

PERIOD = 15.0
WARMUP = 3


def test_warm_pool_recycles_and_matches_serial_under_live_recalibration():
    demo = StarMetrologyDemo.for_run(
        n_hosts=2, period=PERIOD, seed=5,
        warmup=WARMUP, steps=4, degrade_factor=0.3,
    )
    demo.warmup(WARMUP)
    transfers = demo.workload(2e8)
    with ForecastServingService(
            demo.service, service_factory=demo.service_factory(),
            workers=1) as serving:
        for _ in range(4):
            demo.step()
            served = serving.predict(DEMO_PLATFORM, transfers)
            direct = demo.service.predict_transfers(DEMO_PLATFORM, transfers)
            assert [f.to_json() for f in served] == \
                [f.to_json() for f in direct]
        recycles = serving.pool.stats()["recycles"]
    assert demo.loop.stats.updates_applied >= 1
    assert recycles >= 1


def test_combined_recording_replays_in_both_kernel_modes(reference_kernel):
    demo = StarMetrologyDemo.for_run(
        n_hosts=2, period=PERIOD, seed=5,
        warmup=WARMUP, steps=5, degrade_factor=0.5,
        degrade_latency_factor=3.0,
    )
    demo.warmup(WARMUP)
    demo.run(5)
    traces = [MeasuredTrace.from_json(t.to_json()).rescaled(0.01)
              for t in demo.combined_traces()]
    spec = ScenarioSpec(
        name="metrology-smoke-combined",
        topology=TopologySpec("star", {"n_hosts": 2}),
        workload=WorkloadSpec("all_to_all", size=4e7),
        measured=tuple(traces),
    )
    incremental = run_scenario(spec)
    with reference_kernel():
        full = run_scenario(spec)
    for inc, ful in zip(incremental.transfers, full.transfers):
        assert inc.duration == pytest.approx(ful.duration, rel=1e-9)
    latencies = [e.latency for e in incremental.events_applied
                 if e.latency is not None and e.link == demo.degraded_link]
    assert latencies, "the replay applied no latency mutation"
    truth = demo.testbed.links[demo.degraded_link].latency
    assert latencies[-1] == pytest.approx(truth, rel=0.12)
