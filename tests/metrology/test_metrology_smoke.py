"""The live metrology loop's end-to-end path no unit test covers.

A combined bandwidth + latency recording round-trips through JSON and
replays as measured scenario dynamics: both kernel modes agree, and the
replayed latency lands within 12 % of the recorded testbed's (probe
jitter puts ~3 % of the full RTT on the latency delta).
"""

from __future__ import annotations

import pytest

from repro.metrology.demo import StarMetrologyDemo
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    MeasuredTrace,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)

PERIOD = 15.0
WARMUP = 3


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


def test_served_answers_follow_live_recalibration():
    """The ``repro metrology run`` path: answers served while the loop
    recalibrates the platform match a fresh simulation at every step, so
    no answer cached before a recalibration is served after it."""
    from repro.metrology.demo import DEMO_PLATFORM
    from repro.serving.service import ForecastServingService

    demo = StarMetrologyDemo.for_run(
        n_hosts=2, period=PERIOD, seed=5,
        warmup=WARMUP, steps=4, degrade_factor=0.3,
    )
    demo.warmup(WARMUP)
    transfers = demo.workload(2e8)
    stamps = set()
    with ForecastServingService(demo.service) as serving:
        for _ in range(4):
            demo.step()
            stamps.add(demo.service.state_stamp(DEMO_PLATFORM))
            served = serving.predict(DEMO_PLATFORM, transfers)
            direct = demo.service.predict_transfers(DEMO_PLATFORM, transfers)
            assert [f.to_json() for f in served] == \
                [f.to_json() for f in direct]
            assert serving.predict(DEMO_PLATFORM, transfers) == served
        stats = serving.stats()["cache"]
    assert demo.loop.stats.updates_applied >= 1
    assert len(stamps) >= 2  # a recalibration landed between two steps
    # one simulation per platform state; every other ask hit its answer
    assert stats["misses"] == len(stamps)
    assert stats["hits"] == 8 - len(stamps)
