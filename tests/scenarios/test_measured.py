"""The measured dynamics source: spec round-trip, replay semantics."""

import pytest

from repro.scenarios.dynamics import schedule_measured
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    MeasuredTrace,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.simgrid.builder import build_star_cluster
from repro.simgrid.engine import Simulation


def star_spec(**changes):
    spec = ScenarioSpec(
        name="measured-test",
        topology=TopologySpec("star", {"n_hosts": 4}),
        workload=WorkloadSpec("all_to_all", size=2e7),
        measured=(
            MeasuredTrace(link="star-1-link", metric="bandwidth", samples=(
                (0.05, 5e7), (0.2, 2.5e7), (0.5, 1.25e8),
            )),
        ),
    )
    return spec.replace(**changes) if changes else spec


class TestMeasuredTraceSpec:
    def test_json_round_trip(self):
        spec = star_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_latency_trace_round_trips(self):
        trace = MeasuredTrace(link="star-*", metric="latency",
                              samples=((1.0, 2e-4),))
        assert MeasuredTrace.from_json(trace.to_json()) == trace

    def test_old_documents_without_measured_still_load(self):
        doc = star_spec(measured=()).to_json()
        del doc["measured"]
        assert ScenarioSpec.from_json(doc).measured == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasuredTrace(link="", samples=((1.0, 1.0),))
        with pytest.raises(ValueError):
            MeasuredTrace(link="l", metric="jitter", samples=((1.0, 1.0),))
        with pytest.raises(ValueError):
            MeasuredTrace(link="l", samples=())
        with pytest.raises(ValueError):
            MeasuredTrace(link="l", samples=((1.0, 1.0), (1.0, 2.0)))
        with pytest.raises(ValueError):
            MeasuredTrace(link="l", samples=((-1.0, 1.0),))
        with pytest.raises(ValueError):
            MeasuredTrace(link="l", metric="bandwidth", samples=((1.0, 0.0),))
        # NaN/inf survive json round-trips, so validation must reject them
        with pytest.raises(ValueError):
            MeasuredTrace(link="l", samples=((1.0, float("nan")),))
        with pytest.raises(ValueError):
            MeasuredTrace(link="l", samples=((1.0, float("inf")),))
        with pytest.raises(ValueError):
            MeasuredTrace(link="l", samples=((float("nan"), 1.0),))


class TestScheduleMeasured:
    def test_samples_mutate_matched_links_at_their_times(self):
        platform = build_star_cluster("star", 4)
        sim = Simulation(platform)
        log = schedule_measured(sim, star_spec().measured)
        sim.add_comm("star-2", "star-3", 1e9)  # keeps the sim running
        sim.run()
        assert [e.time for e in log.applied] == [0.05, 0.2, 0.5]
        assert [e.action for e in log.applied] == ["measured"] * 3
        assert platform.link("star-1-link").bandwidth == pytest.approx(1.25e8)

    def test_latency_trace_sets_latency(self):
        platform = build_star_cluster("star", 2)
        sim = Simulation(platform)
        trace = MeasuredTrace(link="star-1-link", metric="latency",
                              samples=((0.01, 5e-4),))
        log = schedule_measured(sim, (trace,))
        sim.add_comm("star-1", "star-2", 1e8)
        sim.run()
        assert platform.link("star-1-link").latency == pytest.approx(5e-4)
        assert log.applied[0].latency == pytest.approx(5e-4)

    def test_unmatched_pattern_fails_fast(self):
        platform = build_star_cluster("star", 2)
        sim = Simulation(platform)
        trace = MeasuredTrace(link="missing-*", samples=((0.1, 1e7),))
        with pytest.raises(ValueError, match="matches no link"):
            schedule_measured(sim, (trace,))

    def test_mid_run_scheduling_rejected(self):
        platform = build_star_cluster("star", 2)
        sim = Simulation(platform)
        sim.add_comm("star-1", "star-2", 1e8)
        sim.run()
        with pytest.raises(ValueError, match="clock 0"):
            schedule_measured(sim, star_spec().measured)


class TestMeasuredScenarioRun:
    def test_replay_slows_transfers_and_fires_events(self):
        with_trace = run_scenario(star_spec())
        without = run_scenario(star_spec(measured=()))
        assert len(with_trace.events_applied) == 3
        assert max(with_trace.makespans) > max(without.makespans)

    def test_incremental_and_full_resolve_agree(self, reference_kernel):
        incremental = run_scenario(star_spec())
        with reference_kernel():
            full = run_scenario(star_spec())
        for inc, ful in zip(incremental.transfers, full.transfers):
            assert inc.duration == pytest.approx(ful.duration, rel=1e-9)

    def test_measured_composes_with_synthetic_dynamics(self):
        from repro.scenarios.spec import LinkEvent

        spec = star_spec(dynamics=(
            LinkEvent(time=0.1, link="star-2-link", action="degrade",
                      factor=0.5),
        ))
        result = run_scenario(spec)
        actions = {e.action for e in result.events_applied}
        assert actions == {"degrade", "measured"}


class TestRescaled:
    def test_rescaled_compresses_times_only(self):
        trace = MeasuredTrace(link="l", samples=((10.0, 1e8), (20.0, 5e7)))
        scaled = trace.rescaled(0.01)
        assert scaled.samples == ((0.1, 1e8), (0.2, 5e7))
        assert scaled.link == trace.link and scaled.metric == trace.metric

    def test_rescaled_rejects_non_positive_scale(self):
        trace = MeasuredTrace(link="l", samples=((10.0, 1e8),))
        with pytest.raises(ValueError):
            trace.rescaled(0.0)
