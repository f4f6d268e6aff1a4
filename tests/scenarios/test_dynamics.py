"""Dynamics schedules: in-flight recalibration, mode equivalence."""

import pytest

from repro.scenarios.dynamics import (
    FAILED_BANDWIDTH,
    schedule_dynamics,
    validate_dynamics,
)
from repro.scenarios.spec import LinkEvent, ScenarioSpec, TopologySpec, WorkloadSpec
from repro.scenarios.runner import run_scenario
from repro.simgrid.builder import build_dumbbell
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02


def dumbbell_sim():
    platform = build_dumbbell(2, 2, bottleneck_bandwidth="1Gbps")
    return platform, Simulation(platform, CM02())


class TestScheduleDynamics:
    def test_degradation_slows_inflight_transfer(self):
        # baseline: single 1e9 transfer over the 1 Gbps (125 MB/s) bottleneck
        _, sim = dumbbell_sim()
        baseline = sim.simulate_transfers([("left-1", "right-1", 1e9)])[0].duration

        platform, sim = dumbbell_sim()
        schedule_dynamics(sim, [
            LinkEvent(time=1.0, link="bottleneck", action="degrade", factor=0.5),
        ])
        degraded = sim.simulate_transfers([("left-1", "right-1", 1e9)])[0].duration
        # 1s at full rate, the rest at half rate: clearly slower than baseline
        assert degraded > baseline * 1.4
        assert platform.link("bottleneck").bandwidth == pytest.approx(125e6 * 0.5)

    def test_recovery_restores_nominal_bandwidth(self):
        platform, sim = dumbbell_sim()
        nominal = platform.link("bottleneck").bandwidth
        log = schedule_dynamics(sim, [
            LinkEvent(time=0.5, link="bottleneck", action="degrade", factor=0.25),
            LinkEvent(time=1.0, link="bottleneck", action="recover"),
        ])
        sim.simulate_transfers([("left-1", "right-1", 1e9)])
        assert platform.link("bottleneck").bandwidth == pytest.approx(nominal)
        assert [e.action for e in log.applied] == ["degrade", "recover"]

    def test_failure_floors_bandwidth_and_stalls_transfer(self):
        platform, sim = dumbbell_sim()
        schedule_dynamics(sim, [
            LinkEvent(time=0.5, link="bottleneck", action="fail"),
            LinkEvent(time=2.5, link="bottleneck", action="recover"),
        ])
        duration = sim.simulate_transfers(
            [("left-1", "right-1", 1e9)])[0].duration
        # ~2s of outage inserted into an ~8s transfer
        assert duration > 9.5

    def test_fail_sets_floor_bandwidth(self):
        platform, sim = dumbbell_sim()
        schedule_dynamics(sim, [
            LinkEvent(time=0.1, link="bottleneck", action="fail"),
        ])
        sim.add_comm("left-1", "right-1", 1e5)
        sim.run(until=0.2)
        assert platform.link("bottleneck").bandwidth == FAILED_BANDWIDTH

    def test_degrade_factors_compose_from_nominal(self):
        platform, sim = dumbbell_sim()
        nominal = platform.link("bottleneck").bandwidth
        schedule_dynamics(sim, [
            LinkEvent(time=0.1, link="bottleneck", action="degrade", factor=0.5),
            LinkEvent(time=0.2, link="bottleneck", action="degrade", factor=0.25),
        ])
        sim.add_comm("left-1", "right-1", 1e9)
        sim.run(until=0.3)
        # 0.25 of nominal, not 0.25 of the already-degraded rate
        assert platform.link("bottleneck").bandwidth == pytest.approx(nominal * 0.25)

    def test_pattern_matches_multiple_links(self):
        platform, sim = dumbbell_sim()
        log = schedule_dynamics(sim, [
            LinkEvent(time=0.1, link="left-*-link", action="degrade", factor=0.5),
        ])
        sim.add_comm("left-1", "right-1", 1e8)
        sim.run()
        assert sorted(e.link for e in log.applied) == [
            "left-1-link", "left-2-link"]

    def test_unmatched_pattern_rejected_up_front(self):
        platform, sim = dumbbell_sim()
        with pytest.raises(ValueError, match="matches no link"):
            schedule_dynamics(sim, [
                LinkEvent(time=0.1, link="no-such-*", action="fail")])

    def test_validate_dynamics_passes_on_match(self):
        platform, _ = dumbbell_sim()
        validate_dynamics(platform, [
            LinkEvent(time=0.0, link="bottleneck", action="fail")])

    def test_mid_run_scheduling_rejected(self):
        _, sim = dumbbell_sim()
        sim.add_comm("left-1", "right-1", 1e9)
        sim.run(until=1.0)
        with pytest.raises(ValueError, match="clock 0"):
            schedule_dynamics(sim, [
                LinkEvent(time=2.0, link="bottleneck", action="fail")])


class TestModeEquivalence:
    """The engine and the reference engine must agree under dynamics —
    the scenario-level extension of the engine checks in
    test_maxmin_properties."""

    @pytest.mark.parametrize("preset", [
        "star-incast", "dumbbell-congestion", "fat-tree-shuffle",
        "torus-neighbors", "dragonfly-random",
    ])
    def test_presets_agree_between_modes(self, preset, reference_kernel):
        from repro.scenarios.registry import DEFAULT_REGISTRY

        spec = DEFAULT_REGISTRY.get(preset)
        incremental = run_scenario(spec)
        with reference_kernel():
            full = run_scenario(spec)
        assert incremental.makespans == pytest.approx(full.makespans, rel=1e-9)
        for inc, ful in zip(incremental.transfers, full.transfers):
            assert (inc.src, inc.dst) == (ful.src, ful.dst)
            assert inc.duration == pytest.approx(ful.duration, rel=1e-9)

    def test_dense_dynamics_agree_between_modes(self, reference_kernel):
        # events every 50 ms across a contended bottleneck — many re-shares
        events = tuple(
            LinkEvent(time=0.05 * (i + 1), link="bottleneck",
                      action="degrade", factor=0.3 + 0.05 * (i % 8))
            for i in range(16)
        ) + (LinkEvent(time=1.0, link="bottleneck", action="recover"),)
        spec = ScenarioSpec(
            name="dense",
            topology=TopologySpec("dumbbell", {"n_left": 3, "n_right": 3}),
            workload=WorkloadSpec("all_to_all", size=3e7),
            dynamics=events,
        )
        incremental = run_scenario(spec)
        with reference_kernel():
            full = run_scenario(spec)
        for inc, ful in zip(incremental.transfers, full.transfers):
            assert inc.duration == pytest.approx(ful.duration, rel=1e-9)
