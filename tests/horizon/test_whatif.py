"""What-if queries: scenario-machinery equivalence, sandboxing, intervals."""

from __future__ import annotations

import pytest

from repro._util.rng import spawn_rngs
from repro.core.forecast import NetworkForecastService
from repro.core.rest.errors import BadRequest, NotFound
from repro.horizon import (
    events_from_json,
    parse_event,
    run_what_if,
    transient_link_states,
)
from repro.scenarios.dynamics import schedule_dynamics
from repro.scenarios.runner import build_scenario_platform, run_scenario
from repro.scenarios.spec import (
    LinkEvent,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.scenarios.workloads import generate_workload
from repro.simgrid.builder import build_dumbbell
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02, model_by_name
from repro.simgrid.msg import transfer_processes
from repro.simgrid.platform import link_epoch

TRANSFERS = [("left-1", "right-1", 1e9), ("left-2", "right-2", 1e9)]
EVENTS = [
    LinkEvent(time=1.0, link="bottleneck", action="degrade", factor=0.5),
    LinkEvent(time=5.0, link="bottleneck", action="recover"),
]


def make_service(**kwargs) -> NetworkForecastService:
    return NetworkForecastService({"dumb": build_dumbbell()}, model=CM02(),
                                  **kwargs)


class TestEventParsing:
    def test_parse_event_full_form(self):
        event = parse_event("30, bottleneck, degrade, 0.5")
        assert event == LinkEvent(time=30.0, link="bottleneck",
                                  action="degrade", factor=0.5)

    def test_parse_event_without_factor(self):
        event = parse_event("10,uplink,fail")
        assert event.action == "fail"
        assert event.factor == 1.0

    @pytest.mark.parametrize("text", ["30", "30,link", "a,b,c,d,e"])
    def test_parse_event_bad_arity(self, text):
        with pytest.raises(ValueError):
            parse_event(text)

    def test_events_from_json_round_trip(self):
        events = events_from_json([e.to_json() for e in EVENTS])
        assert events == EVENTS

    def test_events_from_json_rejects_non_objects(self):
        with pytest.raises(ValueError):
            events_from_json(["30,bottleneck,degrade"])


class TestSandboxing:
    def test_transient_states_restore_mutations(self):
        platform = build_dumbbell()
        link = platform.link("bottleneck")
        nominal = link.bandwidth
        with transient_link_states(platform, ["bottleneck"]):
            link.bandwidth = nominal / 4
        assert link.bandwidth == nominal

    def test_untouched_run_does_not_bump_epoch(self):
        platform = build_dumbbell()
        before = link_epoch()
        with transient_link_states(platform, ["bottleneck"]):
            pass
        assert link_epoch() == before

    def test_run_what_if_restores_the_platform(self):
        platform = build_dumbbell()
        nominal = platform.link("bottleneck").bandwidth
        records, log = run_what_if(platform, CM02(), TRANSFERS, EVENTS)
        assert platform.link("bottleneck").bandwidth == nominal
        assert len(log.applied) == len(EVENTS)
        assert all(r["duration"] > 0 for r in records)


class TestEquivalence:
    def test_bit_identical_to_manual_dynamics_schedule(self):
        # the acceptance bar: a what-if answer must be indistinguishable
        # from hand-building the same LinkEvent schedule on the platform
        records, _ = run_what_if(build_dumbbell(), CM02(), TRANSFERS, EVENTS)
        sim = Simulation(build_dumbbell(), CM02())
        schedule_dynamics(sim, EVENTS)
        manual = transfer_processes(sim, list(TRANSFERS))
        assert len(records) == len(manual)
        for ours, theirs in zip(records, manual):
            assert abs(ours["duration"] - theirs["duration"]) <= 1e-9
            assert ours["duration"] == theirs["duration"]  # bit-identical

    def test_bit_identical_to_hand_built_scenario_spec(self):
        # same events + workload expressed as a declarative ScenarioSpec and
        # run through the scenario runner must give the same durations
        spec = ScenarioSpec(
            name="whatif-equivalence",
            topology=TopologySpec("dumbbell"),
            workload=WorkloadSpec("incast", size=2e8),
            dynamics=tuple(EVENTS),
            seed=7,
        )
        scenario = run_scenario(spec)
        platform = build_scenario_platform(spec)
        hosts = [h.name for h in platform.hosts()]
        transfers = list(generate_workload(
            spec.workload, hosts, spawn_rngs(spec.seed, 1, "workload",
                                             spec.name)[0]))
        service = NetworkForecastService({"dumb": platform},
                                         model=model_by_name(spec.model))
        result = service.predict_what_if("dumb", transfers, spec.dynamics)
        assert [f.duration for f in result.forecasts] == \
            [t.duration for t in scenario.transfers]
        assert result.applied == tuple(
            e.to_json() for e in scenario.events_applied)

    def test_no_events_matches_plain_forecast(self):
        service = make_service()
        plain = service.predict_transfers("dumb", TRANSFERS)
        whatif = service.predict_what_if("dumb", TRANSFERS, events=[])
        assert [f.duration for f in whatif.forecasts] == \
            [f.duration for f in plain]

    def test_full_resolve_agrees(self):
        baseline, _ = run_what_if(build_dumbbell(), CM02(), TRANSFERS, EVENTS)
        records, _ = run_what_if(build_dumbbell(), CM02(), TRANSFERS, EVENTS,
                                 full_resolve=True)
        for ours, theirs in zip(records, baseline):
            assert ours["duration"] == pytest.approx(theirs["duration"])


class TestServiceWhatIf:
    def test_events_accepted_as_json_dicts(self):
        service = make_service()
        from_objects = service.predict_what_if("dumb", TRANSFERS, EVENTS)
        from_dicts = service.predict_what_if(
            "dumb", TRANSFERS, [e.to_json() for e in EVENTS])
        assert [f.duration for f in from_dicts.forecasts] == \
            [f.duration for f in from_objects.forecasts]
        assert service.what_if_queries == 2

    def test_degradation_slows_transfers(self):
        service = make_service()
        plain = service.predict_transfers("dumb", TRANSFERS)
        degraded = service.predict_what_if(
            "dumb", TRANSFERS,
            [LinkEvent(time=0.5, link="bottleneck", action="degrade",
                       factor=0.1)])
        for before, after in zip(plain, degraded.forecasts):
            assert after.duration > before.duration

    def test_platform_restored_after_service_query(self):
        service = make_service()
        nominal = service.platform("dumb").link("bottleneck").bandwidth
        service.predict_what_if("dumb", TRANSFERS, EVENTS)
        assert service.platform("dumb").link("bottleneck").bandwidth == nominal

    def test_bad_event_payload_is_bad_request(self):
        service = make_service()
        with pytest.raises(BadRequest):
            service.predict_what_if("dumb", TRANSFERS,
                                    [{"time": 1.0, "link": "bottleneck"}])
        with pytest.raises(BadRequest):
            service.predict_what_if(
                "dumb", TRANSFERS,
                [{"time": 1.0, "link": "bottleneck", "action": "explode"}])

    def test_unknown_platform_is_not_found(self):
        with pytest.raises(NotFound):
            make_service().predict_what_if("nope", TRANSFERS, EVENTS)

    def test_unmatched_event_pattern_is_bad_request(self):
        service = make_service()
        with pytest.raises(BadRequest):
            service.predict_what_if(
                "dumb", TRANSFERS,
                [LinkEvent(time=1.0, link="no-such-*", action="fail")])

    def test_result_json_shape(self):
        service = make_service()
        doc = service.predict_what_if("dumb", TRANSFERS, EVENTS).to_json()
        assert set(doc) == {"forecasts", "applied"}  # horizon only when set
        assert len(doc["forecasts"]) == len(TRANSFERS)
        assert len(doc["applied"]) == len(EVENTS)
        projected = service.predict_what_if("dumb", TRANSFERS, EVENTS,
                                            horizon=2)
        assert projected.to_json()["horizon"] == 2


class TestHorizonIntegration:
    def warm_service(self, derate=0.5, n=10) -> NetworkForecastService:
        service = make_service()
        nominal = service.platform("dumb").link("bottleneck").bandwidth
        for _ in range(n):
            service.observe_link("dumb", "bottleneck", nominal * derate)
        return service

    def test_observe_unknown_link_is_not_found(self):
        with pytest.raises(NotFound):
            make_service().observe_link("dumb", "no-such-link", 1e9)

    def test_horizon_factors_require_positive_horizon(self):
        with pytest.raises(BadRequest):
            make_service().horizon_capacity_factors("dumb", 0)

    def test_cold_platform_passes_combine_through(self):
        factors = make_service().horizon_capacity_factors(
            "dumb", 5, combine={"bottleneck": 0.5})
        assert factors == {"bottleneck": 0.5}

    def test_predict_at_cold_platform_is_point_forecast(self):
        service = make_service()
        forecasts = service.predict_transfers_at("dumb", TRANSFERS, horizon=3)
        plain = service.predict_transfers("dumb", TRANSFERS)
        assert [f.duration for f in forecasts] == [f.duration for f in plain]
        assert all(f.lower is None and f.upper is None for f in forecasts)
        assert service.horizon_queries == 1

    def test_predict_at_projects_derated_bottleneck(self):
        service = self.warm_service(derate=0.5)
        live = service.predict_transfers("dumb", TRANSFERS)
        projected = service.predict_transfers_at("dumb", TRANSFERS, horizon=3)
        for now, later in zip(live, projected):
            assert later.duration > now.duration

    def test_intervals_bracket_the_point_forecast(self):
        service = self.warm_service()
        # noisy series so the projection carries real interval width
        nominal = service.platform("dumb").link("bottleneck").bandwidth
        for i in range(12):
            service.observe_link("dumb", "bottleneck",
                                 nominal * (0.45 + 0.01 * (i % 5)))
        for f in service.predict_transfers_at("dumb", TRANSFERS, horizon=4):
            assert f.lower is not None and f.upper is not None
            assert f.lower <= f.duration <= f.upper
        result = service.predict_what_if("dumb", TRANSFERS, EVENTS, horizon=4)
        assert result.horizon == 4
        for f in result.forecasts:
            assert f.lower <= f.duration <= f.upper

    def test_intervals_can_be_disabled(self):
        service = self.warm_service()
        forecasts = service.predict_transfers_at("dumb", TRANSFERS, horizon=3,
                                                 intervals=False)
        assert all(f.lower is None and f.upper is None for f in forecasts)

    def test_planning_stats_counters(self):
        service = self.warm_service(n=4)
        service.predict_transfers_at("dumb", TRANSFERS, horizon=2)
        service.predict_what_if("dumb", TRANSFERS, EVENTS)
        stats = service.planning_stats()
        assert stats["horizon_queries"] == 1
        assert stats["what_if_queries"] == 1
        assert stats["horizons"]["dumb"]["links"] == 1
        assert stats["horizons"]["dumb"]["observations"] == 4
