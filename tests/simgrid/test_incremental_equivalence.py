"""Incremental vs. full re-solve equivalence.

The engine's default mode re-solves only the max-min components touched by
activities that started or finished since the last event; ``full_resolve=True``
rebuilds the whole system at every event (the historical behavior).  These
tests drive randomized workloads (seeded through :mod:`repro._util.rng`)
through both modes and assert identical completion times and allocations
within 1e-9 — the escape hatch exists precisely to make this check possible.
"""

from __future__ import annotations

import math

import pytest

from repro._util.rng import rng_for
from repro.simgrid.builder import build_dumbbell, build_star_cluster, build_two_level_grid
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02, LV08

RTOL = 1e-9


def close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def draw_comm_events(hosts: list[str], seed: int, n_comms: int,
                     horizon: float = 3.0, max_size: float = 5e8) -> list[tuple]:
    """Random staggered transfers: (start time, src, dst, size) tuples."""
    rng = rng_for(seed, "incremental-equivalence")
    events = []
    for i in range(n_comms):
        src_i, dst_i = rng.choice(len(hosts), size=2, replace=False)
        size = float(rng.uniform(1e5, max_size))
        start = float(rng.uniform(0.0, horizon))
        events.append((start, hosts[int(src_i)], hosts[int(dst_i)], size))
    return events


def run_comms(platform, events, model, full_resolve, until=None):
    """Run staggered transfers; returns (sim, {name: comm})."""
    sim = Simulation(platform, model, full_resolve=full_resolve)
    comms: dict[str, object] = {}

    def start(src, dst, size, name):
        comms[name] = sim.add_comm(src, dst, size, name=name)

    for i, (at, src, dst, size) in enumerate(events):
        sim.schedule(at, lambda s=src, d=dst, z=size, n=f"c{i}": start(s, d, z, n))
    if until is None:
        sim.run()
    else:
        sim.run(until=until)
    return sim, comms


def assert_comm_equivalence(full_comms, inc_comms):
    assert set(full_comms) == set(inc_comms)
    for name, full in full_comms.items():
        inc = inc_comms[name]
        assert close(full.finish_time, inc.finish_time), (
            f"{name}: finish {full.finish_time!r} (full) vs {inc.finish_time!r} "
            f"(incremental)"
        )
        assert close(full.duration, inc.duration), (
            f"{name}: duration {full.duration!r} vs {inc.duration!r}"
        )


class TestRandomizedWorkloads:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_star_cluster_staggered_transfers(self, seed):
        platform = build_star_cluster("star", 10)
        hosts = [h.name for h in platform.hosts()]
        events = draw_comm_events(hosts, seed, n_comms=16)
        _, full = run_comms(platform, events, LV08(), full_resolve=True)
        _, inc = run_comms(platform, events, LV08(), full_resolve=False)
        assert_comm_equivalence(full, inc)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_dumbbell_shared_bottleneck(self, seed):
        # everything funnels through one SHARED link: a single big component,
        # so the incremental path re-solves overlapping subsets repeatedly
        platform = build_dumbbell(4, 4)
        hosts = [h.name for h in platform.hosts()]
        events = draw_comm_events(hosts, seed, n_comms=12)
        _, full = run_comms(platform, events, CM02(), full_resolve=True)
        _, inc = run_comms(platform, events, CM02(), full_resolve=False)
        assert_comm_equivalence(full, inc)

    @pytest.mark.parametrize("seed", [20, 21])
    def test_two_level_grid(self, seed):
        platform = build_two_level_grid({"lyon": 6, "nancy": 6, "lille": 4})
        hosts = [h.name for h in platform.hosts()]
        events = draw_comm_events(hosts, seed, n_comms=14)
        _, full = run_comms(platform, events, LV08(), full_resolve=True)
        _, inc = run_comms(platform, events, LV08(), full_resolve=False)
        assert_comm_equivalence(full, inc)

    def test_mixed_comms_execs_sleeps(self):
        results = {}
        for mode in (True, False):
            platform = build_star_cluster("star", 6)
            sim = Simulation(platform, LV08(), full_resolve=mode)
            comms = [
                sim.add_comm("star-1", "star-2", 2e8, name="a"),
                sim.add_comm("star-3", "star-2", 1e8, name="b"),
            ]
            execs = [sim.add_exec("star-1", 3e9), sim.add_exec("star-1", 1e9)]
            sleep = sim.add_sleep(1.5)
            sim.schedule(0.5, lambda s=sim: s.add_exec("star-4", 2e9, name="late"))
            sim.run()
            results[mode] = [a.finish_time for a in (*comms, *execs, sleep)]
        for full_t, inc_t in zip(results[True], results[False]):
            assert close(full_t, inc_t)


class TestMidRunAllocations:
    @pytest.mark.parametrize("seed", [30, 31])
    def test_rates_match_at_checkpoints(self, seed):
        """Allocations (activity rates), not just completion times, agree."""
        platform = build_dumbbell(3, 3)
        hosts = [h.name for h in platform.hosts()]
        events = draw_comm_events(hosts, seed, n_comms=10, horizon=2.0)
        for checkpoint in (0.5, 1.0, 2.5):
            sim_full, full = run_comms(platform, events, CM02(), True, until=checkpoint)
            sim_inc, inc = run_comms(platform, events, CM02(), False, until=checkpoint)
            assert set(full) == set(inc)
            for name in full:
                rate_f, rate_i = full[name].rate, inc[name].rate
                assert close(rate_f, rate_i), (
                    f"{name} at t={checkpoint}: rate {rate_f!r} vs {rate_i!r}"
                )
                assert close(full[name].remaining, inc[name].remaining)

    def test_cancel_mid_run(self):
        results = {}
        for mode in (True, False):
            platform = build_star_cluster("star", 5)
            sim = Simulation(platform, CM02(), full_resolve=mode)
            keep = sim.add_comm("star-1", "star-3", 2e9, name="keep")
            victim = sim.add_comm("star-2", "star-3", 2e9, name="victim")
            sim.schedule(2.0, lambda: victim.cancel(sim.clock))
            sim.run()
            results[mode] = (keep.finish_time, victim.state.value)
        assert close(results[True][0], results[False][0])
        assert results[True][1] == results[False][1] == "canceled"

    def test_process_cancels_and_starts_in_same_step(self):
        """A process cancels a flow and starts another before the re-share:
        the canceled flow must leave the arena immediately, as in full mode."""
        from repro.simgrid.msg import add_process

        finishes = {}
        for mode in (True, False):
            platform = build_star_cluster("star", 5)
            sim = Simulation(platform, CM02(), full_resolve=mode)
            keep = sim.add_comm("star-1", "star-3", 2e9, name="keep")
            victim = sim.add_comm("star-2", "star-3", 2e9, name="victim")

            def swapper(ctx, sim=sim, victim=victim):
                yield ctx.sleep(2.0)
                victim.cancel(ctx.now)
                yield sim.add_comm("star-4", "star-3", 1e8, name="replacement")

            add_process(sim, "swapper", "star-4", swapper)
            sim.run()
            finishes[mode] = keep.finish_time
        assert close(finishes[True], finishes[False]), (
            f"full {finishes[True]!r} vs incremental {finishes[False]!r}"
        )

    def test_resume_after_until(self):
        """run(until=...) then run(): the arena rebuild path stays exact."""
        finish = {}
        for mode in (True, False):
            platform = build_star_cluster("star", 5)
            sim = Simulation(platform, LV08(), full_resolve=mode)
            comm = sim.add_comm("star-1", "star-2", 1e9, name="c")
            sim.run(until=3.0)
            assert 0.0 < comm.remaining < 1e9
            sim.run()
            finish[mode] = comm.finish_time
        assert close(finish[True], finish[False])


class TestCampaignShape:
    def test_g5k_30x30_size_sweep(self, g5k_test_platform):
        """The 30x30 campaign shape on the real platform, all ten sizes."""
        from repro.experiments.figures import FIGURES
        from repro.experiments.protocol import TRANSFER_SIZES, draw_transfer_pairs

        pairs = draw_transfer_pairs(FIGURES["fig5"].spec, 20120917)
        workload = [
            (src, dst, TRANSFER_SIZES[i % len(TRANSFER_SIZES)])
            for i, (src, dst) in enumerate(pairs)
        ]
        durations = {}
        for mode in (True, False):
            sim = Simulation(g5k_test_platform, LV08(), full_resolve=mode)
            comms = sim.simulate_transfers(workload)
            durations[mode] = [c.duration for c in comms]
        for full_d, inc_d in zip(durations[True], durations[False]):
            assert close(full_d, inc_d)

    def test_forecast_service_exposes_escape_hatch(self, forecast_service):
        from repro.core.forecast import TransferSpec

        transfers = [
            TransferSpec("sagittaire-1.lyon.grid5000.fr",
                         "sagittaire-2.lyon.grid5000.fr", 5e8),
            TransferSpec("sagittaire-3.lyon.grid5000.fr",
                         "sagittaire-2.lyon.grid5000.fr", 5e8),
        ]
        inc = forecast_service.predict_transfers("g5k_test", transfers)
        full = forecast_service.predict_transfers("g5k_test", transfers,
                                                  full_resolve=True)
        for a, b in zip(inc, full):
            assert close(a.duration, b.duration)


SAGITTAIRE = [f"sagittaire-{i}.lyon.grid5000.fr" for i in range(1, 5)]


class TestRecalibrationAndServing:
    """The incremental arena after a mid-transfer ``touch_sharing()``
    recalibration, and the serving stack above it: incremental agrees with
    ``full_resolve`` within 1e-9, and cache on and cache off answer
    bit-identically.
    """

    def test_touch_sharing_mid_transfer_matches_full_resolve(self):
        """A timer halves a link and calls ``touch_sharing()`` mid-transfer;
        incremental and full-resolve runs agree within 1e-9."""
        finishes = {}
        for full_resolve in (False, True):
            platform = build_star_cluster("star", 6)
            sim = Simulation(platform, LV08(), full_resolve=full_resolve)
            comms = [
                sim.add_comm("star-1", "star-2", 2e9, name="a"),
                sim.add_comm("star-3", "star-2", 2e9, name="b"),
                sim.add_comm("star-4", "star-5", 1e9, name="c"),
            ]

            def degrade(sim=sim, platform=platform):
                for link in platform.links_matching("star-2-link"):
                    link.bandwidth = link.bandwidth * 0.5
                sim.touch_sharing()

            sim.schedule(1.0, degrade)
            sim.run()
            finishes[full_resolve] = [c.finish_time for c in comms]
        for inc_t, full_t in zip(finishes[False], finishes[True]):
            assert close(inc_t, full_t)

    def test_serving_answers_identical_cache_on_and_off(self, forecast_service):
        """The serving path with the ForecastCache enabled (4096) and
        disabled (0): caching never changes an answer."""
        from repro.serving.service import ForecastServingService

        transfers = [(SAGITTAIRE[0], SAGITTAIRE[1], 5e8),
                     (SAGITTAIRE[2], SAGITTAIRE[1], 5e8)]
        ongoing = [(SAGITTAIRE[3], SAGITTAIRE[1], 2e8)]  # mid-transfer flows
        answers = {}
        for cache_size in (4096, 0):
            with ForecastServingService(
                    forecast_service, cache_size=cache_size) as serving:
                got = serving.predict("g5k_test", transfers, ongoing=ongoing)
                answers[cache_size] = [f.duration for f in got]
        assert answers[4096] == answers[0]
