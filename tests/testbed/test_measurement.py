"""Measurement wrapper, cross-traffic, host profiles."""

import math

import pytest

from repro.testbed.crosstraffic import CrossTrafficSpec, inject_background
from repro.testbed.fluid import FluidSimulator, Hop, TestbedError, TestbedNetwork
from repro.testbed.measurement import MeasuredTransfer, run_transfers
from repro.testbed.profiles import DEFAULT, PROFILES, HostProfile


def small_net(n=4):
    net = TestbedNetwork()
    quiet = HostProfile(name="quiet", startup_median=0.001, startup_sigma=0.1)
    links = {}
    for i in range(n):
        name = f"n{i}"
        net.add_node(name, quiet)
        links[name] = net.add_link(f"l-{name}", 1.25e8, 5e-5)

    def resolver(src, dst):
        return [Hop(links[src], 0), Hop(links[dst], 1)]

    net.set_route_resolver(resolver)
    return net


class TestRunTransfers:
    def test_returns_one_record_per_transfer_in_order(self):
        net = small_net()
        transfers = [("n0", "n1", 1e7), ("n2", "n3", 1e8)]
        results = run_transfers(net, transfers, seed=0)
        assert [(r.src, r.dst, r.size) for r in results] == transfers

    def test_durations_positive_and_size_ordered(self):
        net = small_net()
        results = run_transfers(
            net, [("n0", "n1", 1e6), ("n0", "n2", 1e9)], seed=0
        )
        assert 0 < results[0].duration < results[1].duration

    def test_deterministic_given_seed(self):
        net = small_net()
        transfers = [("n0", "n1", 1e8)]
        r1 = run_transfers(net, transfers, seed=5)
        r2 = run_transfers(net, transfers, seed=5)
        assert r1[0].duration == pytest.approx(r2[0].duration)

    def test_noise_multiplies_raw_duration(self):
        net = small_net()
        results = run_transfers(net, [("n0", "n1", 1e8)], seed=1,
                                measurement_noise_sigma=0.05)
        r = results[0]
        assert r.duration != r.raw_duration
        assert r.duration == pytest.approx(r.raw_duration, rel=0.3)

    def test_zero_noise_equals_raw(self):
        net = small_net()
        results = run_transfers(net, [("n0", "n1", 1e8)], seed=1,
                                measurement_noise_sigma=0.0)
        assert results[0].duration == pytest.approx(results[0].raw_duration)

    def test_measured_transfer_rejects_nan(self):
        with pytest.raises(ValueError):
            MeasuredTransfer("a", "b", 1.0, duration=math.nan,
                             raw_duration=1.0, startup_overhead=0.0)

    @pytest.mark.parametrize("size, t, message", [
        (math.inf, 0.0, "transfer size must be positive and finite, got inf"),
        (-math.inf, 0.0, "transfer size must be positive and finite, got -inf"),
        (math.nan, 0.0, "transfer size must be positive and finite, got nan"),
        (1e7, math.inf, "submit time must be finite, got inf"),
        (1e7, -math.inf, "submit time must be finite, got -inf"),
        (1e7, math.nan, "submit time must be finite, got nan"),
    ], ids=["inf-size", "-inf-size", "nan-size", "inf-t", "-inf-t", "nan-t"])
    def test_non_finite_size_or_time_rejected(self, size, t, message):
        # no finite completion time for a transfer that has none
        net = small_net()
        sim = FluidSimulator(net, seed=0)
        sim.submit("n2", "n3", 1e7)
        with pytest.raises(TestbedError, match=f"^{message}$"):
            sim.submit("n0", "n1", size, t=t)
            sim.run()
        if t == 0.0:
            with pytest.raises(TestbedError, match=f"^{message}$"):
                run_transfers(net, [("n2", "n3", 1e7), ("n0", "n1", size)])

    def test_background_traffic_slows_foreground(self):
        net = small_net(4)
        transfers = [("n0", "n1", 5e8)]
        clean = run_transfers(net, transfers, seed=2,
                              measurement_noise_sigma=0.0)
        heavy = CrossTrafficSpec(arrival_rate=30.0, duration=10.0,
                                 size_log_mean=18.0, size_log_sigma=0.5)
        noisy = run_transfers(net, transfers, seed=2,
                              measurement_noise_sigma=0.0, background=heavy)
        assert noisy[0].duration > clean[0].duration


class TestCrossTraffic:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CrossTrafficSpec(arrival_rate=-1.0)
        with pytest.raises(ValueError):
            CrossTrafficSpec(duration=0.0)

    def test_injection_count_scales_with_rate(self):
        net = small_net(4)
        low = FluidSimulator(net, seed=3)
        high = FluidSimulator(net, seed=3)
        n_low = inject_background(low, CrossTrafficSpec(arrival_rate=1.0,
                                                        duration=20.0), seed=3)
        n_high = inject_background(high, CrossTrafficSpec(arrival_rate=10.0,
                                                          duration=20.0), seed=3)
        assert n_high > n_low

    def test_zero_rate_injects_nothing(self):
        net = small_net()
        sim = FluidSimulator(net, seed=0)
        assert inject_background(sim, CrossTrafficSpec(arrival_rate=0.0), 0) == 0

    def test_background_flows_flagged(self):
        net = small_net()
        sim = FluidSimulator(net, seed=0)
        inject_background(sim, CrossTrafficSpec(arrival_rate=5.0, duration=5.0),
                          seed=0)
        assert all(f.is_background for f in sim._flows)

    def test_needs_two_nodes(self):
        net = TestbedNetwork()
        net.add_node("only")
        sim = FluidSimulator(net, seed=0)
        with pytest.raises(ValueError):
            inject_background(sim, CrossTrafficSpec(), seed=0)


class TestProfiles:
    def test_registry_contains_paper_clusters(self):
        for name in ("sagittaire", "graphene", "capricorne", "griffon"):
            assert name in PROFILES

    def test_sagittaire_much_slower_startup_than_graphene(self):
        # the mechanism behind figures 3-5 vs 6-9 (DESIGN.md §6)
        assert PROFILES["sagittaire"].startup_median > \
            50 * PROFILES["graphene"].startup_median

    def test_efficiency_is_ethernet_goodput(self):
        assert PROFILES["graphene"].nic_efficiency == pytest.approx(
            1448.0 / 1538.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            HostProfile(name="bad", startup_median=-1.0, startup_sigma=0.1)
        with pytest.raises(ValueError):
            HostProfile(name="bad", startup_median=0.1, startup_sigma=0.1,
                        nic_efficiency=0.0)
