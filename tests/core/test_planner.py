"""Hypothesis planner: selection, bounds, pruning."""

import pytest

from repro.core.forecast import NetworkForecastService, TransferSpec
from repro.core.planner import Hypothesis, TransferPlanner
from repro.core.rest.errors import BadRequest
from repro.simgrid.builder import build_dumbbell, build_two_level_grid
from repro.simgrid.models import CM02
from repro.simgrid.tcpfluid import TcpFluidModel


def make_planner():
    platform = build_two_level_grid(
        {"fast": 4, "slow": 4},
        backbone_bandwidth="10Gbps",
    )
    # make the 'slow' site's host links slow
    for i in range(1, 5):
        platform.link(f"slow-{i}-link").bandwidth = 1.25e7  # 100 Mbps
    service = NetworkForecastService({"grid": platform}, model=CM02())
    return TransferPlanner(service, "grid")


class TestHypothesisParsing:
    def test_parse(self):
        hyp = Hypothesis.parse("to-a:h1,h2,5e8;h1,h3,5e8")
        assert hyp.name == "to-a"
        assert len(hyp.transfers) == 2
        assert hyp.transfers[0] == TransferSpec("h1", "h2", 5e8)

    def test_parse_requires_colon(self):
        with pytest.raises(BadRequest):
            Hypothesis.parse("just-transfers")

    def test_parse_requires_transfers(self):
        with pytest.raises(BadRequest):
            Hypothesis.parse("name:")

    def test_empty_hypothesis_rejected(self):
        with pytest.raises(ValueError):
            Hypothesis("empty", ())


class TestSelection:
    def test_picks_faster_destination(self):
        planner = make_planner()
        hypotheses = [
            Hypothesis("to-fast", (TransferSpec("fast-1", "fast-2", 1e9),)),
            Hypothesis("to-slow", (TransferSpec("fast-1", "slow-1", 1e9),)),
        ]
        result = planner.select_fastest(hypotheses)
        assert result.best == "to-fast"
        scores = {s.name: s for s in result.scores}
        assert scores["to-fast"].makespan < scores["to-slow"].makespan

    def test_makespan_is_slowest_transfer(self):
        planner = make_planner()
        hyp = Hypothesis("mix", (
            TransferSpec("fast-1", "fast-2", 1e8),
            TransferSpec("fast-3", "slow-1", 1e8),
        ))
        result = planner.select_fastest([hyp], use_pruning=False)
        score = result.scores[0]
        assert score.makespan == pytest.approx(max(score.durations))

    def test_contention_awareness_beats_naive_split(self):
        # sending both streams into one slow NIC is worse than spreading
        planner = make_planner()
        hypotheses = [
            Hypothesis("funnel", (
                TransferSpec("fast-1", "slow-1", 1e9),
                TransferSpec("fast-2", "slow-1", 1e9),
            )),
            Hypothesis("spread", (
                TransferSpec("fast-1", "slow-1", 1e9),
                TransferSpec("fast-2", "slow-2", 1e9),
            )),
        ]
        result = planner.select_fastest(hypotheses, use_pruning=False)
        assert result.best == "spread"

    def test_duplicate_names_rejected(self):
        planner = make_planner()
        hyp = Hypothesis("same", (TransferSpec("fast-1", "fast-2", 1e8),))
        with pytest.raises(BadRequest):
            planner.select_fastest([hyp, hyp])

    def test_empty_input_rejected(self):
        planner = make_planner()
        with pytest.raises(BadRequest):
            planner.select_fastest([])

    def test_to_json_shape(self):
        planner = make_planner()
        hyp = Hypothesis("h", (TransferSpec("fast-1", "fast-2", 1e8),))
        result = planner.select_fastest([hyp])
        data = result.to_json()
        assert data["best"] == "h"
        assert "makespan" in data["scores"]["h"]


class TestPruning:
    def test_hopeless_hypothesis_not_simulated(self):
        planner = make_planner()
        hypotheses = [
            Hypothesis("good", (TransferSpec("fast-1", "fast-2", 1e8),)),
            # lower bound of this one (80s) far exceeds good's upper bound
            Hypothesis("hopeless", (TransferSpec("fast-1", "slow-1", 1e9),)),
        ]
        result = planner.select_fastest(hypotheses)
        scores = {s.name: s for s in result.scores}
        assert scores["good"].simulated
        assert not scores["hopeless"].simulated
        assert result.best == "good"

    def test_pruning_never_discards_potential_winner(self):
        planner = make_planner()
        # 'a' funnels two transfers into one NIC (upper bound ~16s); 'b' is a
        # single slightly bigger transfer (lower bound ~8.4s) — b can win and
        # must survive pruning
        hypotheses = [
            Hypothesis("a", (
                TransferSpec("fast-1", "fast-2", 1e9),
                TransferSpec("fast-3", "fast-2", 1e9),
            )),
            Hypothesis("b", (TransferSpec("fast-3", "fast-4", 1.05e9),)),
        ]
        pruned = planner.prune(hypotheses)
        assert {h.name for h in pruned} == {"a", "b"}
        result = planner.select_fastest(hypotheses)
        assert result.best == "b"

    def test_pruning_discards_provable_losers(self):
        planner = make_planner()
        hypotheses = [
            Hypothesis("a", (TransferSpec("fast-1", "fast-2", 1e9),)),
            # single-transfer lower bound (8.4s) exceeds a's serialized
            # upper bound (8s): can never win, must be pruned
            Hypothesis("b", (TransferSpec("fast-3", "fast-4", 1.05e9),)),
        ]
        pruned = planner.prune(hypotheses)
        assert {h.name for h in pruned} == {"a"}

    def test_selection_identical_with_and_without_pruning(self):
        planner = make_planner()
        hypotheses = [
            Hypothesis("a", (TransferSpec("fast-1", "fast-2", 1e9),)),
            Hypothesis("b", (TransferSpec("fast-1", "slow-1", 1e9),)),
            Hypothesis("c", (TransferSpec("fast-3", "fast-4", 2e9),)),
        ]
        with_pruning = planner.select_fastest(hypotheses, use_pruning=True)
        without = planner.select_fastest(hypotheses, use_pruning=False)
        assert with_pruning.best == without.best


class TestEffectiveBounds:
    """Pruning bounds must reflect effective — not nominal — capacities."""

    DIRECT = Hypothesis("direct", (TransferSpec("left-1", "right-1", 1e9),))
    LOCAL = Hypothesis("local", (TransferSpec("left-1", "left-2", 1.2e10),))
    # the bottleneck is derated to 10%: 'direct' now crawls while 'local'
    # (which never crosses the bottleneck) is unaffected
    FACTORS = {"bottleneck": 0.1}

    def make_dumbbell_planner(self):
        service = NetworkForecastService({"dumb": build_dumbbell()},
                                         model=CM02())
        return TransferPlanner(service, "dumb")

    def test_nominal_bounds_would_discard_the_true_winner(self):
        # the regression: bounds computed from nominal bandwidths keep only
        # 'direct' (8.0s vs 9.6s), but on the derated platform 'direct'
        # actually takes ~80s — pruning would discard the true winner
        planner = self.make_dumbbell_planner()
        nominal = planner.prune([self.DIRECT, self.LOCAL])
        assert {h.name for h in nominal} == {"direct"}
        effective = planner.prune([self.DIRECT, self.LOCAL],
                                  capacity_factors=self.FACTORS)
        assert {h.name for h in effective} == {"local"}

    def test_selection_under_derated_factors_finds_local(self):
        planner = self.make_dumbbell_planner()
        hypotheses = [self.DIRECT, self.LOCAL]
        pruned = planner.select_fastest(hypotheses,
                                        capacity_factors=self.FACTORS)
        unpruned = planner.select_fastest(hypotheses, use_pruning=False,
                                          capacity_factors=self.FACTORS)
        assert pruned.best == unpruned.best == "local"
        scores = {s.name: s for s in pruned.scores}
        assert not scores["direct"].simulated  # pruned as a provable loser
        assert scores["local"].makespan == pytest.approx(
            {s.name: s for s in unpruned.scores}["local"].makespan)

    def test_bounds_scale_with_capacity_factors(self):
        planner = self.make_dumbbell_planner()
        platform = planner.forecast.platform("dumb")
        lower, upper = planner._static_bounds(platform, self.DIRECT)
        derated_lower, derated_upper = planner._static_bounds(
            platform, self.DIRECT, capacity_factors=self.FACTORS)
        # 1e9 B across a 10%-derated 1 Gbps bottleneck: 10x the transfer time
        assert derated_lower == pytest.approx(10 * (lower - 0.0011) + 0.0011)
        assert derated_upper >= derated_lower
        # 'local' never crosses the bottleneck: bounds unchanged
        assert planner._static_bounds(
            platform, self.LOCAL, capacity_factors=self.FACTORS
        ) == planner._static_bounds(platform, self.LOCAL)

    def test_time_varying_model_skips_pruning(self):
        # a TCP-fluid flow ramps up: its steady-state rate_bound is not an
        # upper bound on the alone rate, so no static bound is sound
        planner = self.make_dumbbell_planner()
        survivors = planner.prune([self.DIRECT, self.LOCAL],
                                  model=TcpFluidModel())
        assert {h.name for h in survivors} == {"direct", "local"}
        result = planner.select_fastest([self.DIRECT, self.LOCAL],
                                        model=TcpFluidModel())
        assert all(s.simulated for s in result.scores)

    def test_horizon_ranks_under_projected_state(self):
        # a bottleneck trending to 10% flips the ranking: live state picks
        # 'direct', the projected state picks 'local'
        planner = self.make_dumbbell_planner()
        service = planner.forecast
        nominal = service.platform("dumb").link("bottleneck").bandwidth
        for _ in range(8):
            service.observe_link("dumb", "bottleneck", nominal * 0.1)
        assert planner.select_fastest([self.DIRECT, self.LOCAL]).best == \
            "direct"
        projected = planner.select_fastest([self.DIRECT, self.LOCAL],
                                           horizon=3)
        assert projected.best == "local"
