"""The paper's PNFS pattern (§IV-C2): one send and one receive process per
transfer.  ``Simulation.simulate_transfers`` starts each pair as the one
communication it amounts to; the explicit two-process form in
``tests/reference/process.py`` is the reference it must equal bit for bit."""

import math

import pytest

from reference.maxmin import ReferenceSimulation
from reference.process import explicit_transfers
from repro.experiments.figures import FIGURES
from repro.experiments.protocol import draw_transfer_pairs
from repro.scenarios.dynamics import schedule_dynamics
from repro.scenarios.spec import LinkEvent
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02, LV08, model_by_name
from repro.simgrid.platform import link_sandbox


class TestExplicitReference:
    def test_paper_pattern_records_durations(self, star4):
        records = explicit_transfers(
            Simulation(star4, CM02()),
            [("star-1", "star-2", 1e9), ("star-3", "star-4", 1e9)])
        expected = 2e-4 + 8.0
        for record in records:
            assert record["duration"] == pytest.approx(expected, rel=1e-3)
            assert record["start"] == 0.0
            assert not math.isnan(record["finish"])


def simulated_transfers(sim, transfers):
    """``simulate_transfers``' comms as the reference's records."""
    comms = sim.simulate_transfers(list(transfers))
    return [{"src": src, "dst": dst, "size": size, "start": comm.start_time,
             "finish": comm.finish_time, "duration": comm.duration}
            for (src, dst, size), comm in zip(transfers, comms)]


def figure_draw(fig, seed, size):
    pairs = draw_transfer_pairs(FIGURES[fig].spec, seed)
    return [(src, dst, size) for src, dst in pairs]


SAG = "sagittaire-{}.lyon.grid5000.fr".format
#: a third of the sagittaire access links — crossed by most fig5 draws
SAG_LINKS = "sagittaire-1*.lyon.grid5000.fr-link"


class TestTransferProcessesEquivalence:
    """``simulate_transfers`` == the explicit two-process form, exactly."""

    def both(self, platform, transfers, model=None, ongoing=(), events=(),
             cls=Simulation):
        answers = []
        for run in (simulated_transfers, explicit_transfers):
            with link_sandbox():
                sim = cls(platform, model or LV08())
                schedule_dynamics(sim, events)
                for src, dst, size in ongoing:
                    sim.add_comm(src, dst, size)
                answers.append(run(sim, list(transfers)))
        fast, reference = answers
        assert all(r["duration"] > 0.0 for r in reference)
        assert fast == reference  # floats compared with ==: bit for bit
        return fast

    @pytest.mark.parametrize("fig,model", [
        ("fig5", "LV08"), ("fig9", "LV08"), ("fig5", "tcp_fluid"),
        ("fig9", "CM02"),
    ])
    @pytest.mark.parametrize("size", [1e5, 5.99e7, 1e10])
    def test_figure_draws(self, g5k_test_platform, fig, model, size):
        self.both(g5k_test_platform, figure_draw(fig, 3, size),
                  model=model_by_name(model))

    @pytest.mark.parametrize("model", ["LV08", "tcp_fluid"])
    def test_full_resolve(self, g5k_test_platform, model):
        self.both(g5k_test_platform, figure_draw("fig5", 4, 2.15e8),
                  model=model_by_name(model), cls=ReferenceSimulation)

    def test_with_ongoing_transfers(self, g5k_test_platform):
        transfers = figure_draw("fig5", 5, 7.74e8)
        ongoing = [(dst, src, 3e8) for src, dst, _ in transfers[:10]]
        with_bg = self.both(g5k_test_platform, transfers, ongoing=ongoing)
        alone = self.both(g5k_test_platform, transfers)
        assert with_bg != alone

    @pytest.mark.parametrize("model", ["LV08", "tcp_fluid"])
    @pytest.mark.parametrize("engine", [{}, {"cls": ReferenceSimulation}])
    def test_with_link_events_at_zero_and_mid_flight(
            self, g5k_test_platform, model, engine):
        transfers = figure_draw("fig5", 6, 7.74e8)
        events = [
            LinkEvent(time=0.0, link=SAG_LINKS, action="degrade", factor=0.5),
            LinkEvent(time=2.0, link=SAG_LINKS, action="degrade", factor=0.2),
            LinkEvent(time=9.0, link=SAG_LINKS, action="recover"),
        ]
        dynamic = self.both(g5k_test_platform, transfers, events=events,
                            model=model_by_name(model), **engine)
        static = self.both(g5k_test_platform, transfers,
                           model=model_by_name(model), **engine)
        assert dynamic != static

    def test_event_at_zero_applies_before_the_transfers_start(self, dumbbell):
        # fairness weights depend on bandwidth (LV08's weight_S), so comms
        # started before a t=0 event fired would split the bottleneck
        # differently
        transfers = [("left-1", "right-1", 1e9), ("left-2", "right-1", 1e9)]
        event = LinkEvent(time=0.0, link="left-1-link", action="degrade",
                          factor=0.25)
        scheduled = self.both(dumbbell, transfers, events=[event])
        link = dumbbell.link("left-1-link")
        link.bandwidth = link.bandwidth * 0.25
        assert scheduled == self.both(dumbbell, transfers)

    def test_loopback_and_repeated_pair(self, g5k_test_platform):
        transfers = [
            (SAG(1), SAG(1), 1e8),             # src == dst: loopback
            (SAG(1), SAG(2), 5e8), (SAG(1), SAG(2), 5e8),  # same pair twice
            (SAG(3), SAG(2), 2e8),
        ]
        records = self.both(g5k_test_platform, transfers)
        assert records[1]["duration"] == records[2]["duration"]
        assert records[0]["duration"] < records[3]["duration"]
