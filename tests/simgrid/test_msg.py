"""MSG layer: processes, mailboxes, rendezvous, wait_all."""

import math

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.protocol import draw_transfer_pairs
from repro.horizon.whatif import transient_link_states
from repro.scenarios.dynamics import schedule_dynamics
from repro.scenarios.spec import LinkEvent
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02, LV08, model_by_name
from repro.simgrid.msg import ProcessError, add_process, transfer_processes


class TestProcesses:
    def test_plain_function_runs_at_start_time(self, star4):
        sim = Simulation(star4)
        ran = []
        add_process(sim, "p", "star-1", lambda ctx: ran.append(ctx.now),
                    start_time=2.5)
        sim.run()
        assert ran == [2.5]

    def test_process_result_is_return_value(self, star4):
        sim = Simulation(star4)

        def worker(ctx):
            yield ctx.sleep(1.0)
            return 42

        proc = add_process(sim, "w", "star-1", worker)
        sim.run()
        assert proc.result == 42
        assert proc.done

    def test_join_another_process(self, star4):
        sim = Simulation(star4)
        order = []

        def slow(ctx):
            yield ctx.sleep(3.0)
            order.append("slow")
            return "done"

        def waiter(ctx, other):
            result = yield other
            order.append(f"waiter-got-{result}")

        proc = add_process(sim, "slow", "star-1", slow)
        add_process(sim, "waiter", "star-2", waiter, proc)
        sim.run()
        assert order == ["slow", "waiter-got-done"]

    def test_yielding_non_waitable_raises(self, star4):
        sim = Simulation(star4)

        def bad(ctx):
            yield 42

        add_process(sim, "bad", "star-1", bad)
        with pytest.raises(ProcessError):
            sim.run()

    def test_negative_start_time_rejected(self, star4):
        sim = Simulation(star4)
        with pytest.raises(ProcessError):
            add_process(sim, "p", "star-1", lambda ctx: None, start_time=-1.0)

    def test_context_exposes_host_and_name(self, star4):
        sim = Simulation(star4)
        seen = {}

        def probe(ctx):
            seen["host"] = ctx.host.name
            seen["name"] = ctx.name

        add_process(sim, "probe", "star-3", probe)
        sim.run()
        assert seen == {"host": "star-3", "name": "probe"}


class TestMailboxes:
    def test_send_recv_transfers_payload(self, star4):
        sim = Simulation(star4)
        received = []

        def sender(ctx):
            yield ctx.send("mb", 1e6, payload={"hello": "world"})

        def receiver(ctx):
            payload = yield ctx.recv("mb")
            received.append((ctx.now, payload))

        add_process(sim, "snd", "star-1", sender)
        add_process(sim, "rcv", "star-2", receiver)
        sim.run()
        assert received[0][1] == {"hello": "world"}
        assert received[0][0] > 0.0

    def test_rendezvous_waits_for_receiver(self, star4):
        sim = Simulation(star4)
        finish = {}

        def sender(ctx):
            yield ctx.send("mb", 1e6)
            finish["send"] = ctx.now

        def late_receiver(ctx):
            yield ctx.sleep(5.0)
            yield ctx.recv("mb")
            finish["recv"] = ctx.now

        add_process(sim, "snd", "star-1", sender)
        add_process(sim, "rcv", "star-2", late_receiver)
        sim.run()
        # data only flows after the receiver posts at t=5
        assert finish["send"] >= 5.0
        assert finish["recv"] == pytest.approx(finish["send"])

    def test_fifo_matching_order(self, star4):
        sim = Simulation(star4)
        got = []

        def sender(ctx, tag):
            yield ctx.send("mb", 1e5, payload=tag)

        def receiver(ctx):
            a = yield ctx.recv("mb")
            b = yield ctx.recv("mb")
            got.extend([a, b])

        add_process(sim, "s1", "star-1", sender, "first")
        add_process(sim, "s2", "star-2", sender, "second", start_time=0.1)
        add_process(sim, "rcv", "star-3", receiver)
        sim.run()
        assert got == ["first", "second"]

    def test_wait_all_collects_results(self, star4):
        sim = Simulation(star4)
        collected = []

        def sender(ctx, mb, tag):
            yield ctx.send(mb, 1e5, payload=tag)

        def receiver(ctx):
            handles = [ctx.recv("mb-a"), ctx.recv("mb-b")]
            results = yield ctx.wait_all(handles)
            collected.extend(results)

        add_process(sim, "sa", "star-1", sender, "mb-a", "A")
        add_process(sim, "sb", "star-2", sender, "mb-b", "B")
        add_process(sim, "rcv", "star-3", receiver)
        sim.run()
        assert collected == ["A", "B"]

    def test_wait_all_empty_completes_immediately(self, star4):
        sim = Simulation(star4)
        done = []

        def proc(ctx):
            result = yield ctx.wait_all([])
            done.append(result)

        add_process(sim, "p", "star-1", proc)
        sim.run()
        assert done == [[]]


class TestTransferProcesses:
    def test_paper_pattern_records_durations(self, star4):
        sim = Simulation(star4, CM02())
        records = transfer_processes(
            sim, [("star-1", "star-2", 1e9), ("star-3", "star-4", 1e9)]
        )
        expected = 2e-4 + 8.0
        for record in records:
            assert record["duration"] == pytest.approx(expected, rel=1e-3)
            assert record["start"] == 0.0
            assert not math.isnan(record["finish"])

    def test_matches_direct_simulation(self, star4):
        direct = Simulation(star4, CM02()).simulate_transfers(
            [("star-1", "star-3", 5e8), ("star-2", "star-3", 5e8)]
        )
        msg_sim = Simulation(star4, CM02())
        records = transfer_processes(
            msg_sim, [("star-1", "star-3", 5e8), ("star-2", "star-3", 5e8)]
        )
        for comm, record in zip(direct, records):
            assert record["duration"] == pytest.approx(comm.duration, rel=1e-6)


def explicit_transfer_processes(sim, transfers):
    """The paper's pattern spelled out — one sender and one receiver process
    per transfer, meeting on a private mailbox.  ``transfer_processes``
    simulates the same thing without the processes; this is the reference
    it must match bit for bit."""
    records = []

    def sender(ctx, mailbox, size):
        yield ctx.send(mailbox, size)

    def receiver(ctx, mailbox, record):
        yield ctx.recv(mailbox)
        record["finish"] = ctx.now
        record["duration"] = ctx.now - record["start"]

    for idx, (src, dst, size) in enumerate(transfers):
        record = {"src": src, "dst": dst, "size": size,
                  "start": 0.0, "finish": math.nan, "duration": math.nan}
        records.append(record)
        add_process(sim, f"sender-{idx}", src, sender, f"pnfs-{idx}", size)
        add_process(sim, f"receiver-{idx}", dst, receiver, f"pnfs-{idx}", record)
    sim.run()
    return records


def figure_draw(fig, seed, size):
    pairs = draw_transfer_pairs(FIGURES[fig].spec, seed)
    return [(src, dst, size) for src, dst in pairs]


SAG = "sagittaire-{}.lyon.grid5000.fr".format
#: a third of the sagittaire access links — crossed by most fig5 draws
SAG_LINKS = "sagittaire-1*.lyon.grid5000.fr-link"


class TestTransferProcessesEquivalence:
    """``transfer_processes`` == the explicit two-process form, exactly."""

    def both(self, platform, transfers, model=None, ongoing=(), events=(),
             **engine):
        answers = []
        for run in (transfer_processes, explicit_transfer_processes):
            with transient_link_states(platform, (e.link for e in events)):
                sim = Simulation(platform, model or LV08(), **engine)
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
                  model=model_by_name(model), full_resolve=True)

    def test_with_ongoing_transfers(self, g5k_test_platform):
        transfers = figure_draw("fig5", 5, 7.74e8)
        ongoing = [(dst, src, 3e8) for src, dst, _ in transfers[:10]]
        with_bg = self.both(g5k_test_platform, transfers, ongoing=ongoing)
        alone = self.both(g5k_test_platform, transfers)
        assert with_bg != alone

    @pytest.mark.parametrize("model", ["LV08", "tcp_fluid"])
    @pytest.mark.parametrize("engine", [{}, {"full_resolve": True}])
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
