"""Activity objects: states, phases, waitable protocol.

Progress lives in the engine's slot arrays, so the phase behaviour is
checked through a :class:`Simulation` on a two-host star."""

import math

import pytest

from repro.simgrid.activities import (
    ActivityState,
    CommActivity,
    ExecActivity,
    SleepActivity,
    Waitable,
)
from repro.simgrid.builder import build_star_cluster
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02
from repro.simgrid.platform import Host

SRC, DST = "star-1", "star-2"


def make_comm(size=1e6, latency=1e-3):
    src, dst = Host("src"), Host("dst")
    return CommActivity("c", src, dst, size, route=[],
                        startup_latency=latency, weight=1.0, bound=math.inf)


@pytest.fixture()
def sim():
    return Simulation(build_star_cluster("star", 2), CM02())


class TestWaitable:
    def test_callback_after_fire(self):
        w = Waitable()
        seen = []
        w.add_done_callback(lambda x: seen.append("first"))
        w._fire()
        assert seen == ["first"]
        # registering after completion fires immediately
        w.add_done_callback(lambda x: seen.append("late"))
        assert seen == ["first", "late"]

    def test_fire_idempotent(self):
        w = Waitable()
        seen = []
        w.add_done_callback(lambda x: seen.append(1))
        w._fire()
        w._fire()
        assert seen == [1]


class TestCommPhases:
    def test_starts_in_latency_phase(self):
        comm = make_comm()
        assert comm.state is ActivityState.LATENCY
        assert comm.remaining == pytest.approx(1e-3)
        assert comm.rate == 1.0

    def test_latency_phase_transitions_to_transfer(self, sim):
        comm = sim.add_comm(SRC, DST, 1e6)
        latency = comm.remaining
        assert comm.state is ActivityState.LATENCY and latency > 0.0
        sim.run(until=latency / 2)
        assert comm.state is ActivityState.LATENCY
        assert comm.remaining == pytest.approx(latency / 2)
        sim.run(until=latency)
        assert comm.state is ActivityState.RUNNING
        assert comm.remaining == 1e6  # not a byte drained yet
        assert comm.rate > 0.0  # the share taken on entering
        assert comm.scale == 1e6  # tolerance back in byte units

    def test_transfer_completion(self, sim):
        comm = sim.add_comm(SRC, DST, 1e6)
        latency = comm.remaining
        sim.run(until=latency)
        rate = comm.rate
        sim.run()
        assert comm.state is ActivityState.DONE
        assert comm.remaining == 0.0
        assert comm.rate == rate
        assert comm.finish_time == pytest.approx(latency + 1e6 / rate)
        assert comm.duration == comm.finish_time - comm.start_time

    def test_zero_latency_skips_phase(self):
        comm = make_comm(latency=0.0)
        assert comm.state is ActivityState.RUNNING
        assert comm.remaining == pytest.approx(1e6)

    def test_zero_size_completes_after_latency(self, sim):
        comm = sim.add_comm(SRC, DST, 0.0)
        latency = comm.remaining
        sim.run()
        assert comm.state is ActivityState.DONE
        assert comm.finish_time == latency

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            make_comm(size=-1.0)

    def test_cancel_fires_once(self):
        comm = make_comm()
        seen = []
        comm.add_done_callback(lambda w: seen.append("done"))
        comm.cancel(now=0.5)
        comm.cancel(now=0.7)
        assert comm.state is ActivityState.CANCELED
        assert comm.finish_time == 0.5
        assert seen == ["done"]


class TestExecAndSleep:
    def test_exec_validation(self):
        with pytest.raises(ValueError):
            ExecActivity("e", Host("h"), -1.0)

    def test_exec_progress(self, sim):
        speed = sim.platform.host(SRC).speed
        activity = sim.add_exec(SRC, 3 * speed)
        sim.run(until=1.0)
        assert activity.rate == speed
        assert activity.remaining == pytest.approx(2 * speed)

    def test_sleep_drains_in_real_time(self, sim):
        sleep = sim.add_sleep(2.0)
        assert sleep.rate == 1.0
        sim.run(until=1.5)
        assert sleep.remaining == pytest.approx(0.5)
        sim.run()
        assert sleep.finish_time == 2.0

    def test_sleep_validation(self):
        with pytest.raises(ValueError):
            SleepActivity("s", -0.1)

    def test_duration_nan_until_finished(self):
        activity = ExecActivity("e", Host("h"), 1e9)
        assert math.isnan(activity.duration)
