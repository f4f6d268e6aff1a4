"""Applying a dynamics schedule to a running simulation.

Each :class:`~repro.scenarios.spec.LinkEvent` becomes a simulation timer
that mutates the matched links' bandwidth in place.  The mutation bumps the
global link-mutation epoch (see :class:`~repro.simgrid.platform.Link`), and
the scheduled callback calls :meth:`Simulation.touch_sharing
<repro.simgrid.engine.Simulation.touch_sharing>`, so the kernel re-derives
every in-flight activity's sharing usages at the very next event-loop
iteration — in-flight transfers recalibrate to the degraded/failed/recovered
capacities exactly like they do for the latency feed's link edits.  A
scenario run commits its writes; a what-if runs the same timers inside a
:func:`~repro.simgrid.platform.link_sandbox`, where they are transient and
move no cache key (:mod:`repro.horizon.whatif`).

Failures set bandwidth to :data:`FAILED_BANDWIDTH` (1 byte/s) rather than
zero: the platform model requires positive capacities, and a vanishing-but-
positive floor keeps completion times finite so a scenario without a
recovery event still terminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.scenarios.spec import LinkEvent, MeasuredTrace
from repro.simgrid.engine import Simulation

#: Bandwidth floor (bytes/s) modelling a failed link.
FAILED_BANDWIDTH = 1.0


@dataclass
class AppliedEvent:
    """One link mutation that actually fired during a run."""

    time: float
    link: str
    action: str
    bandwidth: float  # the bandwidth set, bytes/s
    #: set only by measured latency replays: the latency applied, seconds
    latency: Optional[float] = None

    def to_json(self) -> dict:
        doc = {"time": self.time, "link": self.link,
               "action": self.action, "bandwidth": self.bandwidth}
        if self.latency is not None:
            doc["latency"] = self.latency
        return doc


@dataclass
class DynamicsLog:
    """Applied link mutations, appended as their timers fire."""

    applied: list[AppliedEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.applied)


def validate_dynamics(platform, events: Sequence[LinkEvent]) -> None:
    """Fail fast if any event's pattern matches no link of ``platform``."""
    for event in events:
        if not platform.links_matching(event.link):
            raise ValueError(
                f"dynamics event at t={event.time} matches no link: "
                f"pattern {event.link!r}"
            )


def schedule_dynamics(
    sim: Simulation, events: Sequence[LinkEvent]
) -> DynamicsLog:
    """Schedule all ``events`` on ``sim`` (call before ``run()``, at clock 0).

    Event times are absolute simulated seconds.  ``degrade`` factors apply to
    each link's *nominal* bandwidth (its value when the schedule first touches
    it), so ``degrade 0.5 → degrade 0.25 → recover`` composes predictably
    instead of compounding.  Returns the log the fired events append to.
    """
    if sim.clock != 0.0:
        raise ValueError(
            f"dynamics schedules use absolute times; schedule at clock 0, "
            f"not {sim.clock}"
        )
    validate_dynamics(sim.platform, events)
    nominal: dict[str, float] = {}
    log = DynamicsLog()

    def fire(event: LinkEvent) -> None:
        for link in sim.platform.links_matching(event.link):
            base = nominal.setdefault(link.name, link.bandwidth)
            if event.action == "degrade":
                link.bandwidth = base * event.factor
            elif event.action == "fail":
                link.bandwidth = FAILED_BANDWIDTH
            else:  # recover
                link.bandwidth = base
            log.applied.append(AppliedEvent(
                time=event.time, link=link.name, action=event.action,
                bandwidth=link.bandwidth,
            ))
        sim.touch_sharing()

    for event in sorted(events, key=lambda e: e.time):
        sim.schedule(event.time, lambda event=event: fire(event))
    return log


def schedule_measured(
    sim: Simulation,
    traces: Sequence[MeasuredTrace],
    log: Optional[DynamicsLog] = None,
) -> DynamicsLog:
    """Schedule measured-trace replays on ``sim`` (call at clock 0).

    Each trace sample becomes a timer setting the matched links' bandwidth
    (or latency) to the recorded absolute value, through the same
    epoch-bumping setters and :meth:`Simulation.touch_sharing` path as the
    synthetic dynamics — in-flight transfers recalibrate identically
    whether the mutation came from a what-if schedule or a recorded RRD
    series.  Appends to ``log`` when given, so one
    :class:`DynamicsLog` can carry both sources of a scenario.
    """
    if sim.clock != 0.0:
        raise ValueError(
            f"measured replays use absolute times; schedule at clock 0, "
            f"not {sim.clock}"
        )
    for trace in traces:
        if not sim.platform.links_matching(trace.link):
            raise ValueError(
                f"measured trace matches no link: pattern {trace.link!r}"
            )
    log = log if log is not None else DynamicsLog()

    def fire(time: float, updates: list[tuple[MeasuredTrace, float]]) -> None:
        for trace, value in updates:
            for link in sim.platform.links_matching(trace.link):
                if trace.metric == "bandwidth":
                    link.bandwidth = value
                    latency = None
                else:
                    link.latency = value
                    latency = value
                log.applied.append(AppliedEvent(
                    time=time, link=link.name, action="measured",
                    bandwidth=link.bandwidth, latency=latency,
                ))
        sim.touch_sharing()

    # combined traces (bandwidth + latency per link, recorded on one probe
    # grid) put many samples on the same instant — group them into one
    # timer so each instant re-derives the sharing system once, not once
    # per trace
    by_time: dict[float, list[tuple[MeasuredTrace, float]]] = {}
    for trace in traces:
        for time, value in trace.samples:
            by_time.setdefault(time, []).append((trace, value))
    for time in sorted(by_time):
        sim.schedule(
            time,
            lambda time=time, updates=by_time[time]: fire(time, updates),
        )
    return log
