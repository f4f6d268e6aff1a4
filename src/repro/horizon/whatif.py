"""What-if transfer forecasts: transient ``LinkEvent`` schedules.

A what-if query — "these transfers, if link X degrades 50% at t+30s" —
composes a forecast request with a :class:`~repro.scenarios.spec.LinkEvent`
schedule.  The events run through the *existing* dynamics machinery
(:func:`repro.scenarios.dynamics.schedule_dynamics`): timers mutate matched
links in place, which bumps the global link-mutation epoch and recalibrates
in-flight transfers exactly like the scenario runner and the metrology
latency feed do — so a what-if answer is bit-identical to hand-building the
same ``ScenarioSpec`` dynamics on the same platform.

Because the schedule mutates *live* registered platforms, the run is
sandboxed (:func:`repro.simgrid.platform.link_sandbox`): its writes are
transient, move no answer-cache key and end at the committed values — a
recalibration that landed meanwhile included — so a finished what-if
retires no cached answer.  :func:`simulate_forecast` is the one forecast
simulation: :meth:`repro.core.forecast.NetworkForecastService.answer` runs
every query through it, what-ifs behind the service's lock.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional, Sequence

from repro.scenarios.dynamics import DynamicsLog, schedule_dynamics
from repro.scenarios.spec import LinkEvent
from repro.simgrid.engine import Simulation
from repro.simgrid.platform import link_sandbox


def simulate_forecast(
    platform,
    model,
    transfers: Sequence[tuple[str, str, float]],
    events: Sequence[LinkEvent] = (),
    ongoing: Sequence[tuple[str, str, float]] = (),
    capacity_factors: Optional[dict[str, float]] = None,
) -> tuple[list, DynamicsLog]:
    """One forecast simulation; returns (the transfers' comms, the log of
    applied events).

    The call order matches :func:`repro.scenarios.runner.run_scenario` —
    dynamics scheduled first (at clock 0), then ongoing background comms,
    then the forecast transfers — so an equivalent hand-built scenario run
    produces bit-identical completion times.  With ``events`` the run is
    sandboxed: the links it wrote are back at their committed values before
    it returns.
    """
    with link_sandbox() if events else nullcontext():
        sim = Simulation(platform, model, capacity_factors=capacity_factors)
        log = schedule_dynamics(sim, events) if events else DynamicsLog()
        for idx, (src, dst, size) in enumerate(ongoing):
            sim.add_comm(src, dst, size, name=f"ongoing:{src}->{dst}#{idx}")
        return sim.simulate_transfers(transfers), log


def run_what_if(
    platform,
    model,
    transfers: Sequence[tuple[str, str, float]],
    events: Sequence[LinkEvent],
    ongoing: Sequence[tuple[str, str, float]] = (),
    capacity_factors: Optional[dict[str, float]] = None,
) -> tuple[list[dict], DynamicsLog]:
    """:func:`simulate_forecast` as (transfer records, applied events);
    each record has keys ``src``, ``dst``, ``size``, ``start``, ``finish``,
    ``duration``."""
    comms, log = simulate_forecast(platform, model, transfers, events,
                                   ongoing, capacity_factors)
    records = [
        {"src": src, "dst": dst, "size": size, "start": comm.start_time,
         "finish": comm.finish_time, "duration": comm.duration}
        for (src, dst, size), comm in zip(transfers, comms)
    ]
    return records, log


def parse_event(text: str) -> LinkEvent:
    """Parse the CLI/query form ``time,link,action[,factor]``."""
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) not in (3, 4):
        raise ValueError(
            f"event must be 'time,link,action[,factor]', got {text!r}")
    time, link, action = parts[0], parts[1], parts[2]
    factor = float(parts[3]) if len(parts) == 4 else 1.0
    return LinkEvent(time=float(time), link=link, action=action,
                     factor=factor)


def events_from_json(items: Sequence) -> list[LinkEvent]:
    """Decode a JSON ``events`` array (dicts in ``LinkEvent.to_json`` form)."""
    events: list[LinkEvent] = []
    for item in items:
        if not isinstance(item, dict):
            raise ValueError(
                f"each event must be an object with time/link/action, "
                f"got {item!r}")
        events.append(LinkEvent.from_json(item))
    return events
