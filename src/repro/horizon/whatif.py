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
sandboxed: link states touched by the schedule are snapshotted up front and
restored afterwards (only values that actually changed are written back, so
an untouched run does not bump the epoch).  The transient bumps during the
run invalidate epoch-keyed caches by design — that is the consistency
mechanism the whole stack trusts; callers that answer concurrent point
queries serialize what-if runs behind a lock (see
:meth:`repro.core.forecast.NetworkForecastService.predict_what_if`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Optional, Sequence

from repro.scenarios.dynamics import DynamicsLog, schedule_dynamics
from repro.scenarios.spec import LinkEvent
from repro.simgrid.engine import Simulation
from repro.simgrid.msg import transfer_processes


@contextmanager
def transient_link_states(platform, patterns: Iterable[str]):
    """Snapshot the links matching ``patterns``; restore them on exit.

    Restoration writes back only values that actually changed, so the exit
    path bumps the link-mutation epoch once per genuinely mutated quantity
    and not at all for a schedule that never fired.
    """
    touched: dict[str, tuple[object, float, float]] = {}
    for pattern in patterns:
        for link in platform.links_matching(pattern):
            touched.setdefault(link.name, (link, link.bandwidth, link.latency))
    try:
        yield
    finally:
        for link, bandwidth, latency in touched.values():
            if link.bandwidth != bandwidth:
                link.bandwidth = bandwidth
            if link.latency != latency:
                link.latency = latency


def run_what_if(
    platform,
    model,
    transfers: Sequence[tuple[str, str, float]],
    events: Sequence[LinkEvent],
    ongoing: Sequence[tuple[str, str, float]] = (),
    capacity_factors: Optional[dict[str, float]] = None,
    full_resolve: bool = False,
) -> tuple[list[dict], DynamicsLog]:
    """One what-if simulation; returns (transfer records, applied events).

    The call order matches :func:`repro.scenarios.runner.run_scenario` —
    dynamics scheduled first (at clock 0), then ongoing background comms,
    then the forecast transfers — so an equivalent hand-built scenario run
    produces bit-identical completion times.  The platform's touched link
    states are restored before returning.
    """
    with transient_link_states(platform, (e.link for e in events)):
        sim = Simulation(platform, model, capacity_factors=capacity_factors,
                         full_resolve=full_resolve)
        log = schedule_dynamics(sim, events)
        for idx, (src, dst, size) in enumerate(ongoing):
            sim.add_comm(src, dst, size, name=f"ongoing:{src}->{dst}#{idx}")
        records = transfer_processes(sim, list(transfers))
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
