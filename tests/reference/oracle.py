"""The PNFS answer by definition, with nothing the service keeps between
requests.

§IV-C2: an answer is the simulation of the described platform, under its
current link state, of one sender and one receiver process per requested
transfer.  :func:`answer` does exactly that for one query: it builds a
fresh private platform from its builder, writes the given link values, runs
the query's ``LinkEvent`` schedule on timers of its own, starts the ongoing
comms, and runs :func:`~reference.process.explicit_transfers` on
:class:`~reference.maxmin.ReferenceSimulation` (the dense re-solve of every
event).  No cache, flight, surrogate, link sandbox, served route store or
``simulate_forecast`` is on this path, and ``tests/test_service_machine.py``
keeps this module's imports away from them; the state machine there holds
every public verb of the service, in any order, to this answer.

Historical bugs the sequential machine cannot reach, and why:

- The ``comm_spec`` memo ABA race (a what-if that exited while a point
  forecast computed a spec let a spec read from a transient value be
  stored under the committed state) needs a what-if and a read on two
  threads at once; the machine runs one verb at a time.
- The horizon deque race (``RuntimeError: deque mutated during
  iteration``) needs an observation beside a projection on another thread;
  same reason.  ``tests/horizon/test_horizon_feeds.py`` keeps its threaded
  hammer.
- The leftover reverses (an AS that kept a built reverse after its entry
  was redeclared): no AS keeps a reverse any more, each is decoded on
  every store miss, so the code that could leave one is gone.  A wrong
  decode would show here as a wrong answer.
- Three solver mutations that no test kills (the fill freezing a variable
  without clipping it to its bound, the re-sum of a constraint's usage in
  reverse order, ``inf`` rates summed into a shared usage) are reachable
  by the machine's requests, since every one goes through that fill, but
  none of them changes an answer by more than 1e-9 there either.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from reference.maxmin import ReferenceSimulation
from reference.process import explicit_transfers

#: A failed link's bandwidth (bytes/s): positive, so time stays finite.
FAILED_BANDWIDTH = 1.0


def answer(
    builder: Callable,
    links: Mapping[str, tuple[float, float]],
    transfers: Sequence[tuple[str, str, float]],
    model,
    ongoing: Sequence[tuple[str, str, float]] = (),
    events: Sequence = (),
    capacity_factors: Optional[dict[str, float]] = None,
) -> tuple[list[float], list[dict]]:
    """One query's durations, in request order, and the events that fired,
    as ``AppliedEvent.to_json()`` dicts in firing order.

    ``builder()`` makes the platform as described; ``links`` maps a link
    name to its current ``(bandwidth, latency)``.  Each event applies to
    every link its pattern matches: ``degrade`` sets ``factor`` times the
    link's bandwidth when the schedule first touched it, ``fail`` sets
    :data:`FAILED_BANDWIDTH`, ``recover`` that first bandwidth again."""
    platform = builder()
    for name, (bandwidth, latency) in links.items():
        link = platform.link(name)
        link.bandwidth, link.latency = bandwidth, latency
    sim = ReferenceSimulation(platform, model,
                              capacity_factors=capacity_factors)
    first: dict[str, float] = {}
    applied: list[dict] = []

    def fire(event) -> None:
        for link in platform.links_matching(event.link):
            base = first.setdefault(link.name, link.bandwidth)
            link.bandwidth = {"degrade": base * event.factor,
                              "fail": FAILED_BANDWIDTH}.get(event.action, base)
            applied.append({"time": event.time, "link": link.name,
                            "action": event.action,
                            "bandwidth": link.bandwidth})
        sim.touch_sharing()

    for event in sorted(events, key=lambda event: event.time):
        sim.schedule(event.time, lambda event=event: fire(event))
    for src, dst, size in ongoing:
        sim.add_comm(src, dst, size)
    records = explicit_transfers(sim, transfers)
    return [record["duration"] for record in records], applied


def agrees(got: float, expected: float, rel: float = 1e-9) -> bool:
    """``got`` equals the oracle's ``expected`` within ``rel`` relative."""
    return abs(got - expected) <= rel * abs(expected)
