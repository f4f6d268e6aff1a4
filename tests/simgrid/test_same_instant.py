"""Same-instant batches: phase changes and completions that coincide.

The engine handles every latency end and every completion of one instant in
one pass (``Simulation._complete_finished``), and the comms that finished
leave the sharing arena in one batch.  The transfer sets drawn here make
events coincide on purpose — repeated ``(src, dst, size)`` triples, a star
whose routes all have one latency, zero-size comms, loopback pairs — and add
a done callback that starts comms at a completion instant and a timer that
cancels a comm at another.  Three forms must then agree bit for bit:

- ``simulate_transfers`` ≡ the explicit sender/receiver processes of
  ``tests/process_reference.py``, in both engine modes, and the incremental
  mode ≡ ``full_resolve=True`` within the kernel's 1e-9 (the dense
  reference solver may round a rate's last bit differently);
- N × ``add_comm`` + ``run()`` ≡ ``simulate_transfers`` (the two forms the
  perf ladder times).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from process_reference import explicit_transfers
from repro.simgrid.builder import build_star_cluster
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02, LV08, model_by_name

PLATFORM = build_star_cluster("star", 4)
HOSTS = [f"star-{i}" for i in range(1, 5)]
MODELS = {"CM02": CM02(), "LV08": LV08(), "tcp_fluid": model_by_name("tcp_fluid")}

TRIPLES = st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS),
                    st.sampled_from([0.0, 1e5, 3e7, 5e8, 5e8, 1e9]))


@st.composite
def scenarios(draw):
    distinct = draw(st.lists(TRIPLES, min_size=1, max_size=5))
    # repeated triples: the same transfer several times in one request
    transfers = draw(st.lists(st.sampled_from(distinct), min_size=1,
                              max_size=8))
    return {
        "transfers": transfers,
        "model": draw(st.sampled_from(sorted(MODELS))),
        "trigger": draw(st.one_of(st.none(), st.sampled_from(distinct))),
        "follow": draw(st.lists(st.sampled_from(distinct + [("star-1", "star-1", 2e6)]),
                                max_size=3)),
        "victim": draw(st.one_of(st.none(), st.sampled_from(distinct))),
        "cancel_at": draw(st.integers(min_value=0, max_value=6)),
    }


def times(activities):
    return [(a.start_time, a.finish_time) for a in activities]


def run(scenario, form, cancel_at=None, full_resolve=False):
    """One form of the scenario: ``(transfer times, extra comm times,
    sharing counts)``.  The trigger and the victim start before the
    transfers in every form; the trigger's done callback starts the
    follow-up comms; a timer at ``cancel_at`` cancels the victim."""
    sim = Simulation(PLATFORM, MODELS[scenario["model"]],
                     full_resolve=full_resolve)
    extras = []
    if scenario["trigger"] is not None:
        trigger = sim.add_comm(*scenario["trigger"])
        extras.append(trigger)

        def start_follow_ups(_done):
            if form == "bulk":
                extras.extend(sim.add_comms(scenario["follow"]))
            else:
                extras.extend(sim.add_comm(*t) for t in scenario["follow"])

        trigger.add_done_callback(start_follow_ups)
    if scenario["victim"] is not None:
        victim = sim.add_comm(*scenario["victim"])
        extras.append(victim)
        if cancel_at is not None:
            sim.schedule(cancel_at, lambda: victim.cancel(sim.clock))
    transfers = scenario["transfers"]
    if form == "bulk":
        main = times(sim.simulate_transfers(list(transfers)))
    elif form == "add_comm":
        comms = [sim.add_comm(*t) for t in transfers]
        sim.run()
        main = times(comms)
    else:
        main = [(r["start"], r["finish"])
                for r in explicit_transfers(sim, list(transfers))]
    stats = sim.sharing_stats
    counts = (stats["components_solved"], stats["variables_resolved"])
    return main, times(extras), counts


def instants(scenario):
    """The finish instants of the scenario run without its cancel timer."""
    main, extra, _ = run(scenario, "bulk")
    return sorted({finish for _, finish in main + extra})


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_forms_agree_at_coinciding_events(scenario):
    candidates = instants(scenario)
    cancel_at = candidates[scenario["cancel_at"] % len(candidates)]
    for full_resolve in (False, True):
        bulk = run(scenario, "bulk", cancel_at, full_resolve)
        # the explicit processes start the same comms from zero-delay timers
        assert run(scenario, "explicit", cancel_at, full_resolve)[:2] == bulk[:2]
        one_by_one = run(scenario, "add_comm", cancel_at, full_resolve)
        assert one_by_one[:2] == bulk[:2]
        if not full_resolve:
            # the same variables re-solved in the same components
            assert one_by_one[2] == bulk[2]
            incremental = bulk
    # full_resolve solves with the unfolded dense reference: same events,
    # rates within the kernel's 1e-9 (its last bits may differ)
    for got, want in zip(bulk[0] + bulk[1], incremental[0] + incremental[1]):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-15)


def test_comm_canceled_as_it_enters_its_transfer_phase_never_shares():
    # a sleep as long as the comm's startup latency ends at the very
    # instant the comm enters its transfer phase; the sleep's done callback
    # cancels the comm before the re-share that would have let it in
    transfers = [("star-1", "star-2", 5e8), ("star-3", "star-2", 5e8)]
    alone = Simulation(PLATFORM, LV08())
    expected = times(alone.simulate_transfers(transfers))

    sim = Simulation(PLATFORM, LV08())
    victim = sim.add_comm("star-4", "star-2", 5e8)
    latency = victim.remaining
    sim.add_sleep(latency).add_done_callback(
        lambda _sleep: victim.cancel(sim.clock))
    assert times(sim.simulate_transfers(transfers)) == expected
    assert victim.state.name == "CANCELED" and victim.finish_time == latency
    assert sim.sharing_stats["variables_resolved"] == \
        alone.sharing_stats["variables_resolved"]
