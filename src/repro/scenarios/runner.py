"""Executing one scenario: build, generate, schedule, simulate, summarize.

``run_scenario`` is the single entry point the CLI, the preset smoke check
and the tests share.  Repetitions redraw stochastic workloads from sibling
streams spawned via ``SeedSequence.spawn`` (see :mod:`repro._util.rng`), and
each repetition rebuilds the platform because dynamics schedules mutate link
bandwidths in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro._util.rng import spawn_rngs
from repro._util.stats import median
from repro.scenarios.dynamics import schedule_dynamics, schedule_measured
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.topologies import build_topology
from repro.scenarios.workloads import generate_workload
from repro.simgrid.engine import Simulation
from repro.simgrid.models import model_by_name
from repro.simgrid.platform import Platform


@dataclass
class TransferOutcome:
    """One completed transfer of one repetition."""

    rep: int
    src: str
    dst: str
    size: float
    duration: float

    def to_json(self) -> dict:
        return {"rep": self.rep, "src": self.src, "dst": self.dst,
                "size": self.size, "duration": self.duration}


@dataclass
class ScenarioResult:
    """Everything a scenario run produced."""

    name: str
    n_hosts: int
    n_links: int
    repetitions: int
    transfers: list[TransferOutcome] = field(default_factory=list)
    #: final simulated clock per repetition (all transfers and timers done)
    makespans: list[float] = field(default_factory=list)
    #: dynamics mutations applied during the first repetition
    events_applied: list = field(default_factory=list)

    def durations(self) -> list[float]:
        return [t.duration for t in self.transfers]

    @property
    def n_transfers(self) -> int:
        """Transfers per repetition."""
        return len(self.transfers) // max(1, self.repetitions)

    def summary(self) -> dict:
        durations = self.durations()
        return {
            "n_hosts": self.n_hosts,
            "n_links": self.n_links,
            "n_transfers": self.n_transfers,
            "repetitions": self.repetitions,
            "makespan": max(self.makespans),
            "min_duration": min(durations),
            "median_duration": median(durations),
            "max_duration": max(durations),
            "events_applied": len(self.events_applied),
        }

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "summary": self.summary(),
            "makespans": self.makespans,
            "events": [e.to_json() for e in self.events_applied],
            "transfers": [t.to_json() for t in self.transfers],
        }


def build_scenario_platform(spec: ScenarioSpec) -> Platform:
    """A fresh platform for ``spec`` (dynamics mutate links in place, so
    every run and every repetition gets its own)."""
    return build_topology(spec.topology)


def run_scenario(
    spec: ScenarioSpec,
    repetitions: int = 1,
    model: Optional[object] = None,
) -> ScenarioResult:
    """Run ``spec`` for ``repetitions`` and collect per-transfer outcomes."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    net_model = model if model is not None else model_by_name(spec.model)
    streams = spawn_rngs(spec.seed, repetitions, "workload", spec.name)
    result: Optional[ScenarioResult] = None
    for rep in range(repetitions):
        platform = build_scenario_platform(spec)
        if result is None:
            result = ScenarioResult(
                name=spec.name, n_hosts=len(platform.hosts()),
                n_links=len(platform.links()), repetitions=repetitions,
            )
        hosts = [h.name for h in platform.hosts()]
        transfers = generate_workload(spec.workload, hosts, streams[rep])
        sim = Simulation(platform, net_model)
        log = schedule_dynamics(sim, spec.dynamics)
        schedule_measured(sim, spec.measured, log=log)
        comms = sim.add_comms(transfers)
        makespan = sim.run()
        result.makespans.append(makespan)
        if rep == 0:
            result.events_applied = log.applied
        for comm, (src, dst, size) in zip(comms, transfers):
            result.transfers.append(TransferOutcome(
                rep=rep, src=src, dst=dst, size=size, duration=comm.duration,
            ))
    assert result is not None
    return result
