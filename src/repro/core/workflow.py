"""Workflow forecasting: computations + transfers (§VI future work).

"In the future we plan to add some service which will not only forecast
network transfers but also full workflows involving computations and network
transfers.  This is another reason why we chose SimGrid, as adding the
simulation of computation will be straightforward."

A workflow is a :class:`~repro.simgrid.tasks.TaskGraph`: tasks placed on
hosts, each consuming its predecessors' output data (moved over the
simulated network) and then computing its flops.  The forecast runs the
static DAG on the kernel's done callbacks, the way SimGrid's SimDag runs
task graphs without processes: a zero-delay timer starts the root tasks; a
task's computation starts when the last of its input transfers finishes;
its output transfers start when the computation finishes (at once for a
task with no flops).  It reports per-task start and finish times, each
edge's arrival time and the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.forecast import NetworkForecastService
from repro.core.rest.errors import BadRequest, NotFound
from repro.simgrid.activities import CommActivity
from repro.simgrid.engine import Simulation
from repro.simgrid.models import NetworkModel
from repro.simgrid.tasks import TaskGraph


@dataclass(frozen=True)
class WorkflowForecast:
    """Predicted schedule of one workflow."""

    makespan: float
    #: task name -> (start_time, finish_time)
    task_times: dict
    #: (producer, consumer) -> that edge's transfer completion time
    transfer_times: dict

    def to_json(self) -> dict:
        return {
            "makespan": self.makespan,
            "tasks": {
                name: {"start": start, "finish": finish}
                for name, (start, finish) in sorted(self.task_times.items())
            },
            "transfers": {
                f"{p}->{c}": t for (p, c), t in sorted(self.transfer_times.items())
            },
        }


class WorkflowForecastService:
    """Workflow predictions over the forecast service's platforms."""

    def __init__(self, forecast: NetworkForecastService) -> None:
        self.forecast = forecast

    def predict_workflow(
        self,
        platform_name: str,
        graph: TaskGraph,
        model: Optional[NetworkModel] = None,
    ) -> WorkflowForecast:
        """Simulate the workflow; returns task times and makespan."""
        try:
            graph.validate()
        except ValueError as exc:
            raise BadRequest(f"invalid workflow: {exc}") from None
        platform = self.forecast.platform(platform_name)
        for name, host in graph.placement.items():
            if not platform.has_host(host):
                raise NotFound(f"unknown host {host!r} for task {name!r}")

        sim = Simulation(platform, model or self.forecast.model)
        placement = graph.placement
        task_times: dict[str, tuple[float, float]] = {}
        transfer_times: dict[tuple[str, str], float] = {}
        # task -> input transfers not yet arrived
        waiting = {name: len(graph.predecessors(name)) for name in graph.tasks}

        def start(name: str) -> None:
            flops = graph.tasks[name].flops
            begin = sim.clock
            if flops > 0:
                sim.add_exec(placement[name], flops).add_done_callback(
                    lambda _exec: finish(name, begin))
            else:
                finish(name, begin)

        def finish(name: str, begin: float) -> None:
            task_times[name] = (begin, sim.clock)
            successors = graph.successors(name)
            size = max(graph.tasks[name].output_bytes, 1.0)
            comms = sim.add_comms(
                [(placement[name], placement[succ], size) for succ in successors],
                [f"{name}->{succ}" for succ in successors])
            for succ, comm in zip(successors, comms):
                comm.add_done_callback(
                    lambda done, edge=(name, succ): arrive(edge, done))

        def arrive(edge: tuple[str, str], comm: CommActivity) -> None:
            transfer_times[edge] = comm.finish_time
            consumer = edge[1]
            waiting[consumer] -= 1
            if not waiting[consumer]:
                start(consumer)

        def start_roots() -> None:
            for name in graph.roots():
                start(name)

        sim.schedule(0.0, start_roots)
        sim.run()

        if len(task_times) != len(graph.tasks):
            missing = sorted(set(graph.tasks) - set(task_times))
            raise BadRequest(f"workflow deadlocked; tasks never ran: {missing}")
        return WorkflowForecast(
            makespan=max(end for _, end in task_times.values()),
            task_times=task_times, transfer_times=transfer_times)
