"""Workflow forecasting (§VI future work, implemented).

Forecasts a small scatter/compute/gather workflow across two Grid'5000
sites: input data on a Lyon node is scattered to three Nancy workers, each
computes, and results return to Lyon.  The forecast reports per-task start
and finish times plus the makespan — "not only network transfers but also
full workflows involving computations and network transfers".

Run:  python examples/workflow_forecast.py
"""

from repro import Pilgrim
from repro.simgrid.tasks import Task, TaskGraph

LYON = "sagittaire-1.lyon.grid5000.fr"
WORKERS = [f"graphene-{i}.nancy.grid5000.fr" for i in (1, 2, 3)]


def scatter_gather() -> TaskGraph:
    """Split on Lyon, three Nancy workers, gather back on Lyon."""
    graph = TaskGraph()
    graph.add_task(Task("split", flops=2e9, output_bytes=2e9), LYON)
    for i, worker in enumerate(WORKERS, start=1):
        graph.add_task(Task(f"work-{i}", flops=5e10, output_bytes=2e8), worker)
        graph.add_edge("split", f"work-{i}")
    graph.add_task(Task("gather", flops=1e9), LYON)
    for i in range(1, len(WORKERS) + 1):
        graph.add_edge(f"work-{i}", "gather")
    return graph


def main() -> None:
    pilgrim = Pilgrim.with_grid5000(include_cabinets=False)
    forecast = pilgrim.workflows.predict_workflow("g5k_test", scatter_gather())

    print("workflow forecast (scatter 2 GB -> 3 Nancy workers -> gather):")
    for name, (start, finish) in sorted(forecast.task_times.items(),
                                        key=lambda kv: kv[1][0]):
        print(f"  {name:8s} start {start:8.2f} s   finish {finish:8.2f} s")
    print(f"\n  makespan: {forecast.makespan:.2f} s")

    print("\ndata-arrival times (edge transfers):")
    for (producer, consumer), t in sorted(forecast.transfer_times.items(),
                                          key=lambda kv: kv[1]):
        print(f"  {producer:8s} -> {consumer:8s} arrives at {t:8.2f} s")


if __name__ == "__main__":
    main()
