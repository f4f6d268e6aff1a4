"""The paper's motivating scheduling question (§I):

  "is it relevant to move 1TB of data to a more powerful cluster in order
   to decrease the computing time of 2 hours?  If the data transfer will
   take more than 2 hours, the answer is no."

We model the job as a two-node workflow — move the input data, then
compute — and compare staying on the slow cluster against moving to the
fast one, using the workflow forecast service (§VI).  A second round uses
the hypothesis planner to pick the best destination among several.

Run:  python examples/scheduling_decision.py
"""

from repro.core.forecast import NetworkForecastService, TransferSpec
from repro.core.planner import Hypothesis, TransferPlanner
from repro.core.workflow import WorkflowForecastService
from repro.simgrid.builder import build_two_level_grid
from repro.simgrid.models import LV08
from repro.simgrid.tasks import Task, TaskGraph

TB = 1e12
COMPUTE_FLOPS = 7.2e13  # 2 hours on the slow site's 10 Gf nodes


def grid_platform():
    """Two four-node sites on a 10 Gbps backbone; fastsite computes 4x
    faster."""
    platform = build_two_level_grid(
        {"slowsite": 4, "fastsite": 4},
        backbone_bandwidth="10Gbps", backbone_latency="2.25ms",
    )
    for i in range(1, 5):
        platform.host(f"slowsite-{i}").speed = 1e10   # 10 Gf
        platform.host(f"fastsite-{i}").speed = 4e10   # 4x faster
    return platform


def job(move_to: str) -> TaskGraph:
    """The 1 TB input on slowsite-1, moved to ``move_to`` and computed
    there."""
    graph = TaskGraph()
    graph.add_task(Task("data", flops=0.0, output_bytes=TB), "slowsite-1")
    graph.add_task(Task("compute", flops=COMPUTE_FLOPS), move_to)
    graph.add_edge("data", "compute")
    return graph


def main() -> None:
    forecast = NetworkForecastService({"grid": grid_platform()}, model=LV08())
    workflows = WorkflowForecastService(forecast)
    stay = workflows.predict_workflow("grid", job("slowsite-1")).makespan
    move = workflows.predict_workflow("grid", job("fastsite-1")).makespan
    print(f"input data: 1 TB on slowsite-1; job: {COMPUTE_FLOPS:.1e} flops")
    print(f"  stay on slow cluster : {stay / 3600:6.2f} h "
          f"(no transfer, slow compute)")
    print(f"  move to fast cluster : {move / 3600:6.2f} h "
          f"(1 TB over the backbone, then 4x compute)")
    print(f"  decision             : {'MOVE' if move < stay else 'STAY'}")

    # §VI: given n transfer hypotheses, select the fastest — here, which
    # fast node should receive the data if several jobs run concurrently
    planner = TransferPlanner(forecast, "grid")
    hypotheses = [
        Hypothesis("all-to-fast-1", (
            TransferSpec("slowsite-1", "fastsite-1", TB / 2),
            TransferSpec("slowsite-2", "fastsite-1", TB / 2),
        )),
        Hypothesis("spread", (
            TransferSpec("slowsite-1", "fastsite-1", TB / 2),
            TransferSpec("slowsite-2", "fastsite-2", TB / 2),
        )),
    ]
    result = planner.select_fastest(hypotheses)
    print("\nplacing two 0.5 TB input sets on the fast site:")
    for score in result.scores:
        note = "" if score.simulated else " (pruned, lower bound)"
        print(f"  {score.name:15s} makespan {score.makespan / 60:7.1f} min{note}")
    print(f"  best: {result.best}")


if __name__ == "__main__":
    main()
