"""Workflow forecasting (§VI extension)."""

import importlib.util
from pathlib import Path

import pytest

from process_reference import generator_workflow
from repro.core.forecast import NetworkForecastService
from repro.core.rest.errors import BadRequest, NotFound
from repro.core.workflow import WorkflowForecastService
from repro.simgrid.builder import build_star_cluster
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02, LV08, model_by_name
from repro.simgrid.tasks import Task, TaskGraph

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def make_service():
    platform = build_star_cluster("star", 4)  # hosts: 1 Gf, links 1 Gbps
    forecast = NetworkForecastService({"star": platform}, model=CM02())
    return WorkflowForecastService(forecast)


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def chain():
    g = TaskGraph()
    g.add_task(Task("produce", flops=2e9, output_bytes=1.25e8), "star-1")
    g.add_task(Task("consume", flops=1e9), "star-2")
    g.add_edge("produce", "consume")
    return g


def transfer_only(consumer_host="star-2"):
    g = TaskGraph()
    g.add_task(Task("a", flops=0.0, output_bytes=1.25e8), "star-1")
    g.add_task(Task("b", flops=0.0), consumer_host)
    g.add_edge("a", "b")
    return g


def diamond():
    g = TaskGraph()
    g.add_task(Task("root", flops=1e9, output_bytes=1e6), "star-1")
    g.add_task(Task("left", flops=2e9, output_bytes=1e6), "star-2")
    g.add_task(Task("right", flops=1e9, output_bytes=1e6), "star-3")
    g.add_task(Task("join", flops=1e9), "star-4")
    for edge in (("root", "left"), ("root", "right"),
                 ("left", "join"), ("right", "join")):
        g.add_edge(*edge)
    return g


def colocated_computes():
    g = TaskGraph()
    g.add_task(Task("a", flops=1e9), "star-1")
    g.add_task(Task("b", flops=1e9), "star-1")
    return g


def crossing_roots():
    # two data-only roots whose outputs start at t = 0 in a different order
    # than the processes posted them; a colocated sink
    g = TaskGraph()
    g.add_task(Task("r1", output_bytes=5e7), "star-1")
    g.add_task(Task("r2", output_bytes=8e7), "star-2")
    g.add_task(Task("x", flops=1e9, output_bytes=2e7), "star-3")
    g.add_task(Task("y", flops=5e8, output_bytes=2e7), "star-4")
    g.add_task(Task("z", flops=1e8), "star-3")
    for edge in (("r1", "y"), ("r2", "x"), ("r1", "x"), ("x", "z"),
                 ("y", "z")):
        g.add_edge(*edge)
    return g


DAGS = {
    "chain": chain,
    "transfer_only": transfer_only,
    "diamond": diamond,
    "loopback": lambda: transfer_only("star-1"),
    "colocated_computes": colocated_computes,
    "crossing_roots": crossing_roots,
}


class TestLinearChain:
    def test_compute_then_transfer_then_compute(self):
        forecast = make_service().predict_workflow("star", chain())
        # 2s compute + 1s transfer (125MB at 1Gbps) + 1s compute (+latency)
        assert forecast.makespan == pytest.approx(4.0, rel=0.01)
        start, finish = forecast.task_times["consume"]
        assert start == pytest.approx(3.0, rel=0.01)
        assert finish == pytest.approx(4.0, rel=0.01)

    def test_transfer_times_recorded(self):
        forecast = make_service().predict_workflow("star", transfer_only())
        assert ("a", "b") in forecast.transfer_times
        assert forecast.transfer_times[("a", "b")] == pytest.approx(1.0, rel=0.01)


class TestDiamond:
    def test_join_waits_for_slowest_branch(self):
        forecast = make_service().predict_workflow("star", diamond())
        left_finish = forecast.task_times["left"][1]
        right_finish = forecast.task_times["right"][1]
        join_start = forecast.task_times["join"][0]
        assert left_finish > right_finish  # left computes twice as long
        assert join_start >= left_finish

    def test_branches_run_in_parallel(self):
        forecast = make_service().predict_workflow("star", diamond())
        # left: 1s root + transfer + 2s; serialized it would be >= 4s
        assert forecast.makespan < 4.6

    def test_each_input_edge_has_its_own_arrival_time(self):
        # right's output arrives a second before left's; the join starts
        # on the later one
        forecast = make_service().predict_workflow("star", diamond())
        times = forecast.transfer_times
        assert times[("right", "join")] < times[("left", "join")] \
            <= forecast.task_times["join"][0]

    def test_json_shape(self):
        data = make_service().predict_workflow("star", diamond()).to_json()
        assert set(data) == {"makespan", "tasks", "transfers"}
        assert "root->left" in data["transfers"]


class TestColocation:
    def test_same_host_transfer_is_loopback_fast(self):
        forecast = make_service().predict_workflow(
            "star", transfer_only("star-1"))
        assert forecast.makespan < 0.1  # loopback, not 1s over the NIC

    def test_colocated_computes_share_the_host(self):
        forecast = make_service().predict_workflow("star", colocated_computes())
        assert forecast.makespan == pytest.approx(2.0, rel=0.01)


class TestEqualsTheGeneratorForm:
    """Done callbacks == one process per task (``tests/process_reference.py``),
    bit for bit: task times, per-edge arrivals and makespan."""

    @staticmethod
    def reference(forecast, platform_name, graph, model):
        sim = Simulation(forecast.platform(platform_name), model)
        return generator_workflow(sim, graph)

    @pytest.mark.parametrize("model", ["CM02", "LV08", "tcp_fluid"])
    @pytest.mark.parametrize("dag", sorted(DAGS))
    def test_star_dags(self, dag, model):
        service = make_service()
        graph = DAGS[dag]()
        ours = service.predict_workflow("star", graph,
                                        model=model_by_name(model))
        assert ours == self.reference(service.forecast, "star", graph,
                                      model_by_name(model))
        assert len(ours.transfer_times) == len(graph.edges)

    def test_scatter_gather_example(self, forecast_service):
        graph = load_example("workflow_forecast").scatter_gather()
        ours = WorkflowForecastService(forecast_service).predict_workflow(
            "g5k_test", graph)
        assert ours == self.reference(forecast_service, "g5k_test", graph,
                                      forecast_service.model)
        assert len(ours.transfer_times) == 6

    @pytest.mark.parametrize("move_to", ["slowsite-1", "fastsite-1"])
    def test_scheduling_decision_example(self, move_to):
        example = load_example("scheduling_decision")
        forecast = NetworkForecastService({"grid": example.grid_platform()},
                                          model=LV08())
        graph = example.job(move_to)
        ours = WorkflowForecastService(forecast).predict_workflow("grid", graph)
        assert ours == self.reference(forecast, "grid", graph, LV08())


class TestExamplesRun:
    def test_workflow_forecast_main(self, capsys, forecast_service):
        example = load_example("workflow_forecast")
        example.main()
        expected = WorkflowForecastService(forecast_service).predict_workflow(
            "g5k_test", example.scatter_gather())
        out = capsys.readouterr().out
        assert f"makespan: {expected.makespan:.2f} s" in out
        assert out.count("arrives at") == 6

    def test_scheduling_decision_main(self, capsys):
        example = load_example("scheduling_decision")
        example.main()
        workflows = WorkflowForecastService(NetworkForecastService(
            {"grid": example.grid_platform()}, model=LV08()))
        stay, move = (workflows.predict_workflow("grid", example.job(host))
                      .makespan for host in ("slowsite-1", "fastsite-1"))
        out = capsys.readouterr().out
        assert f"stay on slow cluster : {stay / 3600:6.2f} h" in out
        assert f"move to fast cluster : {move / 3600:6.2f} h" in out
        assert f"decision             : {'MOVE' if move < stay else 'STAY'}" in out
        assert "best: " in out


class TestValidationErrors:
    def test_cycle_rejected(self):
        service = make_service()
        g = TaskGraph()
        g.add_task(Task("a"), "star-1")
        g.add_task(Task("b"), "star-2")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(BadRequest, match="cycle"):
            service.predict_workflow("star", g)

    def test_unknown_host_rejected(self):
        service = make_service()
        g = TaskGraph()
        g.add_task(Task("a"), "mars-1")
        with pytest.raises(NotFound):
            service.predict_workflow("star", g)

    def test_unknown_platform(self):
        service = make_service()
        g = TaskGraph()
        g.add_task(Task("a"), "star-1")
        with pytest.raises(NotFound):
            service.predict_workflow("grid", g)
