"""``perf/run.py --smoke``: plumbing, schema, names and bit-identity.

One round per workload, no set-up spawns, no re-runs — nothing here asserts
a speed.  The whole module costs about 15 s.
"""

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def run_benchmark(*args):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    results = tmp_path_factory.mktemp("perf-results")
    proc = run_benchmark("--smoke", "--results", str(results))
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(results / "result.json", encoding="utf-8") as handle:
        result = json.load(handle)
    with open(results / "trace.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    return proc, result, trace


def test_benchmark_json_meets_the_contract(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["perf"]
    assert contract["command"][-1] == "perf/run.py"
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [m["name"] for section in ("workloads", "end_to_end", "per_layer")
             for m in contract[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower",
                                                                   "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_smoke_reports_every_declared_name_and_nothing_else(smoke, contract):
    _, result, _ = smoke
    assert result["schema"] == "perf-result/1" and result["smoke"] is True
    assert list(result["workloads"]) == [w["name"]
                                         for w in contract["workloads"]]
    for name, entry in result["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in contract[section]}
            assert set(entry[section]) == set(declared), name
            for metric, cell in entry[section].items():
                assert cell["unit"] == declared[metric]
                assert isinstance(cell["value"], (int, float))
        # end-to-end metrics are never zero
        assert all(cell["value"] > 0 for cell in entry["end_to_end"].values())


def test_smoke_answers_are_bit_identical_to_ground_truth(smoke):
    _, result, _ = smoke
    for name, entry in result["workloads"].items():
        assert entry["correct"] is True and entry["failed"] == 0, name
        assert entry["attempted"] >= 1


def test_smoke_prints_every_metric_with_its_unit(smoke, contract):
    proc, _, _ = smoke
    lines = proc.stdout.splitlines()
    for workload in contract["workloads"]:
        for metric in contract["end_to_end"] + contract["per_layer"]:
            pattern = re.compile(rf"^{re.escape(workload['name'])}\s+"
                                 rf"{re.escape(metric['name'])}\s+\S+\s+"
                                 rf"{re.escape(metric['unit'])}$")
            assert any(pattern.match(line) for line in lines), (
                workload["name"], metric["name"])
        assert any(line.startswith(workload["name"])
                   and "failed_share" in line for line in lines)


def test_each_workload_exercises_the_layers_it_claims(smoke):
    _, result, _ = smoke
    def layer(workload, metric):
        return result["workloads"][workload]["per_layer"][metric]["value"]

    assert layer("rest_fig5_closed", "core.rest.server.transport_ms") > 0
    assert layer("rest_fig5_closed", "serving.gateway.overhead_ms") == 0
    assert layer("kernel_fig9_inproc", "core.rest.router.dispatch_us") == 0
    assert layer("kernel_tcpfluid_inproc",
                 "simgrid.tcpfluid.pycalls_per_req") > 0
    assert layer("kernel_fig9_inproc", "simgrid.tcpfluid.pycalls_per_req") == 0
    assert layer("gateway_hot_read", "serving.cache.hit_ratio") > 0.5
    assert layer("gateway_hot_read", "horizon.whatif.run_us") == 0
    assert layer("gateway_recal_mix", "horizon.whatif.run_us") > 0
    assert layer("gateway_recal_mix",
                 "horizon.whatif.epoch_bumps_per_query") >= 1
    assert layer("gateway_recal_mix", "serving.gateway.epoch_syncs") >= 1
    assert (layer("gateway_recal_mix", "serving.cache.hit_ratio")
            < layer("gateway_hot_read", "serving.cache.hit_ratio"))


def test_trace_spans_form_ladders(smoke):
    _, _, trace = smoke
    assert trace["schema"] == "perf-trace/1"
    for name, spans in trace["workloads"].items():
        assert spans, name
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            assert set(span) == {"id", "name", "start", "end", "parent",
                                 "request_id", "scale"}
            assert span["end"] >= span["start"] and span["scale"] > 0
            if span["parent"] is not None:
                assert by_id[span["parent"]]["request_id"] == span["request_id"]
        names = {span["name"] for span in spans}
        assert {"client.request", "core.forecast.predict",
                "simgrid.engine.run", "simgrid.maxmin.solve"} <= names


def test_driver_contract_last_line_is_one_json_object(smoke, contract):
    from perf.run import result_line

    _, result, _ = smoke
    entry = result["workloads"]["kernel_fig9_inproc"]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        line = result_line(entry, trace, ok=True)
        assert "\n" not in line
        doc = json.loads(line)
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True and doc["failed"] == 0
        assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1
        assert set(doc["metrics"]) == {m["name"] for m in contract[section]}
        for cell in doc["metrics"].values():
            assert set(cell) == {"value", "unit"}
    assert json.loads(result_line(entry, "0", ok=False))["correct"] is False
