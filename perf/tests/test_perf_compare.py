"""compare.py verdicts against the bounds of BENCHMARK.json."""

import json

import pytest

from perf import compare

CONTRACT = {
    "workloads": [{"name": "kernel_fig9_inproc", "why": "test"}],
    "end_to_end": [
        {"name": "latency_ms_p50", "unit": "ms", "better": "lower",
         "bound": 0.10},
        {"name": "throughput_rps", "unit": "1/s", "better": "higher",
         "bound": 0.10},
        {"name": "forecast_abs_log2_err_median", "unit": "log2",
         "better": "lower", "bound": 1e-9},
    ],
    "per_layer": [
        {"name": "simgrid.maxmin.solves_per_req", "unit": "count",
         "better": "lower"},
        {"name": "core.forecast.predict_us", "unit": "us", "better": "lower"},
    ],
}


def run(latency, throughput=100.0, error=0.5, solves=32.0, failed=0):
    return {"schema": "perf-result/1", "workloads": {"kernel_fig9_inproc": {
        "attempted": 1000, "failed": failed,
        "end_to_end": {
            "latency_ms_p50": {"value": latency, "unit": "ms"},
            "throughput_rps": {"value": throughput, "unit": "1/s"},
            "forecast_abs_log2_err_median": {"value": error, "unit": "log2"},
        },
        "per_layer": {
            "simgrid.maxmin.solves_per_req": {"value": solves,
                                              "unit": "count"},
            "core.forecast.predict_us": {"value": latency * 400,
                                         "unit": "us"},
        }}}}


def verdicts(runs_a, runs_b, exact=False):
    rows, ok = compare.compare(runs_a, runs_b, CONTRACT, exact=exact)
    return {row[1]: row[5] for row in rows}, ok


@pytest.mark.parametrize("a, b, better, expected", [
    ([7.0, 7.1, 7.2], [7.3, 7.2, 7.4], "lower", "same"),
    ([7.0, 7.1, 7.2], [8.0, 8.1, 8.2], "lower", "worse"),
    ([7.0, 7.1, 7.2], [6.0, 6.1, 6.2], "lower", "better"),
    ([100.0, 101.0, 99.0], [85.0, 86.0, 84.0], "higher", "worse"),
    ([100.0, 101.0, 99.0], [120.0, 121.0, 119.0], "higher", "better"),
    # A's own runs disagree by more than the bound: the medians cannot say
    ([7.0, 9.0, 12.0], [8.5, 9.2, 9.9], "lower", "unresolved"),
    ([7.0, 9.0, 12.0], [11.0, 12.5, 14.0], "lower", "unresolved"),
    # ... unless every run of B beats every run of A
    ([7.0, 9.0, 12.0], [5.0, 5.5, 6.0], "lower", "better"),
    # single runs have no spread to consult
    ([7.0], [7.5], "lower", "same"),
    ([7.0], [8.0], "lower", "worse"),
])
def test_verdict(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.10) == expected


def test_compare_has_one_row_per_workload_and_metric():
    result, ok = verdicts([run(7.0), run(7.1), run(7.2)],
                          [run(7.1), run(7.0), run(7.3)])
    assert ok
    assert result == {"latency_ms_p50": "same", "throughput_rps": "same",
                      "forecast_abs_log2_err_median": "same"}


def test_compare_fails_on_worse_only():
    result, ok = verdicts([run(7.0, 100.0)], [run(8.0, 120.0)])
    assert not ok
    assert result["latency_ms_p50"] == "worse"
    assert result["throughput_rps"] == "better"
    _, ok = verdicts([run(7.0), run(9.5), run(12.0)],
                     [run(9.0), run(9.9), run(10.5)])
    assert ok  # unresolved is reported, not failed


def test_deterministic_metric_may_not_move_at_all():
    result, ok = verdicts([run(7.0, error=0.5)], [run(7.0, error=0.5 + 1e-6)])
    assert result["forecast_abs_log2_err_median"] == "worse" and not ok


def test_exact_rows_require_identical_counts():
    result, ok = verdicts([run(7.0), run(7.1)], [run(7.0), run(7.2)],
                          exact=True)
    assert ok
    assert result["simgrid.maxmin.solves_per_req"] == "identical"
    assert result["failed"] == "identical"
    assert "core.forecast.predict_us" not in result  # timings are not exact
    result, ok = verdicts([run(7.0)], [run(7.0, solves=33.0)], exact=True)
    assert result["simgrid.maxmin.solves_per_req"] == "DIFFERS" and not ok
    result, ok = verdicts([run(7.0)], [run(7.0, failed=1)], exact=True)
    assert result["failed"] == "DIFFERS" and not ok


def test_collect_and_main_round_trip(tmp_path, capsys):
    paths = []
    for i, latency in enumerate((7.0, 7.1, 7.2)):
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps(run(latency)))
        paths.append(str(path))
    set_a = str(tmp_path / "A.json")
    assert compare.main(["--collect", set_a, *paths]) == 0
    assert len(compare.load_runs(set_a)) == 3
    slow = tmp_path / "B.json"
    slow.write_text(json.dumps(run(14.0)))
    # judged against the real BENCHMARK.json: 7.1 -> 14 ms is worse
    assert compare.main([set_a, str(slow)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([set_a, set_a, "--exact"]) == 0
