"""Span bookkeeping and self-time arithmetic."""

import json

import pytest

from perf.spans import (SpanRecorder, durations, median_of, self_times,
                        write_trace)


def ladder(recorder, rid, client, dispatch, predict, engine):
    """One request's ladder; each level is the child of the one above."""
    top = recorder.record("client.request", 0.0, client, None, rid)
    mid = recorder.record("core.rest.router.dispatch", 1.0, 1.0 + dispatch,
                          top, rid)
    low = recorder.record("core.forecast.predict", 2.0, 2.0 + predict, mid,
                          rid)
    for i, part in enumerate(engine):
        recorder.record(f"simgrid.engine.part{i}", 3.0 + i, 3.0 + i + part,
                        low, rid)


def test_self_time_is_level_minus_next_level():
    recorder = SpanRecorder()
    ladder(recorder, "r0", client=0.048, dispatch=0.004, predict=0.002,
           engine=(0.0002, 0.0003, 0.0005))
    own = self_times(recorder.spans)
    assert own["client.request"] == [pytest.approx(0.044)]       # transport
    assert own["core.rest.router.dispatch"] == [pytest.approx(0.002)]
    # several children are summed: predict - (construct + add + run)
    assert own["core.forecast.predict"] == [pytest.approx(0.001)]
    assert own["simgrid.engine.part2"] == [pytest.approx(0.0005)]  # a leaf


def test_medians_are_taken_per_span_name():
    recorder = SpanRecorder()
    for k, client in enumerate((0.040, 0.050, 0.090)):
        ladder(recorder, f"r{k}", client, 0.004, 0.002, (0.001,))
    assert median_of(durations(recorder.spans), "client.request") == 0.050
    assert median_of(self_times(recorder.spans),
                     "client.request") == pytest.approx(0.046)
    # a layer that never ran reads zero, not an error
    assert median_of(durations(recorder.spans), "serving.cache.key") == 0.0


def test_timed_records_a_span_around_the_call():
    recorder = SpanRecorder()
    span_id, result = recorder.timed("x", None, "r", lambda: 41 + 1)
    span = recorder.spans[span_id]
    assert result == 42 and span["end"] >= span["start"]
    assert span["parent"] is None and span["request_id"] == "r"


def test_trace_file_round_trips(tmp_path):
    recorder = SpanRecorder()
    ladder(recorder, "r0", 0.048, 0.004, 0.002, (0.001,))
    path = tmp_path / "trace.json"
    write_trace(str(path), {"w": recorder.spans})
    doc = json.loads(path.read_text())
    assert doc["schema"] == "perf-trace/1"
    assert doc["workloads"]["w"] == recorder.spans
    assert set(doc["workloads"]["w"][0]) == {
        "id", "name", "start", "end", "parent", "request_id", "scale"}


def test_scale_reads_a_stretch_of_spans_at_reference_speed():
    recorder = SpanRecorder()
    ladder(recorder, "slow", 0.048, 0.004, 0.002, (0.001,))
    recorder.scale_open_spans(0.5)   # that stretch ran on a 2x slow machine
    ladder(recorder, "fast", 0.024, 0.002, 0.001, (0.0005,))
    recorder.scale_open_spans(1.0)
    assert [s["scale"] for s in recorder.spans] == [0.5] * 4 + [1.0] * 4
    # both requests read the same once scaled, levels and self times alike
    assert durations(recorder.spans)["client.request"] == [
        pytest.approx(0.024)] * 2
    assert self_times(recorder.spans)["core.forecast.predict"] == [
        pytest.approx(0.0005)] * 2
