"""RRD database: update semantics, data-source kinds, span-aware fetch.

One builder makes every database here.  The PDP accumulation is checked
against a brute-force reference on hypothesis-drawn irregular streams; the
rest are examples, among them the boundary-drop regression: the historical
``fetch`` deduplicated archives by exact end-timestamp, so a coarse CDP
whose end collided with a fine point vanished even where it was the only
source for the earlier part of its span.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.rrd.database import (DataSourceSpec, RoundRobinDatabase, RrdError,
                                _merge_intervals, _subtract_intervals)
from repro.rrd.rra import ConsolidationFunction, RraSpec

AVG = ConsolidationFunction.AVERAGE
MIN = ConsolidationFunction.MIN
MAX = ConsolidationFunction.MAX
LAST = ConsolidationFunction.LAST

#: a fine and a coarse average, and a coarse maximum
THREE = ((AVG, 1, 100), (AVG, 10, 100), (MAX, 10, 100))
#: after 12 updates the fine archive retains CDPs ending at 90..120 and the
#: coarse one CDPs ending at 60 and 120: the fine/coarse boundary shape
BOUNDARY = ((AVG, 1, 4), (AVG, 6, 100))


def rrd(*rras, step=10.0, heartbeat=25.0, **source):
    """A database of one data source ``m`` (GAUGE unless ``kind=`` says
    otherwise); each archive is a ``(cf, steps per row, rows[, xff])``
    tuple."""
    return RoundRobinDatabase(
        DataSourceSpec(name="m", heartbeat=heartbeat, **source), step=step,
        rras=tuple(RraSpec(*spec) for spec in rras))


def filled(db, n, value=float):
    """``db`` after updates ``value(i)`` at ``i * step`` for i = 1..n."""
    for i in range(1, n + 1):
        db.update(i * db.step, value(i))
    return db


def values(series):
    return [v for _, v in series]


def spacings(series):
    return {round(b - a, 6) for (a, _), (b, _) in zip(series, series[1:])}


# -- refusals ------------------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: DataSourceSpec(name="x", kind="ABSOLUTE"),
    lambda: DataSourceSpec(name="x", heartbeat=0.0),
    lambda: RoundRobinDatabase(DataSourceSpec(name="x"), step=0.0),
    lambda: RoundRobinDatabase(DataSourceSpec(name="x"), rras=()),
    lambda: rrd(*THREE).fetch(100.0, 50.0),  # an inverted window
    lambda: rrd(*THREE).fetch(0.0, 10.0, cf=LAST),  # no such archive
], ids=["ds-kind", "heartbeat", "step", "no-archive", "inverted-window",
        "unknown-cf"])
def test_refuses(build):
    with pytest.raises(RrdError):
        build()


def test_update_times_strictly_increase():
    db = rrd(*THREE)
    db.update(10.0, 1.0)
    with pytest.raises(RrdError):
        db.update(10.0, 2.0)


def test_an_empty_window_is_empty():
    assert rrd(*THREE).fetch(0.0, 100.0) == []  # nothing recorded yet
    db = filled(rrd(*BOUNDARY), 12)
    assert db.fetch(60.0, 60.0) == []
    assert db.fetch(60.0, 60.0, include_unknown=True) == []


# -- update semantics ----------------------------------------------------------


class TestGauge:
    def test_constant_series(self):
        series = filled(rrd(*THREE), 10, lambda i: 42.0).fetch(0.0, 100.0)
        assert series and all(v == pytest.approx(42.0) for v in values(series))

    def test_step_interpolation_weights_by_time(self):
        db = rrd(*THREE)
        db.update(5.0, 10.0)   # covers (0,5]
        db.update(15.0, 20.0)  # covers (5,15] — pdp(0,10] = (10*5+20*5)/10
        assert db.fetch(0.0, 10.0)[0][1] == pytest.approx(15.0)

    def test_sub_step_updates_average_within_pdp(self):
        db = rrd((AVG, 1, 20), heartbeat=30.0)
        db.update(2.0, 10.0)
        db.update(4.0, 20.0)
        db.update(10.0, 40.0)
        # time-weighted: 10*2 + 20*2 + 40*6 over 10 s
        assert db.fetch(0.0, 10.0)[0][1] == pytest.approx((20 + 40 + 240) / 10.0)

    def test_update_exactly_on_step_boundary(self):
        db = filled(rrd((AVG, 1, 20), heartbeat=30.0), 2, lambda i: 4.0 * i)
        assert db.fetch(0.0, 20.0) == [(10.0, pytest.approx(4.0)),
                                       (20.0, pytest.approx(8.0))]

    def test_heartbeat_gap_is_unknown(self):
        db = rrd(*THREE)
        db.update(10.0, 1.0)
        db.update(100.0, 1.0)  # 90s gap > heartbeat
        series = db.fetch(0.0, 100.0, include_unknown=True)
        gap_values = [v for ts, v in series if 20.0 < ts < 100.0]
        assert gap_values and all(math.isnan(v) for v in gap_values)

    def test_all_unknown_window(self):
        db = rrd((AVG, 1, 50), heartbeat=15.0)
        db.update(10.0, 1.0)
        db.update(100.0, 1.0)  # 90 s gap > heartbeat: PDPs 20..100 unknown
        assert db.fetch(20.0, 90.0) == []
        unknown = db.fetch(20.0, 90.0, include_unknown=True)
        assert len(unknown) == 7
        assert all(math.isnan(v) for v in values(unknown))

    def test_out_of_range_value_is_unknown(self):
        db = filled(rrd((AVG, 1, 50), heartbeat=30.0, minimum=0.0,
                        maximum=100.0), 3, lambda i: 50.0)
        db.update(40.0, 1000.0)  # above maximum
        assert math.isnan(db.fetch(0.0, 40.0, include_unknown=True)[-1][1])


class TestCounter:
    def test_counter_returns_rate(self):
        # +1000 per 10 s => 100/s
        db = filled(rrd((AVG, 1, 50), heartbeat=30.0, kind="COUNTER"), 5,
                    lambda i: 1000.0 * i)
        series = db.fetch(10.0, 50.0)
        assert series and all(v == pytest.approx(100.0) for v in values(series))

    def test_counter_wrap_is_unknown(self):
        db = rrd((AVG, 1, 50), heartbeat=30.0, kind="COUNTER")
        db.update(10.0, 1000.0)
        db.update(20.0, 2000.0)
        db.update(30.0, 50.0)  # wrapped
        assert math.isnan(db.fetch(20.0, 30.0, include_unknown=True)[-1][1])

    def test_derive_allows_negative_rate(self):
        db = rrd((AVG, 1, 50), heartbeat=30.0, kind="DERIVE")
        db.update(10.0, 100.0)
        db.update(20.0, 50.0)
        assert db.fetch(10.0, 20.0)[-1][1] == pytest.approx(-5.0)

    def test_counter_wrap_spans_unknown_across_boundary(self):
        db = filled(rrd((AVG, 1, 4, 0.0), (AVG, 6, 100, 0.0), kind="COUNTER"),
                    6, lambda i: 1000.0 * i)
        db.update(70.0, 100.0)  # wrap: the (60, 70] PDP is unknown
        for i in range(8, 13):
            db.update(i * 10.0, 100.0 + 1000.0 * (i - 7))
        by_ts = dict(db.fetch(0.0, 120.0, include_unknown=True))
        # the wrap poisons the coarse CDP covering (60, 120] (xff=0), which
        # the span-aware merge surfaces for the fine-aged part at ts 80;
        # the first counter sample likewise poisons the CDP ending at 60
        assert math.isnan(by_ts[80.0])
        assert math.isnan(by_ts[60.0])
        known = db.fetch(0.0, 120.0)
        assert [ts for ts, _ in known] == [90.0, 100.0, 110.0, 120.0]
        assert all(v == pytest.approx(100.0) for v in values(known))


# -- PDP accumulation against a brute-force reference --------------------------
#
# ``_fill`` spreads each sample over the PDP grid with running float
# accumulators and a boundary tolerance; drift there would silently corrupt
# every archive.

STEP = 10.0
HEARTBEAT = 35.0


def reference_pdps(samples, step, heartbeat, n_pdps):
    """Brute-force PDPs for a GAUGE stream starting at t=0.

    Each sample ``(t_i, v_i)`` covers ``(t_{i-1}, t_i]`` with ``v_i`` (NaN
    when the gap exceeds the heartbeat); PDP ``k`` averages the covering
    values over ``(k*step, (k+1)*step]`` weighted by overlap seconds, and is
    unknown when less than half the interval is known.
    """
    pdps = []
    for k in range(n_pdps):
        lo, hi = k * step, (k + 1) * step
        known_seconds = 0.0
        weighted = 0.0
        prev_t = 0.0
        for t, v in samples:
            seg_lo, seg_hi = max(lo, prev_t), min(hi, t)
            if seg_hi > seg_lo and not math.isnan(v) and t - prev_t <= heartbeat:
                known_seconds += seg_hi - seg_lo
                weighted += v * (seg_hi - seg_lo)
            prev_t = t
        if known_seconds >= step * 0.5:
            pdps.append(weighted / known_seconds)
        else:
            pdps.append(math.nan)
    return pdps


def fine_rrd():
    return rrd((AVG, 1, 4096, 0.0), step=STEP, heartbeat=HEARTBEAT)


increments = st.lists(
    st.one_of(
        st.floats(0.3, 9.7),     # sub-step bursts
        st.floats(10.0, 34.0),   # one-to-three step jumps within heartbeat
        st.floats(36.0, 80.0),   # heartbeat gaps
    ),
    min_size=5,
    max_size=120,
)


@given(increments=increments, data=st.data())
@settings(max_examples=60)
def test_pdp_accumulation_matches_brute_force(increments, data):
    db = fine_rrd()
    samples = []
    t = 0.0
    for dt in increments:
        t += dt
        v = data.draw(st.floats(0.1, 1e6))
        samples.append((t, v))
        db.update(t, v)
    n_pdps = int(math.floor(t / STEP))
    expected = reference_pdps(samples, STEP, HEARTBEAT, n_pdps)
    got = dict(db.fetch(0.0, n_pdps * STEP, include_unknown=True))
    assert len(got) == n_pdps
    for k, ref in enumerate(expected):
        ts = (k + 1) * STEP
        actual = got[ts]
        if math.isnan(ref):
            assert math.isnan(actual), f"PDP ending {ts}: {actual} != NaN"
        else:
            assert actual == pytest.approx(ref, rel=1e-9, abs=1e-12), (
                f"PDP ending {ts}: {actual} != {ref}"
            )


@given(increments=increments)
@settings(max_examples=30)
def test_long_runs_commit_every_boundary_exactly_once(increments):
    # Scale the stream up to a long run: the boundary tolerance must not
    # skip or double-commit PDPs as float drift accumulates.
    db = fine_rrd()
    t = 0.0
    for _ in range(8):
        for dt in increments:
            t += dt
            db.update(t, 1.0)
    n_pdps = int(math.floor(t / STEP))
    series = db.fetch(0.0, n_pdps * STEP, include_unknown=True)
    assert [ts for ts, _ in series] == [(k + 1) * STEP for k in range(n_pdps)]
    for v in values(series):
        assert math.isnan(v) or v == pytest.approx(1.0)


@given(st.lists(st.floats(0.1, 1000.0), min_size=5, max_size=60))
@settings(max_examples=50)
def test_fetch_values_within_input_range(samples):
    db = filled(rrd(*THREE), len(samples), lambda i: samples[i - 1])
    for v in values(db.fetch(0.0, (len(samples) + 1) * 10.0)):
        assert min(samples) - 1e-9 <= v <= max(samples) + 1e-9


# -- fetch: the finest archive that retains each span --------------------------


class TestFetch:
    def test_best_resolution_first(self):
        # recent window covered by the fine archive: 10s spacing
        assert spacings(filled(rrd(*THREE), 200).fetch(1900.0, 2000.0)) == {10.0}

    def test_old_history_served_by_coarse_archive(self):
        # the fine archive holds 100 rows = 1000s; ask for older data
        series = filled(rrd(*THREE), 200).fetch(0.0, 500.0)
        assert series, "coarse archive must cover old history"
        assert spacings(series) == {100.0}

    def test_mixed_window_stitches_resolutions(self):
        series = filled(rrd(*THREE), 200).fetch(500.0, 2000.0)
        assert {10.0, 100.0} <= spacings(series)

    def test_fetch_window_larger_than_retention(self):
        series = filled(rrd((AVG, 1, 5), heartbeat=30.0), 20).fetch(0.0, 1e9)
        assert values(series) == [16.0, 17.0, 18.0, 19.0, 20.0]  # retained rows

    def test_min_max_last_fetchable(self):
        db = rrd((AVG, 2, 50), (MIN, 2, 50), (MAX, 2, 50), (LAST, 2, 50),
                 heartbeat=30.0)
        for i, v in enumerate([5.0, 1.0, 9.0, 3.0], start=1):
            db.update(i * 10.0, v)
        # one CDP per two steps, on the same grid for every function
        assert db.fetch(0.0, 40.0, cf=AVG) == [(20.0, pytest.approx(3.0)),
                                               (40.0, pytest.approx(6.0))]
        assert db.fetch(0.0, 40.0, cf=MIN) == [(20.0, 1.0), (40.0, 3.0)]
        assert db.fetch(0.0, 40.0, cf=MAX) == [(20.0, 5.0), (40.0, 9.0)]
        assert db.fetch(0.0, 40.0, cf=LAST) == [(20.0, 1.0), (40.0, 3.0)]

    def test_describe_structure(self):
        info = rrd(*THREE).describe()
        assert info["ds"]["name"] == "m"
        assert len(info["rras"]) == 3
        assert info["rras"][0]["resolution"] == 10.0


class TestBoundaryDrop:
    """The coarse CDP ending at 120 spans (60, 120]; it used to vanish
    behind the fine point at 120, so ``fetch(0, 120)`` returned ts 60, 90,
    100, 110, 120 and the 60–90 span had no data at all.  The span-aware
    merge keeps it for its uncovered part, at that part's end (ts 80)."""

    def test_keeps_partially_covered_coarse_cdp(self):
        series = filled(rrd(*BOUNDARY), 12).fetch(0.0, 120.0)
        assert [ts for ts, _ in series] == [60.0, 80.0, 90.0, 100.0, 110.0, 120.0]
        by_ts = dict(series)
        assert by_ts[60.0] == pytest.approx(3.5)   # avg of PDPs 1..6
        assert by_ts[80.0] == pytest.approx(9.5)   # coarse avg of PDPs 7..12
        assert by_ts[90.0] == pytest.approx(9.0)   # fine archive takes over
        assert by_ts[120.0] == pytest.approx(12.0)

    def test_no_span_gap_across_the_archive_boundary(self):
        # every returned point (ts, v) at resolution r covers (ts - r, ts];
        # stitched together the spans must tile (0, 120] without a hole
        prev_end = 0.0
        for ts, _ in filled(rrd(*BOUNDARY), 12).fetch(0.0, 120.0):
            assert ts - prev_end <= 60.0 + 1e-9  # never wider than one CDP
            prev_end = max(prev_end, ts)
        assert prev_end == pytest.approx(120.0)

    def test_fully_covered_coarse_cdp_still_suppressed(self):
        # fine archive retains the whole window: coarse CDPs add nothing
        series = filled(rrd((AVG, 1, 100), (AVG, 6, 100)), 12).fetch(0.0, 120.0)
        assert series == [(10.0 * i, float(i)) for i in range(1, 13)]

    def test_three_archive_stitch_has_no_holes(self):
        db = filled(rrd((AVG, 1, 6), (AVG, 3, 10), (AVG, 12, 100)), 60)
        series = db.fetch(0.0, 600.0)
        prev_end = 0.0
        for ts, _ in series:
            assert ts - prev_end <= 120.0 + 1e-9  # the coarsest resolution
            prev_end = max(prev_end, ts)
        assert prev_end == pytest.approx(600.0)
        # timestamps strictly increase (the merge never emits duplicates)
        timestamps = [ts for ts, _ in series]
        assert timestamps == sorted(set(timestamps))


class TestIntervalHelpers:
    def test_merge_joins_touching_intervals(self):
        assert _merge_intervals([(0.0, 10.0), (10.0, 20.0), (30.0, 40.0)],
                                1e-9) == [(0.0, 20.0), (30.0, 40.0)]

    def test_subtract_middle_hole(self):
        assert _subtract_intervals((0.0, 60.0), [(20.0, 40.0)], 1e-9) == [
            (0.0, 20.0), (40.0, 60.0)]

    def test_subtract_fully_covered(self):
        assert _subtract_intervals((20.0, 40.0), [(0.0, 60.0)], 1e-9) == []

    def test_subtract_drops_sub_tolerance_fragments(self):
        assert _subtract_intervals((0.0, 10.0), [(5e-10, 10.0)], 1e-9) == []


# -- fetch_spans: each point with the span it is the finest source for --------


class TestFetchSpans:
    @staticmethod
    def spans():
        return filled(rrd(*BOUNDARY, step=1.0), 30).fetch_spans(0.0, 30.0)

    def test_fine_only_spans_cover_one_step_each(self):
        spans = filled(rrd((AVG, 1, 100), step=1.0), 10).fetch_spans(0.0, 10.0)
        assert len(spans) == 10
        for start, end, _ in spans:
            assert end - start == pytest.approx(1.0)

    def test_fetch_is_exactly_the_span_ends(self):
        db = filled(rrd(*BOUNDARY, step=1.0), 30)
        assert sorted(db.fetch(0.0, 30.0, include_unknown=True)) == sorted(
            (end, value) for _, end, value in db.fetch_spans(0.0, 30.0))

    def test_spans_are_time_ordered_and_disjoint(self):
        spans = self.spans()
        for (s1, e1, _), (s2, e2, _) in zip(spans, spans[1:]):
            assert e1 <= e2
            assert s2 >= e1 - 1e-9  # no overlap: each instant served once

    def test_coarse_span_weight_reflects_consolidated_steps(self):
        widths = {round(end - start) for start, end, _ in self.spans()}
        assert 6 in widths  # full coarse CDPs survive where fine aged out
        assert 1 in widths  # fine resolution for the recent window

    def test_partially_covered_coarse_span_is_clipped(self):
        # the coarse CDP overlapping the fine window is returned only for
        # its uncovered early part
        for start, end, _ in self.spans():
            if round(end - start) not in (1, 6):
                assert 1 <= round(end - start) < 6

    def test_unknown_values_keep_their_spans(self):
        db = rrd((AVG, 1, 100), step=1.0, heartbeat=2.0)
        db.update(1.0, 1.0)
        db.update(10.0, 2.0)  # gap > heartbeat: unknown PDPs in between
        assert any(math.isnan(value) for _, _, value in db.fetch_spans(0.0, 10.0))
        assert all(not math.isnan(v) for v in values(db.fetch(0.0, 10.0)))
