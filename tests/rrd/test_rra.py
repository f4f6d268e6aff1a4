"""Round-robin archives: consolidation, xff, windows."""

import math

import pytest

from repro.rrd.rra import ConsolidationFunction, RoundRobinArchive, RraSpec


class TestConsolidation:
    def test_average(self):
        cf = ConsolidationFunction.AVERAGE
        assert cf.consolidate([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_min_max_last(self):
        values = [3.0, 1.0, 2.0]
        assert ConsolidationFunction.MIN.consolidate(values) == 1.0
        assert ConsolidationFunction.MAX.consolidate(values) == 3.0
        assert ConsolidationFunction.LAST.consolidate(values) == 2.0

    def test_nan_values_skipped(self):
        cf = ConsolidationFunction.AVERAGE
        assert cf.consolidate([math.nan, 4.0]) == pytest.approx(4.0)

    def test_all_nan_is_nan(self):
        assert math.isnan(ConsolidationFunction.MAX.consolidate([math.nan]))


class TestRraSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RraSpec(ConsolidationFunction.AVERAGE, 0, 10)
        with pytest.raises(ValueError):
            RraSpec(ConsolidationFunction.AVERAGE, 1, 0)
        with pytest.raises(ValueError):
            RraSpec(ConsolidationFunction.AVERAGE, 1, 10, xff=1.0)

    def test_resolution_and_retention(self):
        spec = RraSpec(ConsolidationFunction.AVERAGE, 12, 100)
        assert spec.resolution(15.0) == 180.0
        assert spec.retention(15.0) == 18000.0


class TestArchive:
    def test_one_step_archive_stores_pdps(self):
        spec = RraSpec(ConsolidationFunction.AVERAGE, 1, 10)
        archive = RoundRobinArchive(spec, base_step=10.0)
        for i in range(1, 6):
            archive.push_pdp(i * 10.0, float(i))
        window = archive.window(0.0, 50.0)
        assert [v for _, v in window] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_consolidation_over_steps(self):
        spec = RraSpec(ConsolidationFunction.AVERAGE, 2, 10, xff=0.5)
        archive = RoundRobinArchive(spec, base_step=10.0)
        archive.push_pdp(10.0, 1.0)
        archive.push_pdp(20.0, 3.0)
        window = archive.window(0.0, 20.0)
        assert window == [(20.0, 2.0)]

    def test_xff_marks_unknown(self):
        spec = RraSpec(ConsolidationFunction.AVERAGE, 4, 10, xff=0.25)
        archive = RoundRobinArchive(spec, base_step=10.0)
        archive.push_pdp(10.0, 1.0)
        archive.push_pdp(20.0, math.nan)
        archive.push_pdp(30.0, math.nan)
        archive.push_pdp(40.0, 2.0)
        window = archive.window(0.0, 40.0)
        assert len(window) == 1
        assert math.isnan(window[0][1])

    def test_xff_allows_some_unknown(self):
        spec = RraSpec(ConsolidationFunction.AVERAGE, 4, 10, xff=0.5)
        archive = RoundRobinArchive(spec, base_step=10.0)
        archive.push_pdp(10.0, 1.0)
        archive.push_pdp(20.0, math.nan)
        archive.push_pdp(30.0, 3.0)
        archive.push_pdp(40.0, 2.0)
        window = archive.window(0.0, 40.0)
        assert window[0][1] == pytest.approx(2.0)

    def test_ring_overwrites_old_rows(self):
        spec = RraSpec(ConsolidationFunction.AVERAGE, 1, 3)
        archive = RoundRobinArchive(spec, base_step=10.0)
        for i in range(1, 7):
            archive.push_pdp(i * 10.0, float(i))
        window = archive.window(0.0, 60.0)
        assert [v for _, v in window] == [4.0, 5.0, 6.0]

    def test_window_bounds_are_exclusive_inclusive(self):
        spec = RraSpec(ConsolidationFunction.AVERAGE, 1, 10)
        archive = RoundRobinArchive(spec, base_step=10.0)
        for i in range(1, 5):
            archive.push_pdp(i * 10.0, float(i))
        window = archive.window(10.0, 30.0)
        assert [ts for ts, _ in window] == [20.0, 30.0]
