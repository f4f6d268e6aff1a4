"""Unit parsing/formatting."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.simgrid.units import (
    UnitError,
    format_bandwidth,
    format_time,
    parse_bandwidth,
    parse_size,
    parse_speed,
    parse_time,
)


class TestParseBandwidth:
    def test_bare_number_is_bytes_per_second(self):
        assert parse_bandwidth(1.25e8) == 1.25e8
        assert parse_bandwidth("1.25e8") == 1.25e8

    def test_gigabit(self):
        assert parse_bandwidth("1Gbps") == pytest.approx(1.25e8)

    def test_ten_gigabit(self):
        assert parse_bandwidth("10Gbps") == pytest.approx(1.25e9)

    def test_megabytes_per_second(self):
        assert parse_bandwidth("125MBps") == pytest.approx(1.25e8)

    def test_gbps_equals_mbps_conversion(self):
        assert parse_bandwidth("1Gbps") == parse_bandwidth("125MBps")

    def test_binary_prefix(self):
        assert parse_bandwidth("1KiBps") == 1024.0

    def test_kilo_lowercase_and_uppercase(self):
        assert parse_bandwidth("1kbps") == parse_bandwidth("1Kbps") == 125.0

    def test_rejects_garbage(self):
        with pytest.raises(UnitError):
            parse_bandwidth("fast")

    def test_rejects_unknown_suffix(self):
        with pytest.raises(UnitError):
            parse_bandwidth("10Gxps")

    def test_rejects_negative(self):
        with pytest.raises(UnitError):
            parse_bandwidth(-1.0)

    def test_scientific_notation_with_unit(self):
        assert parse_bandwidth("1e1Gbps") == pytest.approx(1.25e9)


class TestParseTime:
    def test_bare_seconds(self):
        assert parse_time(2.25e-3) == 2.25e-3

    def test_paper_backbone_latency(self):
        assert parse_time("2.25ms") == pytest.approx(2.25e-3)

    def test_microseconds_both_spellings(self):
        assert parse_time("225us") == pytest.approx(2.25e-4)
        assert parse_time("225µs") == pytest.approx(2.25e-4)

    def test_nanoseconds(self):
        assert parse_time("10ns") == pytest.approx(1e-8)

    def test_minutes_hours(self):
        assert parse_time("2m") == 120.0
        assert parse_time("1h") == 3600.0

    def test_rejects_negative(self):
        with pytest.raises(UnitError):
            parse_time("-3ms")


class TestParseSize:
    def test_bare_bytes(self):
        assert parse_size(5e8) == 5e8

    def test_paper_500mb(self):
        assert parse_size("500MB") == pytest.approx(5e8)

    def test_gibibyte(self):
        assert parse_size("1GiB") == 2.0**30

    def test_bits(self):
        assert parse_size("8Mb") == pytest.approx(1e6)

    def test_rejects_nonsense_suffix(self):
        with pytest.raises(UnitError):
            parse_size("1Gx")


class TestParseSpeed:
    def test_gigaflops(self):
        assert parse_speed("1Gf") == pytest.approx(1e9)

    def test_bare(self):
        assert parse_speed(2.4e9) == 2.4e9

    def test_rejects_bad_suffix(self):
        with pytest.raises(UnitError):
            parse_speed("1Ghz")


class TestFormatting:
    def test_format_bandwidth_gbps(self):
        assert format_bandwidth(1.25e8) == "1Gbps"

    def test_format_time_us(self):
        assert format_time(2.25e-4) == "225us"

    @given(st.floats(min_value=1.0, max_value=1e13))
    @settings(deadline=200)  # Hypothesis' default, kept explicitly
    def test_format_parse_bandwidth_roundtrip(self, value):
        assert parse_bandwidth(format_bandwidth(value)) == pytest.approx(
            value, rel=1e-5
        )

    @given(st.floats(min_value=1e-9, max_value=1e4))
    @settings(deadline=200)  # Hypothesis' default, kept explicitly
    def test_format_parse_time_roundtrip(self, value):
        assert parse_time(format_time(value)) == pytest.approx(value, rel=1e-5)
