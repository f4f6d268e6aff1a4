"""TCP window dynamics: slow start, CUBIC, closed forms."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.testbed.tcp import (
    TcpFlowState,
    TcpParams,
    TcpPhase,
)


class TestParams:
    def test_paper_defaults(self):
        params = TcpParams()
        assert params.max_window_bytes == 4194304.0  # the paper's 4 MiB tuning
        assert params.initial_window_bytes == pytest.approx(3 * 1448.0)

    def test_initial_state(self):
        state = TcpFlowState()
        assert state.phase is TcpPhase.SLOW_START
        assert state.cwnd == pytest.approx(3 * 1448.0)
        assert math.isinf(state.ssthresh)


class TestSlowStart:
    def test_growth_factor_per_round(self):
        state = TcpFlowState()
        w0 = state.cwnd
        state.on_round(rtt=0.01)
        assert state.cwnd == pytest.approx(w0 * 1.5)

    def test_window_capped_at_maximum(self):
        state = TcpFlowState()
        for _ in range(100):
            state.on_round(rtt=0.01)
        assert state.cwnd == pytest.approx(state.params.max_window_bytes)

    def test_rejects_nonpositive_rtt(self):
        state = TcpFlowState()
        with pytest.raises(ValueError):
            state.on_round(rtt=0.0)

    def test_ssthresh_transition_to_avoidance(self):
        state = TcpFlowState()
        state.ssthresh = 10_000.0
        for _ in range(10):
            state.on_round(rtt=0.01)
            if state.phase is TcpPhase.CONGESTION_AVOIDANCE:
                break
        assert state.phase is TcpPhase.CONGESTION_AVOIDANCE


class TestLoss:
    def test_multiplicative_decrease(self):
        state = TcpFlowState()
        for _ in range(8):
            state.on_round(rtt=0.01)
        before = state.cwnd
        state.on_loss()
        assert state.cwnd == pytest.approx(before * 0.7)
        assert state.phase is TcpPhase.CONGESTION_AVOIDANCE
        assert state.w_max == pytest.approx(before)

    def test_floor_at_one_mss(self):
        state = TcpFlowState()
        state.cwnd = 1000.0
        state.on_loss()
        assert state.cwnd >= state.params.mss


class TestCubic:
    def test_k_formula(self):
        state = TcpFlowState()
        state.w_max = 100 * 1448.0
        expected = ((100 * 0.3) / 0.4) ** (1 / 3)
        assert state.cubic_k() == pytest.approx(expected)

    def test_window_regains_wmax_at_k(self):
        state = TcpFlowState()
        for _ in range(8):
            state.on_round(rtt=0.01)
        state.on_loss()
        k = state.cubic_k()
        assert state.cubic_window(k) == pytest.approx(state.w_max, rel=1e-9)

    def test_concave_then_convex_growth(self):
        state = TcpFlowState()
        state.w_max = 200 * 1448.0
        k = state.cubic_k()
        w_before = state.cubic_window(k * 0.5)
        w_at_k = state.cubic_window(k)
        w_after = state.cubic_window(k * 1.5)
        assert w_before < w_at_k < w_after

    def test_avoidance_rounds_advance_cubic_clock(self):
        state = TcpFlowState()
        for _ in range(8):
            state.on_round(rtt=0.01)
        state.on_loss()
        w0 = state.cwnd
        for _ in range(50):
            state.on_round(rtt=0.01)
        assert state.cwnd > w0

    @given(st.floats(min_value=1448.0, max_value=4194304.0),
           st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=200)
    def test_cubic_window_at_least_one_mss(self, w_max, t):
        state = TcpFlowState()
        state.w_max = w_max
        assert state.cubic_window(t) >= state.params.mss

    def test_monotone_growth_between_losses(self):
        state = TcpFlowState()
        state.w_max = 500 * 1448.0
        state.phase = TcpPhase.CONGESTION_AVOIDANCE
        state.t_since_loss = 0.0
        state.cwnd = state.w_max * 0.7
        windows = []
        for _ in range(200):
            state.on_round(rtt=0.02)
            windows.append(state.cwnd)
        assert windows == sorted(windows)


class TestClosedForms:
    def test_window_rate(self):
        state = TcpFlowState()
        assert state.window_rate(0.01) == pytest.approx(state.cwnd / 0.01)

    def test_max_rate(self):
        state = TcpFlowState()
        assert state.max_rate(0.016) == pytest.approx(4194304.0 / 0.016)
