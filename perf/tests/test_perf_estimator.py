"""The reference-speed estimators, on synthetic phased noise."""

import pytest

from perf.estimator import (PAPER_BOUND_S, REFERENCE_PROBE_S, Round, estimate,
                            percentile, speed_factor)


def phased_rounds(phases, cpu_s=0.007, wait_s=0.0, per_round=20):
    """Rounds of a machine whose speed changes by phase: ``(slowdown,
    rounds)`` pairs.  A slowdown stretches the probe and the CPU part of
    every request alike; time spent waiting does not stretch."""
    rounds = []
    for slowdown, length in phases:
        for _ in range(length):
            rnd = Round(probe_s=REFERENCE_PROBE_S * slowdown,
                        probe_after_s=REFERENCE_PROBE_S * slowdown)
            for i in range(per_round):
                # a little in-round jitter so the median is not degenerate
                jitter = 1.0 + 0.01 * (i % 3)
                rnd.add(wait_s + cpu_s * slowdown * jitter, True)
            rnd.wall_s = sum(rnd.latencies_s)
            rnd.cpu_s = rnd.wall_s - wait_s * per_round
            rounds.append(rnd)
    return rounds


def test_speed_factor_rescales_only_the_busy_share():
    assert speed_factor(REFERENCE_PROBE_S, 1.0) == 1.0
    assert speed_factor(2 * REFERENCE_PROBE_S, 1.0) == pytest.approx(0.5)
    assert speed_factor(2 * REFERENCE_PROBE_S, 0.0) == 1.0
    assert speed_factor(2 * REFERENCE_PROBE_S, 0.5) == pytest.approx(0.75)
    # two busy processes cannot make more than all of the time CPU time
    assert speed_factor(2 * REFERENCE_PROBE_S, 1.8) == pytest.approx(0.5)


@pytest.mark.parametrize("phases", [
    [(1.0, 40)],                                   # a quiet run
    [(1.7, 40)],                                   # never saw a quiet second
    [(1.8, 12), (1.0, 8), (1.3, 10), (1.0, 8), (1.6, 2)],
    [(1.0, 10), (1.7, 30)],
    [(1.7, 30), (1.0, 10)],
])
def test_cpu_bound_latency_reads_the_same_through_any_noise(phases):
    est = estimate(phased_rounds(phases))
    assert est.latency_ms_p50 == pytest.approx(7.07, rel=1e-9)
    assert est.throughput_rps == pytest.approx(1.0 / 0.00707, rel=1e-3)
    assert est.busy_share == 1.0 and est.rounds == 40


def test_plain_wall_clock_is_kept_as_a_diagnostic():
    est = estimate(phased_rounds([(1.7, 30), (1.0, 10)]))
    assert est.latency_ms_raw_p50 == pytest.approx(7.0 * 1.7, rel=0.02)
    assert est.latency_ms_p95 >= est.latency_ms_raw_p50
    assert est.probe_ms == pytest.approx(1.7)


def test_waiting_is_not_rescaled():
    # the REST shape: a 40 ms timer stall around 3 ms of CPU work
    quiet = estimate(phased_rounds([(1.0, 12)], cpu_s=0.003, wait_s=0.040))
    noisy = estimate(phased_rounds([(1.7, 12)], cpu_s=0.003, wait_s=0.040))
    assert quiet.latency_ms_p50 == pytest.approx(43.03, rel=1e-3)
    assert noisy.latency_ms_raw_p50 == pytest.approx(45.15, rel=1e-3)
    # rescaling the measured CPU share removes the inflation, not the stall
    assert noisy.latency_ms_p50 == pytest.approx(quiet.latency_ms_p50,
                                                 rel=2e-3)
    assert noisy.busy_share == pytest.approx(0.113, abs=0.005)


def test_failed_and_late_requests_miss_the_100ms_limit():
    rnd = Round(probe_s=0.001, probe_after_s=0.001, cpu_s=0.1)
    rnd.add(0.010, True)
    rnd.add(0.010, False)            # wrong answer: fast but missing
    rnd.add(PAPER_BOUND_S * 2, True)  # correct but late
    rnd.add(PAPER_BOUND_S, True)      # on the bound counts
    rnd.wall_s = 1.0
    est = estimate([rnd])
    assert (est.attempted, est.failed) == (4, 1)
    assert est.within_100ms_share == pytest.approx(0.5)


def test_the_100ms_limit_is_judged_on_wall_clock():
    # 80 ms of CPU on a machine running 1.5x slow: 120 ms really passed
    est = estimate(phased_rounds([(1.5, 4)], cpu_s=0.080))
    assert est.latency_ms_p50 < 100.0
    assert est.within_100ms_share == 0.0


def test_percentile_is_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 5.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
