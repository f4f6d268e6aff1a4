"""The paper's figures and §V/§VI experiments, run on the synthetic testbed.

Each test replays one experiment with the session testbed and forecast
service, on the root seed, and asserts the paper's claim for it: the shape
checks of ``FIGURES[...].verify`` per figure (one repetition each), the
pooled §V-B statistics through ``verify_summary``, and the threshold of each
ablation.  One module-scoped cache runs each series once, so the §V-B
summary pools the nine figures' series without replaying them.
"""

from __future__ import annotations

import pytest

from repro._util.stats import median
from repro.analysis.errors import log2_error
from repro.core.forecast import NetworkForecastService
from repro.experiments.campaign import (
    campaign_combinations,
    campaign_summary,
    run_campaign,
)
from repro.experiments.environment import g5k_test_with_equipment_limits
from repro.experiments.figures import FIGURES
from repro.experiments.protocol import (
    LARGE_SIZE_THRESHOLD,
    ExperimentSpec,
    Topology,
    draw_transfer_pairs,
)
from repro.experiments.runner import run_experiment
from repro.experiments.summary import summarize, verify_summary
from repro.nws.api import NwsForecastService
from repro.testbed.fluid import FluidSimulator
from repro.testbed.measurement import run_transfers

#: Root seed for every draw (the week of CLUSTER 2012).
SEED = 20120917
ALL_FIGS = [f"fig{i}" for i in range(3, 12)]
#: The reduced sweep of the large-transfer ablations.
LARGE_SIZES = (5.99e7, 7.74e8, 1e10)


@pytest.fixture(scope="module")
def series(forecast_service, g5k_testbed):
    """``series(fig_id, ...)``: the figure's error series, run once."""
    cache = {}

    def run(fig_id, platform_name="g5k_test", sizes=None, repetitions=1):
        key = (fig_id, platform_name, sizes, repetitions)
        if key not in cache:
            cache[key] = run_experiment(
                FIGURES[fig_id].spec, forecast_service, g5k_testbed,
                platform_name=platform_name, seed=SEED,
                repetitions=repetitions, sizes=sizes,
            )
        return cache[key]

    return run


@pytest.mark.parametrize("fig_id", ALL_FIGS)
def test_figure_shape(series, fig_id):
    failures = FIGURES[fig_id].verify(series(fig_id))
    assert failures == [], "\n".join(failures)


def test_summary_statistics(series):
    """§V-B: the pooled accuracy over all nine figures ("the median of the
    absolute value of all the errors is 0.149 […] 74% of the predictions
    have an absolute error less than 0.575")."""
    failures = verify_summary(summarize([series(f) for f in ALL_FIGS]))
    assert failures == [], "\n".join(failures)


def test_asymmetric_cases_converge(series):
    """§V-B1: graphene 50→30 and 30→50 "converge more nicely than 30 to 30
    or 50 to 50": endpoint collisions raise the measured times toward the
    over-predicted ones, so the error plateau shrinks."""
    plateaus = {
        fig_id: series(fig_id, sizes=LARGE_SIZES, repetitions=3)
        .plateau_error(LARGE_SIZE_THRESHOLD)
        for fig_id in ("fig9", "fig9-asym-30x50", "fig9-asym-50x30")
    }
    assert plateaus["fig9-asym-30x50"] < plateaus["fig9"] - 0.15
    assert plateaus["fig9-asym-50x30"] < plateaus["fig9"] - 0.15


def test_equipment_limits_do_not_explain_the_factor(series, g5k_testbed):
    """§V-B1: switch backplane limits "would cause the predictions to be
    lower than measures", so enabling them must not shrink the graphene
    over-prediction."""
    limits = NetworkForecastService(
        {"g5k_test_limits": g5k_test_with_equipment_limits()})
    base = series("fig8", sizes=LARGE_SIZES, repetitions=3)
    limited = run_experiment(
        FIGURES["fig8"].spec, limits, g5k_testbed,
        platform_name="g5k_test_limits", seed=SEED,
        repetitions=3, sizes=LARGE_SIZES,
    )
    base_plateau = base.plateau_error(LARGE_SIZE_THRESHOLD)
    limited_plateau = limited.plateau_error(LARGE_SIZE_THRESHOLD)
    assert limited_plateau > 0.0
    assert limited_plateau >= base_plateau - 0.05


def test_g5k_test_beats_cabinets(series):
    """§V-A: "all predictions based on g5k_test are better" than on
    g5k_cabinets, pooled over the fig5/fig8/fig10 workloads."""

    def pooled_abs_errors(platform_name):
        return [
            abs(e)
            for fig_id in ("fig5", "fig8", "fig10")
            for point in series(fig_id, platform_name=platform_name,
                                sizes=(4.64e6, 2.15e8, 1e10),
                                repetitions=3).points
            for e in point.errors
        ]

    assert median(pooled_abs_errors("g5k_test")) < \
        median(pooled_abs_errors("g5k_cabinets"))


def test_campaign_slice_validates_the_model(forecast_service, g5k_testbed):
    """§VI: "the full set of our experiments […] validates the network
    model": every feasible combination over endpoint counts {1, 10, 30}
    holds the pooled §V-B statistics, not just the published subset."""
    results = run_campaign(
        forecast_service, g5k_testbed,
        combinations=campaign_combinations(counts=(1, 10, 30)),
        seed=SEED, repetitions=2, sizes=LARGE_SIZES,
    )
    failures = verify_summary(campaign_summary(results))
    assert failures == [], "\n".join(failures)
    assert len(results) >= 20


def test_pnfs_beats_nws_under_contention(forecast_service, g5k_testbed):
    """§II/§III: NWS forecasts each transfer from its own probe history,
    so ten transfers into two graphene nodes are invisible to it; PNFS
    simulates them together."""
    spec = ExperimentSpec("nws-cmp", Topology.CLUSTER, 10, 2,
                          cluster="graphene")
    transfers = [(src, dst, 1e9)
                 for src, dst in draw_transfer_pairs(spec, SEED)]
    measured = [m.duration for m in
                run_transfers(g5k_testbed, transfers, seed=SEED)]
    pnfs = [f.duration for f in
            forecast_service.predict_transfers("g5k_test", transfers)]
    nws = NwsForecastService(g5k_testbed, seed=SEED,
                             warmup_probes=8).predict_transfers(transfers)
    pnfs_err = [abs(log2_error(p, m)) for p, m in zip(pnfs, measured)]
    nws_err = [abs(log2_error(p, m)) for p, m in zip(nws, measured)]
    assert median(pnfs_err) < median(nws_err)


def test_ongoing_transfers_fix_background_blindness(forecast_service,
                                                    g5k_testbed):
    """§VI: four 1 GB transfers race four 4 GB background flows into the
    same NICs; declaring the background as ``ongoing`` recovers the large
    transfer accuracy that ignoring it loses."""
    foreground = [(f"graphene-{i}.nancy.grid5000.fr",
                   f"graphene-{i + 40}.nancy.grid5000.fr", 1e9)
                  for i in (1, 2, 3, 4)]
    background = [(f"graphene-{i + 10}.nancy.grid5000.fr",
                   f"graphene-{i + 40}.nancy.grid5000.fr", 4e9)
                  for i in (1, 2, 3, 4)]
    sim = FluidSimulator(g5k_testbed, seed=SEED)
    flows = [sim.submit(s, d, z) for s, d, z in foreground]
    for s, d, z in background:
        sim.submit(s, d, z, is_background=True)
    sim.run()
    measured = [f.completion_time_raw for f in flows]

    def median_error(**kwargs):
        predicted = forecast_service.predict_transfers(
            "g5k_test", foreground, **kwargs)
        return median([abs(log2_error(f.duration, m))
                       for f, m in zip(predicted, measured)])

    informed = median_error(ongoing=background)
    assert informed < median_error() - 0.3
    assert informed < 0.35
