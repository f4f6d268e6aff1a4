"""The campaign beyond the published figures.

"The full set of our experiments (from which we have only showed a subset
in this article) validates the network model of SimGrid" (§VI).  This bench
runs a broader slice of the §V-A parameter space than the nine figures —
every feasible (topology, cluster, sources, destinations) combination over
endpoint counts {1, 10, 30} — and checks the pooled §V-B statistics hold on
it too, not just on the published subset.
"""

from repro.analysis.tables import render_table
from repro.experiments.campaign import (
    campaign_combinations,
    campaign_summary,
    run_campaign,
)
from repro.experiments.summary import verify_summary

SIZES = (5.99e7, 7.74e8, 1e10)
REPS = 2
COUNTS = (1, 10, 30)


def test_campaign_slice_validates_the_model(harness, console, benchmark):
    results = run_campaign(
        harness.forecast, harness.testbed,
        combinations=campaign_combinations(counts=COUNTS),
        seed=harness.seed, repetitions=REPS, sizes=SIZES,
    )
    stats = campaign_summary(results)
    rows = [(cid, series.plateau_error()) for cid, series in
            sorted(results.items())]
    console(render_table(
        ["combination", "plateau error (log2)"], rows,
        title=f"campaign slice: {len(results)} combinations, "
              f"{stats.n_observations} large transfers",
    ))
    console(render_table(
        ["metric", "paper", "measured"],
        [(m, p, v) for m, p, v in stats.rows()],
    ))
    failures = verify_summary(stats)
    assert failures == [], "\n".join(failures)
    assert len(results) >= 20
    benchmark(lambda: campaign_summary(results))
