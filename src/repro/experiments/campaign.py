"""The full experimental campaign (§V-A's complete parameter space).

"The full set of our experiments (from which we have only showed a subset
in this article) validates the network model of SimGrid" — the paper swept
*all* combinations of topology × sources × destinations, not just the nine
published figures.  :func:`campaign_combinations` lists every feasible
combination (the infeasible ones excluded the way a 79-node cluster forces)
and :func:`run_campaign` runs each, in campaign order.

Each combination's seed derives from the root seed and its
:func:`combination_id`, not its position, so any one combination re-runs
bit for bit alone: a campaign can be split across processes from the shell
(``tests/experiments/test_campaign.py`` and the frozen rows of
``tests/experiments/test_campaign_golden.py``).
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro._util.rng import derive_seed
from repro.analysis.errors import ErrorSeries
from repro.core.forecast import NetworkForecastService
from repro.experiments.protocol import (
    ENDPOINT_COUNTS,
    ExperimentSpec,
    TRANSFER_SIZES,
    Topology,
)
from repro.experiments.runner import run_experiment
from repro.experiments.summary import SummaryStats, summarize
from repro.g5k.sites import cluster_spec
from repro.testbed.fluid import TestbedNetwork

#: The clusters the paper's CLUSTER experiments draw from (§V-B1).
CAMPAIGN_CLUSTERS: tuple[str, ...] = ("sagittaire", "graphene")


def combination_id(combination: dict) -> str:
    """Stable, filesystem-safe identifier of a campaign combination."""
    parts = [f"{key}={combination[key]}" for key in sorted(combination)]
    return "__".join(parts).replace(" ", "").replace("/", "-")


def campaign_combinations(
    counts: Sequence[int] = ENDPOINT_COUNTS,
    clusters: Sequence[str] = CAMPAIGN_CLUSTERS,
) -> list[dict]:
    """Every (topology, cluster, n_src, n_dst) combination the paper's
    campaign covers, minus infeasible draws, in product order.

    CLUSTER combinations are generated per cluster and need
    ``n_src + n_dst`` disjoint nodes.  GRID_MULTI ones are
    cluster-independent, so they appear once, with the first cluster.
    1x1 exercises nothing the paper reports on.
    """
    combinations = []
    for topology, cluster, n_src, n_dst in itertools.product(
            (Topology.CLUSTER, Topology.GRID_MULTI), clusters, counts, counts):
        if n_src == 1 and n_dst == 1:
            continue
        if topology is Topology.GRID_MULTI:
            if cluster != clusters[0]:
                continue
        elif n_src + n_dst > cluster_spec(cluster).n_nodes:
            continue
        combinations.append({"topology": topology, "cluster": cluster,
                             "n_src": n_src, "n_dst": n_dst})
    return combinations


def spec_for(combination: dict, sizes: Optional[tuple[float, ...]] = None,
             repetitions: int = 10) -> ExperimentSpec:
    """The :class:`ExperimentSpec` of one campaign combination."""
    topology = combination["topology"]
    cluster = combination["cluster"] if topology is Topology.CLUSTER else None
    name = (
        f"{topology.value}-{cluster or 'grid'}-"
        f"{combination['n_src']}x{combination['n_dst']}"
    )
    return ExperimentSpec(
        name=name, topology=topology, cluster=cluster,
        n_sources=combination["n_src"], n_destinations=combination["n_dst"],
        sizes=sizes or TRANSFER_SIZES, repetitions=repetitions,
    )


def run_campaign(
    forecast: NetworkForecastService,
    network: TestbedNetwork,
    combinations: Optional[Sequence[dict]] = None,
    seed: int = 0,
    repetitions: int = 3,
    sizes: Optional[tuple[float, ...]] = None,
    platform_name: str = "g5k_test",
) -> dict[str, ErrorSeries]:
    """Run (a slice of) the campaign; returns series keyed by combination id,
    in campaign order.  ``combinations`` defaults to
    :func:`campaign_combinations`.

    Each combination's seed derives from ``seed`` and its id, so any single
    combination can be re-run in isolation bit-for-bit.  The first failed
    combination raises ``RuntimeError("campaign combination <id> failed:
    <Type>: <message>")`` once every combination has run.
    """
    combinations = (list(combinations) if combinations is not None
                    else campaign_combinations())
    results: dict[str, ErrorSeries] = {}
    failed: Optional[tuple[str, Exception]] = None
    for combination in combinations:
        cid = combination_id(combination)
        try:
            spec = spec_for(combination, sizes=sizes, repetitions=repetitions)
            # derive_seed(..., 0): the seed every campaign series was drawn
            # with, so none moves
            results[cid] = run_experiment(
                spec, forecast, network, platform_name=platform_name,
                seed=derive_seed(derive_seed(seed, cid), 0),
                repetitions=repetitions, sizes=sizes,
            )
        except Exception as exc:  # noqa: BLE001 - reported per combination
            failed = failed or (cid, exc)
    if failed is not None:
        cid, exc = failed
        raise RuntimeError(f"campaign combination {cid} failed: "
                           f"{type(exc).__name__}: {exc}") from exc
    return results


def campaign_summary(results: dict[str, ErrorSeries]) -> SummaryStats:
    """§V-B pooled statistics over the whole campaign."""
    return summarize(results.values())
