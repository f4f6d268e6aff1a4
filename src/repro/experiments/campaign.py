"""The full experimental campaign (§V-A's complete parameter space).

"The full set of our experiments (from which we have only showed a subset
in this article) validates the network model of SimGrid" — the paper swept
*all* combinations of topology × sources × destinations, not just the nine
published figures.  :func:`campaign_combinations` lists every feasible
combination (the infeasible ones excluded the way a 79-node cluster forces)
and :func:`run_campaign` runs each through :func:`_run_combination`.

``run_campaign(workers=N)`` maps that same function over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Each combination's seed
derives from the root seed and its :func:`combination_id`, and results are
aggregated in campaign order, so a parallel campaign is **bit-identical**
to a serial one (``tests/experiments/test_campaign.py`` and the frozen rows
of ``tests/experiments/test_campaign_golden.py``).  Each worker builds its
experiment environment once, through a module-level factory (pickled by
reference); the default factory reuses the session-cached
:mod:`repro.experiments.environment` builders, which a forked worker
inherits for free.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence

from repro._util.parallel import pool_chunk_size
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


def default_campaign_environment() -> tuple[NetworkForecastService, TestbedNetwork]:
    """The standard campaign environment (session-cached g5k platforms and
    testbed).  Module-level so worker processes can receive it by reference."""
    from repro.experiments.environment import forecast_service, testbed

    return forecast_service(), testbed()


#: A pool worker's ``(forecast, network)``, built once by :func:`_start_worker`.
_worker_environment: tuple = ()


def _start_worker(environment_factory: Callable) -> None:
    global _worker_environment
    _worker_environment = environment_factory()


def _run_combination(task: tuple) -> tuple[Optional[ErrorSeries], Optional[str]]:
    """Run one combination: ``(series, None)``, or ``(None, error)`` with
    the error as a string so it always crosses a process boundary.

    ``task`` is ``(combination, seed, repetitions, sizes, platform_name,
    environment)``; ``environment`` is ``None`` in a pool worker, which
    runs against its own.
    """
    combination, seed, repetitions, sizes, platform_name, environment = task
    forecast, network = environment or _worker_environment
    try:
        spec = spec_for(combination, sizes=sizes, repetitions=repetitions)
        # derive_seed(seed, 0): the seed every campaign series was drawn
        # with, so none moves
        series = run_experiment(
            spec, forecast, network, platform_name=platform_name,
            seed=derive_seed(seed, 0), repetitions=repetitions, sizes=sizes,
        )
    except Exception as exc:  # noqa: BLE001 - reported per combination
        return None, f"{type(exc).__name__}: {exc}"
    return series, None


def run_campaign(
    forecast: NetworkForecastService,
    network: TestbedNetwork,
    combinations: Optional[Sequence[dict]] = None,
    seed: int = 0,
    repetitions: int = 3,
    sizes: Optional[tuple[float, ...]] = None,
    platform_name: str = "g5k_test",
    workers: Optional[int] = None,
    environment_factory: Callable = default_campaign_environment,
) -> dict[str, ErrorSeries]:
    """Run (a slice of) the campaign; returns series keyed by combination id,
    in campaign order.  ``combinations`` defaults to
    :func:`campaign_combinations`.

    Each combination's seed derives from ``seed`` and its id, so any single
    combination can be re-run in isolation bit-for-bit.  The first failed
    combination raises ``RuntimeError("campaign combination <id> failed:
    <Type>: <message>")`` once every combination has run.

    ``workers > 1`` runs combinations on a process pool.  In that mode each
    worker obtains its experiment environment from ``environment_factory``
    (a picklable module-level callable returning ``(forecast, network)``);
    the ``forecast``/``network`` arguments only serve the serial path, so
    callers with a custom environment must pass a matching factory.
    """
    combinations = (list(combinations) if combinations is not None
                    else campaign_combinations())
    parallel = workers is not None and workers > 1
    if parallel and environment_factory is default_campaign_environment:
        # workers run against the factory's environment, not the
        # forecast/network arguments — refuse to silently discard a custom
        # environment (building the default here is free: forked workers
        # inherit the caches it warms)
        default_forecast, default_network = default_campaign_environment()
        if forecast is not default_forecast or network is not default_network:
            raise ValueError(
                "run_campaign(workers > 1) executes combinations against "
                "environment_factory(), which does not match the "
                "forecast/network passed in; supply a module-level "
                "environment_factory rebuilding your custom environment"
            )
    environment = None if parallel else (forecast, network)
    tasks = [
        (combination, derive_seed(seed, combination_id(combination)),
         repetitions, sizes, platform_name, environment)
        for combination in combinations
    ]
    if parallel:
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=(environment_factory,)) as pool:
            chunk = pool_chunk_size(len(tasks), workers)
            outcomes = list(pool.map(_run_combination, tasks, chunksize=chunk))
    else:
        outcomes = [_run_combination(task) for task in tasks]
    results: dict[str, ErrorSeries] = {}
    for combination, (series, error) in zip(combinations, outcomes):
        cid = combination_id(combination)
        if error is not None:
            raise RuntimeError(f"campaign combination {cid} failed: {error}")
        results[cid] = series
    return results


def campaign_summary(results: dict[str, ErrorSeries]) -> SummaryStats:
    """§V-B pooled statistics over the whole campaign."""
    return summarize(results.values())
