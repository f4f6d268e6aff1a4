"""Running one experiment: measured reality vs Pilgrim predictions.

Follows §V-A's step list through the orchestration layer:

1. "TCP iperf servers (receivers) are started on all destination nodes" —
   a :class:`~repro.orchestration.actions.Remote` action,
2. "TCP iperf clients (senders) are simultaneously started on all source
   nodes" and 3. "wait the end of the client transfers, record the
   completion time of all actual transfers" — one measurement run on the
   fluid testbed,
4. "Record the Pilgrim predictions" — one PNFS request per repetition.

Each (repetition) redraws the endpoint sets, and each size runs with a
repetition-specific measurement seed, so the dispersion boxes aggregate
genuine run-to-run variability like the paper's 10-run averaging.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro._util.rng import derive_seed
from repro.analysis.errors import ErrorSeries
from repro.core.forecast import NetworkForecastService
from repro.experiments.protocol import ExperimentSpec, draw_transfer_pairs
from repro.orchestration.actions import FunctionAction, Remote, SequentialActions
from repro.testbed.fluid import TestbedNetwork
from repro.testbed.iperf import IperfClient, IperfServer
from repro.testbed.measurement import run_transfers


def run_experiment(
    spec: ExperimentSpec,
    forecast: NetworkForecastService,
    network: TestbedNetwork,
    platform_name: str = "g5k_test",
    seed: int = 0,
    repetitions: Optional[int] = None,
    sizes: Optional[tuple[float, ...]] = None,
    progress: Optional[Callable[[int, float], None]] = None,
) -> ErrorSeries:
    """Measure and predict the full size sweep; returns the error series."""
    series = ErrorSeries(name=spec.name)
    reps = repetitions if repetitions is not None else spec.repetitions
    size_list = sizes if sizes is not None else spec.sizes
    for rep in range(reps):
        rep_seed = derive_seed(seed, spec.name, "rep", rep)
        pairs = draw_transfer_pairs(spec, rep_seed)
        # prediction is deterministic per draw: one PNFS request per size
        for size in size_list:
            transfers = [(src, dst, size) for src, dst in pairs]
            measured = _measure(network, transfers,
                                seed=derive_seed(rep_seed, "measure", size))
            forecasts = forecast.predict_transfers(platform_name, transfers)
            point = series.point(size)
            for fc, ms in zip(forecasts, measured):
                point.add(prediction=fc.duration, measure=ms.duration)
            if progress is not None:
                progress(rep, size)
    return series


def _measure(network: TestbedNetwork, transfers: list[tuple[str, str, float]],
             seed: int) -> list:
    """The §V-A measurement steps as orchestration actions."""
    destinations = sorted({dst for _, dst, _ in transfers})
    servers: dict[str, IperfServer] = {}

    def start_server(host: str) -> IperfServer:
        server = IperfServer(host).start()
        servers[host] = server
        return server

    results: list = []

    def run_clients() -> int:
        clients = [
            IperfClient(src, servers[dst], size) for src, dst, size in transfers
        ]
        # validity check mirrors iperf: a client needs its started server
        for client in clients:
            client.transfer_tuple()
        results.extend(run_transfers(network, transfers, seed=seed))
        return len(results)

    def stop_servers() -> int:
        for server in servers.values():
            server.stop()
        return len(servers)

    protocol = SequentialActions(
        [
            Remote(start_server, destinations, name="start iperf servers"),
            FunctionAction(run_clients, name="run iperf clients"),
            FunctionAction(stop_servers, name="stop iperf servers"),
        ],
        name="experiment",
    )
    protocol.run()
    return results
