"""Profiling harness for the prediction hot path.

Per the optimization workflow (make it work → test → profile), this script
cProfiles a whole-grid 60-transfer prediction — the heaviest online request
the paper's campaign issues — and prints the top cumulative entries, so
regressions in the solver or the kernel are easy to spot.

``--rest`` sends the same request through :class:`PilgrimHTTPServer` on one
keep-alive connection instead, and prints the in-process median beside the
median the client observes: what HTTP, JSON and the socket add.  (A head/body
Nagle + delayed-ACK stall shows here as ~40 ms.)

Run:  python tools/profile_prediction.py [n_transfers] [--rest]
"""

import argparse
import cProfile
import pstats
import statistics
import time

from repro.core.framework import Pilgrim
from repro.core.rest.client import RestClient
from repro.experiments.environment import forecast_service, root_seed
from repro.experiments.protocol import ExperimentSpec, Topology, draw_transfer_pairs

REPEATS = 20


def median_ms(call) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def profile(service, transfers) -> None:
    start = time.perf_counter()
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(REPEATS):
        service.predict_transfers("g5k_test", transfers)
    profiler.disable()
    elapsed = time.perf_counter() - start

    print(f"{REPEATS} predictions of {len(transfers)} concurrent transfers: "
          f"{elapsed / REPEATS * 1e3:.2f} ms each "
          f"(paper bound for 30 transfers: 100 ms)\n")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(15)


def compare_rest(service, transfers) -> None:
    pilgrim = Pilgrim({"g5k_test": service.platform("g5k_test")})
    with pilgrim.serve() as server, RestClient(server.url) as client:
        client.predict_transfers("g5k_test", transfers)  # connect
        in_process = median_ms(lambda: pilgrim.forecast.predict_transfers(
            "g5k_test", transfers))
        observed = median_ms(lambda: client.predict_transfers(
            "g5k_test", transfers))
    print(f"median of {REPEATS} predictions of {len(transfers)} concurrent "
          f"transfers:\n"
          f"  in process            {in_process:8.2f} ms\n"
          f"  over REST, keep-alive {observed:8.2f} ms\n"
          f"  HTTP + JSON + socket  {observed - in_process:8.2f} ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n_transfers", nargs="?", type=int, default=60)
    parser.add_argument("--rest", action="store_true",
                        help="compare in-process and client-observed latency "
                             "instead of profiling")
    args = parser.parse_args()
    service = forecast_service()
    spec = ExperimentSpec("profile", Topology.GRID_MULTI,
                          args.n_transfers, args.n_transfers)
    pairs = draw_transfer_pairs(spec, root_seed())
    transfers = [(src, dst, 5e8) for src, dst in pairs]

    # warm the route cache the way a long-lived Pilgrim instance would be
    service.predict_transfers("g5k_test", transfers)
    if args.rest:
        compare_rest(service, transfers)
    else:
        profile(service, transfers)


if __name__ == "__main__":
    main()
