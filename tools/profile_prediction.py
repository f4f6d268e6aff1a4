"""Profiling harness for the prediction hot path.

Per the optimization workflow (make it work → test → profile), this script
cProfiles a whole-grid 60-transfer prediction — the heaviest online request
the paper's campaign issues — and prints the top cumulative entries, so
regressions in the solver or the kernel are easy to spot.

``--rest`` sends the same request through :class:`PilgrimHTTPServer` instead:
pre-encoded request bytes, one ``sendall`` each, on one raw keep-alive
``TCP_NODELAY`` socket (the way ``perf/client.py`` drives the benchmark), so
what the client costs is a ``recv`` and a header scan, not ``http.client``.
It prints the in-process ``predict_transfers`` and ``Router.dispatch``
medians beside the median the client observes; observed minus dispatch is
what the server's HTTP loop, JSON encoding and the socket add.  (A head/body
Nagle + delayed-ACK stall shows here as ~40 ms.)

``--gateway`` does the same through a one-shard
:class:`~repro.serving.gateway.ShardedGateway`, once for requests it has
never seen (a miss: the shard simulates) and once for a repeated one (a
hit: answered from the front end's response bytes, no pipe, no JSON).

``--model NAME`` runs any of the three under a registered sharing model
(``repro models list``) instead of the service's LV08 — ``tcp_fluid`` is the
time-varying one.  The profile ends with the kernel's own counters for one
request, including how many per-flow dynamics rounds it evaluated on how
many round-timer firings.

``--figure NAME`` draws the endpoints of a paper figure (``fig9``: 50x50 on
graphene, one big component) the way ``perf/workloads.py:figure_transfers``
does, instead of ``n_transfers`` whole-grid pairs — the shape
``kernel_fig9_inproc`` times, under the same tool.  The counters line also
says how the solver spent its solves: multi-variable fills, shared
constraints entering them, private constraints folded into bounds.

Run:  python tools/profile_prediction.py [n_transfers | --figure NAME]
                                         [--model NAME] [--rest | --gateway]
"""

import argparse
import cProfile
import itertools
import pstats
import socket
import statistics
import time
import urllib.parse

from repro.core.forecast import NetworkForecastService
from repro.core.framework import Pilgrim
from repro.core.rest.client import RestClient
from repro.core.rest.router import Request
from repro.experiments.environment import forecast_service
from repro.experiments.figures import FIGURES
from repro.experiments.protocol import ExperimentSpec, Topology, draw_transfer_pairs
from repro.serving.factories import grid5000_forecast_service
from repro.serving.gateway.gateway import GatewayConfig, ShardedGateway
from repro.simgrid.engine import Simulation
from repro.simgrid.models import model_by_name

#: The endpoints' draw seed: ``perf/run.py``'s default seed.
SEED = 20120917

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

    sim = Simulation(service.platform("g5k_test"), service.model)
    sim.simulate_transfers(transfers)
    print("kernel counters of one request: "
          "{solves} solves, {components_solved} components, "
          "{variables_resolved} variables resolved ({fills} fills over "
          "{shared_filled} shared constraints, {private_folded} private "
          "constraints folded), "
          "{flow_rounds} flow rounds on {round_instants} round instants"
          .format(**sim.sharing_stats))


def exchange(sock: socket.socket, raw_request: bytes) -> bytes:
    """Send one request in one write; return the body of its response."""
    sock.sendall(raw_request)

    def receive(buffer: bytes) -> bytes:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return buffer + chunk

    buffer = b""
    while b"\r\n\r\n" not in buffer:
        buffer = receive(buffer)
    head, _, body = buffer.partition(b"\r\n\r\n")
    length = next(int(line.split(b":", 1)[1])
                  for line in head.split(b"\r\n")
                  if line.lower().startswith(b"content-length:"))
    while len(body) < length:
        body = receive(body)
    return body


def compare_rest(service, transfers) -> None:
    pilgrim = Pilgrim({"g5k_test": service.platform("g5k_test")},
                      model=service.model)
    query = urllib.parse.urlencode(
        [("transfer", f"{src},{dst},{size!r}") for src, dst, size in transfers])
    target = f"/pilgrim/predict_transfers/g5k_test?{query}"
    raw = f"GET {target} HTTP/1.1\r\nHost: profile\r\n\r\n".encode("ascii")
    router = pilgrim.build_router()
    with pilgrim.serve() as server, \
            socket.create_connection(server.address) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        exchange(sock, raw)  # connect, warm the handler thread
        in_process = median_ms(lambda: pilgrim.forecast.predict_transfers(
            "g5k_test", transfers))
        dispatch = median_ms(lambda: router.dispatch(
            Request.from_target("GET", target)))
        observed = median_ms(lambda: exchange(sock, raw))
    print(f"median of {REPEATS} predictions of {len(transfers)} concurrent "
          f"transfers:\n"
          f"  in process            {in_process:8.2f} ms\n"
          f"  Router.dispatch       {dispatch:8.2f} ms  "
          f"(+ target decoding and routing)\n"
          f"  over REST, keep-alive {observed:8.2f} ms\n"
          f"  HTTP + JSON + socket  {observed - dispatch:8.2f} ms")


def compare_gateway(service, transfers, model_name=None) -> None:
    config = GatewayConfig(shards=1, window=0.0, model_name=model_name)
    with ShardedGateway(grid5000_forecast_service, config,
                        service=service) as gateway, \
            RestClient(gateway.url) as client:
        def post(transfers):
            return client.post("/pilgrim/predict_transfers/g5k_test",
                               {"transfers": transfers})

        post(transfers)  # connect, fill
        # sizes never sent before: no memo and neither cache knows them
        sizes = itertools.count(int(transfers[0][2]) + 1)

        def unseen():
            size = float(next(sizes))
            return [(src, dst, size) for src, dst, _ in transfers]

        rows = [
            ("first time (miss)",
             median_ms(lambda: service.predict_transfers(
                 "g5k_test", unseen())),
             median_ms(lambda: post(unseen()))),
            ("repeated (hit)",
             median_ms(lambda: service.predict_transfers(
                 "g5k_test", transfers)),
             median_ms(lambda: post(transfers))),
        ]
        cache = gateway.stats()["response_cache"]
    print(f"median of {REPEATS} predictions of {len(transfers)} concurrent "
          f"transfers:\n"
          f"  {'':20s}{'in process':>12s}{'via gateway':>14s}")
    for label, in_process, observed in rows:
        print(f"  {label:20s}{in_process:9.2f} ms{observed:11.2f} ms")
    print(f"  front-end response cache: {cache['hits']} hits, "
          f"{cache['misses']} misses")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n_transfers", nargs="?", type=int, default=60)
    parser.add_argument("--figure", metavar="NAME", choices=sorted(FIGURES),
                        help="draw the endpoints of a paper figure (e.g. "
                             "fig9) instead of n_transfers whole-grid pairs")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--rest", action="store_true",
                      help="compare in-process and client-observed latency "
                           "instead of profiling")
    mode.add_argument("--gateway", action="store_true",
                      help="the same comparison through a one-shard gateway, "
                           "for a first (miss) and a repeated (hit) request")
    parser.add_argument("--model", metavar="NAME",
                        help="sharing model, by registry name (default: the "
                             "service's own, LV08)")
    args = parser.parse_args()
    service = forecast_service()
    if args.model is not None:
        try:
            model = model_by_name(args.model)
        except ValueError as exc:
            parser.error(str(exc))
        service = NetworkForecastService(
            {name: service.platform(name)
             for name in service.platform_names()}, model=model)
    if args.figure is not None:
        spec = FIGURES[args.figure].spec
    else:
        spec = ExperimentSpec("profile", Topology.GRID_MULTI,
                              args.n_transfers, args.n_transfers)
    pairs = draw_transfer_pairs(spec, SEED)
    transfers = [(src, dst, 5e8) for src, dst in pairs]

    # warm the route cache the way a long-lived Pilgrim instance would be
    service.predict_transfers("g5k_test", transfers)
    if args.rest:
        compare_rest(service, transfers)
    elif args.gateway:
        compare_gateway(service, transfers, args.model)
    else:
        profile(service, transfers)


if __name__ == "__main__":
    main()
