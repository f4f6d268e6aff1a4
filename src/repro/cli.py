"""Command-line interface.

::

    python -m repro platforms
    python -m repro predict --platform g5k_test \\
        --transfer capricorne-36.lyon.grid5000.fr,griffon-50.nancy.grid5000.fr,5e8 \\
        --transfer capricorne-36.lyon.grid5000.fr,capricorne-1.lyon.grid5000.fr,5e8
    python -m repro serve --port 8080
    python -m repro experiment --figure fig8 --reps 3 --sizes 1e5,2.15e8,1e10
    python -m repro figures

The ``predict`` command prints the same JSON documents the REST service
answers (§IV-C2); ``experiment`` regenerates one paper figure on the
synthetic testbed and renders it as text.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.serving.batcher import DEFAULT_WINDOW


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pilgrim reproduction: dynamic network forecasting "
                    "(Imbert & Caron, CLUSTER 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("platforms", help="list the built-in platform descriptions")
    sub.add_parser("figures", help="list the reproducible paper figures")
    sub.add_parser("version", help="print the package version")

    predict = sub.add_parser("predict", help="predict concurrent transfer times")
    predict.add_argument("--platform", default="g5k_test",
                         choices=("g5k_test", "g5k_cabinets"))
    predict.add_argument("--transfer", action="append", required=True,
                         metavar="SRC,DST,SIZE",
                         help="repeatable: source,destination,bytes")
    predict.add_argument("--ongoing", action="append", default=[],
                         metavar="SRC,DST,REMAINING",
                         help="repeatable: in-flight transfers sharing bandwidth")
    predict.add_argument("--model", default="LV08",
                         help="registered sharing model name "
                              "(see `repro models list`)")

    whatif = sub.add_parser(
        "what-if",
        help="forecast transfers under a hypothetical link-event schedule",
        description="Planning query: predict the given transfers while a "
                    "transient dynamics schedule plays out ('what if the "
                    "bottleneck degrades 50%% at t+30s?'), optionally under "
                    "the platform state projected --horizon steps ahead "
                    "from --observe'd link measurements.",
    )
    whatif.add_argument("--platform", default="g5k_test",
                        choices=("g5k_test", "g5k_cabinets"))
    whatif.add_argument("--transfer", action="append", required=True,
                        metavar="SRC,DST,SIZE",
                        help="repeatable: source,destination,bytes")
    whatif.add_argument("--ongoing", action="append", default=[],
                        metavar="SRC,DST,REMAINING",
                        help="repeatable: in-flight transfers sharing bandwidth")
    whatif.add_argument("--event", action="append", default=[],
                        metavar="TIME,LINK,ACTION[,FACTOR]",
                        help="repeatable: timed link mutation; ACTION is "
                             "degrade/fail/recover, LINK an fnmatch pattern, "
                             "FACTOR the degrade fraction of nominal")
    whatif.add_argument("--horizon", type=int, default=None, metavar="K",
                        help="project observed link series K steps ahead and "
                             "use the projection as the baseline state")
    whatif.add_argument("--observe", action="append", default=[],
                        metavar="LINK=V1,V2,...",
                        help="repeatable: feed a link's bandwidth series "
                             "(bytes/s) into the horizon forecaster")
    whatif.add_argument("--model", default="LV08",
                        help="registered sharing model name "
                             "(see `repro models list`)")

    serve = sub.add_parser("serve", help="run the Pilgrim HTTP services")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--shards", type=int, default=0,
                       help="shard processes behind the async gateway "
                            "(0 = the classic single-process threaded "
                            "server, the default); each shard owns its "
                            "own serving stack and cache")
    serve.add_argument("--max-inflight", type=int, default=256,
                       help="gateway admission: concurrently executing "
                            "request budget (with --shards)")
    serve.add_argument("--queue-depth", type=int, default=1024,
                       help="gateway admission: requests allowed to wait "
                            "beyond --max-inflight before load is shed "
                            "with 503 + Retry-After (with --shards)")
    serve.add_argument("--shard-threads", type=int, default=4,
                       help="handler threads per shard process "
                            "(with --shards)")
    serve.add_argument("--workers", type=int, default=0,
                       help="warm forecast worker processes (0 = answer "
                            "inline in the serving process, the default); "
                            "with --shards, per shard")
    serve.add_argument("--batch-window", type=float, default=DEFAULT_WINDOW,
                       metavar="SECONDS",
                       help="micro-batching window: concurrent requests "
                            "arriving within it share one pool fan-out "
                            "(default 0: a lone request never waits)")
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="forecast cache entries (0 disables caching)")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="recycle pool workers after this many forecasts")
    serve.add_argument("--no-serving", action="store_true",
                       help="skip the serving layer (cache, batching, warm "
                            "pool); every request simulates directly")
    serve.add_argument("--surrogate", default=None, metavar="MODEL_JSON",
                       help="arm the learned surrogate fast path with this "
                            "trained model document (`repro surrogate "
                            "train`); low-uncertainty queries answer in "
                            "microseconds, everything else simulates")
    serve.add_argument("--surrogate-bound", type=float, default=0.5,
                       help="maximum predicted uncertainty (log2 units) "
                            "the surrogate may answer under")
    serve.add_argument("--model", default=None,
                       help="default sharing model for every forecast "
                            "(a registered name, see `repro models list`); "
                            "per-request model= parameters still win")

    models = sub.add_parser(
        "models", help="pluggable network sharing models")
    models_sub = models.add_subparsers(dest="models_command", required=True)
    models_sub.add_parser(
        "list", help="list the registered sharing models, their "
                     "parameters and defaults")

    experiment = sub.add_parser("experiment",
                                help="regenerate one paper figure")
    experiment.add_argument("--figure", default="fig8")
    experiment.add_argument("--reps", type=int, default=3)
    experiment.add_argument("--seed", type=int, default=20120917)
    experiment.add_argument("--sizes", default=None,
                            help="comma-separated byte counts "
                                 "(default: the paper's 10-point sweep)")
    experiment.add_argument("--platform", default="g5k_test",
                            choices=("g5k_test", "g5k_cabinets"))

    scenarios = sub.add_parser(
        "scenarios", help="declarative scenario presets (topology × "
                          "workload × dynamics)")
    scen_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser("list", help="list the registered scenario presets")
    scen_run = scen_sub.add_parser("run", help="run one scenario preset")
    scen_run.add_argument("preset", help="preset name (see `scenarios list`)")
    scen_run.add_argument("--reps", type=int, default=1,
                          help="repetitions (stochastic workloads redraw "
                               "from spawned sibling streams)")
    scen_run.add_argument("--seed", type=int, default=None,
                          help="override the preset's root seed")
    scen_run.add_argument("--model", default=None,
                          help="override the preset's sharing model "
                               "(a registered name, see `repro models "
                               "list`)")
    scen_run.add_argument("--json", action="store_true",
                          help="emit the full result as JSON")

    metrology = sub.add_parser(
        "metrology", help="live metrology pipeline (probe → RRD → "
                          "forecast → recalibrate)")
    met_sub = metrology.add_subparsers(dest="metrology_command", required=True)

    met_record = met_sub.add_parser(
        "record", help="probe a degrading testbed and dump the RRD series "
                       "as a measured-trace JSON document")
    met_record.add_argument("--hosts", type=int, default=4)
    met_record.add_argument("--period", type=float, default=15.0,
                            help="probe period, metrology seconds")
    met_record.add_argument("--steps", type=int, default=10,
                            help="probe cycles after warm-up")
    met_record.add_argument("--warmup", type=int, default=3,
                            help="healthy probe cycles anchoring references")
    met_record.add_argument("--link", type=int, default=1,
                            help="1-based index of the degrading host link")
    met_record.add_argument("--factor", type=float, default=0.3,
                            help="degraded capacity as a fraction of nominal")
    met_record.add_argument("--latency-factor", type=float, default=1.0,
                            help="degraded latency as a multiple of nominal "
                                 "(bufferbloat; 1.0 = unchanged)")
    met_record.add_argument("--combined", action="store_true",
                            help="record latency traces alongside bandwidth "
                                 "(replay then calibrates both)")
    met_record.add_argument("--seed", type=int, default=3)
    met_record.add_argument("--output", default=None,
                            help="write the trace document here "
                                 "(default: stdout)")

    met_replay = met_sub.add_parser(
        "replay", help="replay a recorded trace document as measured "
                       "scenario dynamics")
    met_replay.add_argument("--input", required=True,
                            help="trace document from `metrology record`")
    met_replay.add_argument("--size", type=float, default=4e7,
                            help="per-transfer bytes of the replay workload")
    met_replay.add_argument("--time-scale", type=float, default=0.01,
                            help="simulated seconds per recorded metrology "
                                 "second (compresses probe periods onto the "
                                 "transfer timescale)")
    met_replay.add_argument("--reps", type=int, default=1)
    met_replay.add_argument("--json", action="store_true",
                            help="emit the full scenario result as JSON")

    met_run = met_sub.add_parser(
        "run", help="run the live loop: probe → RRD → forecast → epoch "
                    "bump → re-predict, against a degrading link")
    met_run.add_argument("--hosts", type=int, default=4)
    met_run.add_argument("--period", type=float, default=15.0)
    met_run.add_argument("--steps", type=int, default=10)
    met_run.add_argument("--warmup", type=int, default=3)
    met_run.add_argument("--link", type=int, default=1)
    met_run.add_argument("--factor", type=float, default=0.3)
    met_run.add_argument("--size", type=float, default=2e8,
                         help="per-transfer bytes of the evaluation workload")
    met_run.add_argument("--seed", type=int, default=3)
    met_run.add_argument("--workers", type=int, default=0,
                         help="warm forecast worker processes (0 = serve "
                              "inline); exercises pool recycling under "
                              "live recalibration")
    met_run.add_argument("--feed-workers", type=int, default=0,
                         help="probe worker processes fanning each poll "
                              "cycle out (0 = serial probing)")
    met_run.add_argument("--drift", type=float, default=0.0,
                         help="per-cycle multiplicative bandwidth-sensor "
                              "drift in [0, 1) (0 = unbiased sensors)")
    met_run.add_argument("--anchor-alpha", type=float, default=0.0,
                         help="EWMA re-anchoring rate for reference "
                              "estimates (0 = frozen anchors)")
    met_run.add_argument("--anchor-band", type=float, default=0.1,
                         help="relative health gate for re-anchoring")
    met_run.add_argument("--anchor-weighting", default="hard",
                         choices=("hard", "gaussian"),
                         help="re-anchoring weighting: hard all-or-nothing "
                              "health band, or gaussian distance-weighted "
                              "steps (no cliff at the band edge)")

    surrogate = sub.add_parser(
        "surrogate", help="learned surrogate fast path (train from "
                          "campaign sweeps, evaluate; `serve --surrogate` "
                          "arms it)")
    sur_sub = surrogate.add_subparsers(dest="surrogate_command",
                                       required=True)
    sur_train = sur_sub.add_parser(
        "train", help="run a seeded campaign sweep and fit the "
                      "ridge + k-NN surrogate")
    sur_train.add_argument("--output", required=True, metavar="MODEL_JSON",
                           help="write the trained model document here")
    sur_train.add_argument("--samples", type=int, default=48,
                           help="sweep samples (topology × workload × "
                                "size × link-degradation draws)")
    sur_train.add_argument("--seed", type=int, default=0)
    sur_train.add_argument("--model", default="LV08",
                           help="registered sharing model name "
                                "(see `repro models list`)")
    sur_train.add_argument("--workers", type=int, default=0,
                           help="sweep worker processes (bit-identical to "
                                "serial)")
    sur_train.add_argument("--holdout", type=float, default=0.25,
                           help="fraction of sweep samples held out for "
                                "validation (0 trains on everything)")
    sur_train.add_argument("--dataset", default=None, metavar="DATA_JSON",
                           help="also write the sweep dataset here")
    sur_eval = sur_sub.add_parser(
        "eval", help="evaluate a trained model on a fresh sweep")
    sur_eval.add_argument("--input", required=True, metavar="MODEL_JSON",
                          help="model document from `surrogate train`")
    sur_eval.add_argument("--samples", type=int, default=16)
    sur_eval.add_argument("--seed", type=int, default=1,
                          help="sweep seed (pick one differing from the "
                               "training seed for an honest held-out set)")
    sur_eval.add_argument("--workers", type=int, default=0)
    sur_eval.add_argument("--max-median-error", type=float, default=None,
                          help="exit 1 if the median |log2 error| exceeds "
                               "this floor (CI gate)")
    sur_eval.add_argument("--json", action="store_true",
                          help="emit the evaluation as JSON")

    report = sub.add_parser(
        "report", help="run the full validation campaign, emit markdown")
    report.add_argument("--reps", type=int, default=3)
    report.add_argument("--seed", type=int, default=20120917)
    report.add_argument("--sizes", default=None,
                        help="comma-separated byte counts")
    report.add_argument("--figures", default=None,
                        help="comma-separated figure ids (default: all)")
    report.add_argument("--output", default=None,
                        help="write the report to this file (default: stdout)")
    return parser


def _cmd_platforms(out) -> int:
    from repro.experiments.environment import forecast_service

    service = forecast_service()
    for name in service.platform_names():
        platform = service.platform(name)
        out.write(f"{name}: {len(platform.hosts())} hosts, "
                  f"{len(platform.links())} links, "
                  f"{platform.total_route_table_entries()} route entries\n")
    return 0


def _cmd_figures(out) -> int:
    from repro.experiments.figures import FIGURES

    for fig_id, figure in FIGURES.items():
        out.write(f"{fig_id:18s} {figure.title}\n")
    return 0


def _cmd_version(out) -> int:
    import repro

    out.write(f"repro {repro.__version__}\n")
    return 0


def _cmd_predict(args, out) -> int:
    from repro.core.forecast import TransferSpec
    from repro.experiments.environment import forecast_service
    from repro.simgrid.models import model_by_name

    service = forecast_service()
    model = model_by_name(args.model)
    forecasts = service.predict_transfers(
        args.platform, [TransferSpec.parse(t) for t in args.transfer],
        model=model, ongoing=[TransferSpec.parse(t) for t in args.ongoing],
    )
    out.write(json.dumps([f.to_json() for f in forecasts], indent=1) + "\n")
    return 0


def _cmd_what_if(args, out) -> int:
    from repro.core.forecast import TransferSpec
    from repro.experiments.environment import forecast_service
    from repro.horizon.whatif import parse_event
    from repro.simgrid.models import model_by_name

    service = forecast_service()
    model = model_by_name(args.model)
    transfers = [TransferSpec.parse(t) for t in args.transfer]
    ongoing = [TransferSpec.parse(t) for t in args.ongoing]
    events = [parse_event(e) for e in args.event]
    for observation in args.observe:
        link, _, series = observation.partition("=")
        if not series:
            raise ValueError(
                f"--observe must be LINK=V1,V2,..., got {observation!r}")
        for value in series.split(","):
            service.observe_link(args.platform, link.strip(), float(value))
    result = service.predict_what_if(
        args.platform, transfers, events, model=model, ongoing=ongoing,
        horizon=args.horizon,
    )
    out.write(json.dumps(result.to_json(), indent=1) + "\n")
    return 0


def _load_surrogate_tier(path, bound, out):
    """Build a SurrogateTier from a trained model document, or None."""
    if not path:
        return None
    from repro.surrogate.model import SurrogateModel
    from repro.surrogate.tier import SurrogateTier

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    tier = SurrogateTier(SurrogateModel.from_json(doc), bound=bound,
                         require_fresh_epoch=False)
    out.write(f"surrogate tier armed: model {tier.model.network_model}, "
              f"bound {bound:g} log2 units\n")
    return tier


def _cmd_serve(args, out) -> int:
    from repro.core.framework import Pilgrim
    from repro.experiments.environment import (
        g5k_cabinets_platform,
        g5k_test_platform,
    )
    from repro.simgrid.models import model_by_name

    for flag, value in (("--shards", args.shards), ("--workers", args.workers),
                        ("--cache-size", args.cache_size),
                        ("--batch-window", args.batch_window)):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value:g}")
    model = model_by_name(args.model) if args.model else None
    if args.shards > 0:
        return _cmd_serve_gateway(args, out)
    out.write("loading Grid'5000 platforms...\n")
    # the session-cached platforms, which the pool factory hands every
    # warm worker too
    pilgrim = Pilgrim(platforms={"g5k_test": g5k_test_platform(),
                                 "g5k_cabinets": g5k_cabinets_platform()},
                      model=model)
    if model is not None:
        out.write(f"default sharing model: {args.model}\n")
    if not args.no_serving:
        from repro.serving.factories import grid5000_forecast_service

        pilgrim.enable_serving(
            service_factory=grid5000_forecast_service,
            workers=args.workers,
            window=args.batch_window,
            cache_size=args.cache_size,
            max_requests=args.max_requests,
            surrogate=_load_surrogate_tier(args.surrogate,
                                           args.surrogate_bound, out),
        )
        mode = (f"{args.workers} warm workers" if args.workers > 0
                else "inline execution")
        out.write(f"serving layer: {mode}, "
                  f"window {args.batch_window * 1000:g} ms, "
                  f"cache {args.cache_size} entries\n")
    server = pilgrim.serve(host=args.host, port=args.port).start()
    out.write(f"Pilgrim serving at {server.url} (Ctrl-C to stop)\n")
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        out.write("stopping\n")
    finally:
        server.stop()
        pilgrim.disable_serving()
    return 0


def _cmd_serve_gateway(args, out) -> int:
    from repro.experiments.environment import forecast_service
    from repro.serving.factories import grid5000_forecast_service
    from repro.serving.gateway.gateway import GatewayConfig, ShardedGateway

    out.write("loading Grid'5000 platforms...\n")
    # the session-cached parent service is the epoch/mutation source; the
    # picklable module-level factory rebuilds the same service per shard
    service = forecast_service()
    surrogate_doc = None
    if args.surrogate:
        with open(args.surrogate, "r", encoding="utf-8") as fh:
            surrogate_doc = json.load(fh)
        out.write(f"surrogate tier armed on every shard, bound "
                  f"{args.surrogate_bound:g} log2 units\n")
    config = GatewayConfig(
        shards=args.shards,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        shard_threads=args.shard_threads,
        window=args.batch_window,
        cache_size=args.cache_size,
        workers=args.workers,
        max_requests=args.max_requests,
        model_name=args.model or None,
        surrogate_doc=surrogate_doc,
        surrogate_bound=args.surrogate_bound,
    )
    gateway = ShardedGateway(grid5000_forecast_service, config,
                             service=service).start()
    out.write(f"gateway: {args.shards} shards x {args.shard_threads} "
              f"threads, admission {args.max_inflight} in-flight + "
              f"{args.queue_depth} queued, cache {args.cache_size} "
              f"entries/shard\n")
    out.write(f"Pilgrim gateway serving at {gateway.url} "
              f"(Ctrl-C to stop)\n")
    try:
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        out.write("stopping\n")
    finally:
        gateway.stop()
    return 0


def _figure_sizes(args) -> Optional[tuple[float, ...]]:
    """``--sizes`` as floats (``None``: each figure's own), checked with
    ``--reps`` before any run starts; ``ValueError`` names the bad value."""
    from repro.experiments.protocol import TRANSFER_SIZES
    from repro.experiments.runner import check_sweep

    sizes = None
    if args.sizes:
        try:
            sizes = tuple(float(s) for s in args.sizes.split(","))
        except ValueError:
            raise ValueError(f"--sizes must be comma-separated numbers, "
                             f"got {args.sizes!r}") from None
    check_sweep(args.reps, sizes or TRANSFER_SIZES)
    return sizes


def _cmd_experiment(args, out) -> int:
    from repro.analysis.asciiplot import render_error_plot
    from repro.experiments.environment import forecast_service, testbed
    from repro.experiments.figures import FIGURES, run_figure

    if args.figure not in FIGURES:
        out.write(f"unknown figure {args.figure!r}; "
                  f"available: {', '.join(FIGURES)}\n")
        return 2
    sizes = _figure_sizes(args)
    out.write(f"running {FIGURES[args.figure].title} "
              f"({args.reps} repetitions)...\n")
    series, failures = run_figure(
        args.figure, forecast_service(), testbed(), seed=args.seed,
        repetitions=args.reps, sizes=sizes, platform_name=args.platform,
    )
    out.write(render_error_plot(series) + "\n")
    if failures:
        out.write("shape checks FAILED:\n")
        for failure in failures:
            out.write(f"  {failure}\n")
        return 1
    out.write("shape checks: PASS\n")
    return 0


def _cmd_scenarios(args, out) -> int:
    from repro.analysis.tables import render_table
    from repro.scenarios.registry import DEFAULT_REGISTRY
    from repro.scenarios.runner import run_scenario

    if args.scenarios_command == "list":
        rows = [
            (spec.name, spec.topology.family, spec.workload.kind,
             len(spec.dynamics), spec.description)
            for spec in DEFAULT_REGISTRY
        ]
        out.write(render_table(
            ["preset", "topology", "workload", "events", "description"], rows,
            title=f"{len(rows)} scenario presets",
        ) + "\n")
        return 0

    if args.preset not in DEFAULT_REGISTRY:
        out.write(f"unknown scenario {args.preset!r}; "
                  f"available: {', '.join(DEFAULT_REGISTRY.names())}\n")
        return 2
    spec = DEFAULT_REGISTRY.get(args.preset)
    if args.seed is not None:
        spec = spec.replace(seed=args.seed)
    if args.model is not None:
        spec = spec.replace(model=args.model)
    result = run_scenario(spec, repetitions=args.reps)
    if args.json:
        out.write(json.dumps(result.to_json(), indent=1) + "\n")
        return 0
    summary = result.summary()
    out.write(render_table(
        ["metric", "value"], list(summary.items()),
        title=f"{spec.name}: {spec.description or spec.topology.family}",
    ) + "\n")
    if result.events_applied:
        out.write(render_table(
            ["t (s)", "link", "action", "bandwidth (B/s)"],
            [(e.time, e.link, e.action, e.bandwidth)
             for e in result.events_applied],
            title="dynamics applied (first repetition)",
        ) + "\n")
    return 0


def _cmd_models(args, out) -> int:
    from repro.analysis.tables import render_table
    from repro.simgrid.models import registered_models

    if args.models_command == "list":
        rows = []
        for entry in registered_models():
            params = ", ".join(
                name if default is None else f"{name}={default!r}"
                for name, default in entry.parameters().items()
            )
            probe = entry.build()
            rows.append((entry.name,
                         "time-varying" if probe.time_varying else "static",
                         params, entry.description))
        out.write(render_table(
            ["model", "weights", "parameters", "description"], rows,
            title=f"{len(rows)} registered sharing models",
        ) + "\n")
        return 0
    raise AssertionError(
        f"unhandled models command {args.models_command!r}"
    )  # pragma: no cover


#: Version tag of the `metrology record` trace document.
TRACE_DOC_FORMAT = 1


def _cmd_metrology(args, out) -> int:
    if args.metrology_command == "record":
        return _cmd_metrology_record(args, out)
    if args.metrology_command == "replay":
        return _cmd_metrology_replay(args, out)
    return _cmd_metrology_run(args, out)


def _record_demo(args, **extra):
    from repro.metrology.demo import StarMetrologyDemo

    return StarMetrologyDemo.for_run(
        n_hosts=args.hosts, period=args.period, seed=args.seed,
        warmup=args.warmup, steps=args.steps,
        degrade_link=args.link, degrade_factor=args.factor,
        **extra,
    )


def _cmd_metrology_record(args, out) -> int:
    demo = _record_demo(args, degrade_latency_factor=args.latency_factor)
    demo.warmup(args.warmup)
    demo.run(args.steps)
    traces = (demo.combined_traces() if args.combined
              else demo.measured_traces())
    doc = {
        "format": TRACE_DOC_FORMAT,
        "topology": {"family": "star", "params": {"n_hosts": args.hosts}},
        "period": args.period,
        "duration": demo.feed.clock,
        "traces": [trace.to_json() for trace in traces],
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.write(f"recorded {len(doc['traces'])} link traces over "
                  f"{demo.feed.clock:g}s to {args.output}\n")
    else:
        out.write(text)
    return 0


def _cmd_metrology_replay(args, out) -> int:
    from repro.analysis.tables import render_table
    from repro.scenarios.runner import run_scenario
    from repro.scenarios.spec import (
        MeasuredTrace,
        ScenarioSpec,
        TopologySpec,
        WorkloadSpec,
    )

    with open(args.input, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != TRACE_DOC_FORMAT:
        out.write(f"unsupported trace document format {doc.get('format')!r}\n")
        return 2
    traces = [
        MeasuredTrace.from_json(trace_doc).rescaled(args.time_scale)
        for trace_doc in doc["traces"]
    ]
    spec = ScenarioSpec(
        name="measured-replay",
        description=f"replay of {args.input}",
        topology=TopologySpec.from_json(doc["topology"]),
        workload=WorkloadSpec("all_to_all", size=args.size),
        measured=tuple(traces),
    )
    result = run_scenario(spec, repetitions=args.reps)
    if args.json:
        out.write(json.dumps(result.to_json(), indent=1) + "\n")
        return 0
    out.write(render_table(
        ["metric", "value"], list(result.summary().items()),
        title=f"measured replay of {args.input} "
              f"(time scale {args.time_scale:g})",
    ) + "\n")
    out.write(render_table(
        ["t (s)", "link", "metric", "value"],
        [(e.time, e.link,
          "latency (s)" if e.latency is not None else "bandwidth (B/s)",
          e.latency if e.latency is not None else e.bandwidth)
         for e in result.events_applied],
        title="measured mutations applied (first repetition)",
    ) + "\n")
    return 0


def _cmd_metrology_run(args, out) -> int:
    from repro._util.stats import median
    from repro.analysis.tables import render_table
    from repro.serving.service import ForecastServingService

    demo = _record_demo(args, sensor_drift=args.drift,
                        anchor_alpha=args.anchor_alpha,
                        anchor_health_band=args.anchor_band,
                        anchor_weighting=args.anchor_weighting,
                        feed_workers=args.feed_workers)
    demo.warmup(args.warmup)
    serving = ForecastServingService(
        demo.service,
        service_factory=(demo.service_factory() if args.workers else None),
        workers=args.workers,
    ).start()
    rows = []
    recalibrated_errors, static_errors = [], []
    try:
        for step in range(args.steps):
            demo.step()
            evaluation = demo.evaluate_step(
                serving, demo.workload(args.size), seed_salt=step)
            if evaluation.degraded:
                recalibrated_errors.append(evaluation.err_recalibrated)
                static_errors.append(evaluation.err_static)
            rows.append((
                f"{evaluation.time:g}",
                f"{evaluation.true_factor:g}",
                evaluation.epoch,
                f"{evaluation.err_recalibrated:.3f}",
                f"{evaluation.err_static:.3f}",
            ))
    finally:
        serving.stop()
        demo.close()
    out.write(render_table(
        ["t (s)", "true factor", "epoch", "|log2 err| recal",
         "|log2 err| static"],
        rows,
        title=f"live metrology loop: star({args.hosts}), "
              f"{demo.degraded_link} -> {args.factor:g}x at "
              f"t={demo.degrade_at:g}s",
    ) + "\n")
    stats = demo.loop.stats.to_json()
    out.write(f"loop: {stats['polls']} polls, "
              f"{stats['updates_applied']} updates applied, "
              f"{stats['updates_skipped']} skipped by hysteresis, "
              f"{stats['reanchors']} reference re-anchors\n")
    cache = serving.cache.info()
    out.write(f"serving cache: {cache['hits']} hits, {cache['misses']} "
              f"misses (epoch bumps invalidate implicitly)\n")
    if serving.pool is not None:
        pool = serving.pool.stats()
        out.write(f"warm pool: {pool['workers']} workers, "
                  f"{pool['requests']} requests, {pool['recycles']} "
                  f"recycles (epoch bumps re-fork the recalibrated "
                  f"platform)\n")
    if recalibrated_errors:
        recal, static = median(recalibrated_errors), median(static_errors)
        out.write(f"degraded phase: median |log2 err| "
                  f"recalibrated {recal:.3f} vs static {static:.3f}\n")
        if recal >= static:
            out.write("recalibration did NOT beat the static baseline\n")
            return 1
        out.write("recalibration beats the static baseline\n")
    return 0


def _cmd_surrogate(args, out) -> int:
    if args.surrogate_command == "train":
        return _cmd_surrogate_train(args, out)
    if args.surrogate_command == "eval":
        return _cmd_surrogate_eval(args, out)
    raise AssertionError(
        f"unhandled surrogate command {args.surrogate_command!r}"
    )  # pragma: no cover


def _format_evaluation(report: dict) -> str:
    return (f"{report['n']} rows: median |log2 err| "
            f"{report['median_abs_log2_error']:.4f}, p90 "
            f"{report['p90_abs_log2_error']:.4f}, max "
            f"{report['max_abs_log2_error']:.4f}; median uncertainty "
            f"{report['median_uncertainty']:.4f}, covered "
            f"{report['uncertainty_covers']:.0%}")


def _cmd_surrogate_train(args, out) -> int:
    from repro.surrogate.dataset import SurrogateSweep, run_sweep
    from repro.surrogate.model import SurrogateModel

    if not 0.0 <= args.holdout < 1.0:
        out.write(f"--holdout must be in [0, 1), got {args.holdout}\n")
        return 2
    sweep = SurrogateSweep(samples=args.samples, seed=args.seed,
                           model=args.model)
    out.write(f"sweeping {args.samples} samples (seed {args.seed}, "
              f"model {args.model})...\n")
    dataset = run_sweep(sweep, workers=args.workers or None)
    out.write(f"dataset: {len(dataset)} transfer rows from "
              f"{len(dataset.samples)} samples\n")
    if args.dataset:
        with open(args.dataset, "w", encoding="utf-8") as fh:
            json.dump(dataset.to_json(), fh)
        out.write(f"dataset written to {args.dataset}\n")
    if args.holdout > 0:
        train_set, holdout = dataset.split_by_sample(args.holdout,
                                                     seed=args.seed)
    else:
        train_set, holdout = dataset, None
    model = SurrogateModel.train(train_set)
    out.write("train     " +
              _format_evaluation(model.evaluate(train_set.features,
                                                train_set.targets)) + "\n")
    if holdout is not None:
        out.write("holdout   " +
                  _format_evaluation(model.evaluate(holdout.features,
                                                    holdout.targets)) + "\n")
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(model.to_json(), fh)
    out.write(f"model written to {args.output}\n")
    return 0


def _cmd_surrogate_eval(args, out) -> int:
    from repro.surrogate.dataset import SurrogateSweep, run_sweep
    from repro.surrogate.model import SurrogateModel

    with open(args.input, "r", encoding="utf-8") as fh:
        model = SurrogateModel.from_json(json.load(fh))
    if not model.fitted:
        out.write(f"{args.input} holds an unfitted model\n")
        return 2
    sweep = SurrogateSweep(samples=args.samples, seed=args.seed,
                           model=model.network_model)
    dataset = run_sweep(sweep, workers=args.workers or None)
    report = model.evaluate(dataset.features, dataset.targets)
    if args.json:
        out.write(json.dumps(report, indent=1) + "\n")
    else:
        out.write("eval      " + _format_evaluation(report) + "\n")
    if args.max_median_error is not None and \
            report["median_abs_log2_error"] > args.max_median_error:
        out.write(f"median |log2 error| "
                  f"{report['median_abs_log2_error']:.4f} exceeds the "
                  f"floor {args.max_median_error:g}\n")
        return 1
    return 0


def _cmd_report(args, out) -> int:
    from repro.analysis.report import build_report
    from repro.experiments.environment import forecast_service, testbed
    from repro.experiments.figures import FIGURES, run_figure

    fig_ids = (args.figures.split(",") if args.figures else list(FIGURES))
    unknown = [f for f in fig_ids if f not in FIGURES]
    if unknown:
        out.write(f"unknown figures: {', '.join(unknown)}\n")
        return 2
    sizes = _figure_sizes(args)
    results = {}
    for fig_id in fig_ids:
        out.write(f"running {fig_id} ({FIGURES[fig_id].title})...\n")
        results[fig_id] = run_figure(
            fig_id, forecast_service(), testbed(), seed=args.seed,
            repetitions=args.reps, sizes=sizes,
        )
    report = build_report(results, repetitions=args.reps, seed=args.seed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
        out.write(f"report written to {args.output}\n")
    else:
        out.write(report + "\n")
    return 0 if all(not fails for _, fails in results.values()) else 1


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code.

    Bad input — a typed service or metrology error, a ``ValueError``, a
    file that cannot be read — prints one line and exits 2.
    """
    from repro.core.rest.errors import ApiError
    from repro.metrology.collectors import MetrologyError

    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        return _run(args, out)
    except (ApiError, MetrologyError, OSError, ValueError) as exc:
        out.write(f"{exc}\n")
        return 2


def _run(args, out) -> int:
    if args.command == "platforms":
        return _cmd_platforms(out)
    if args.command == "figures":
        return _cmd_figures(out)
    if args.command == "version":
        return _cmd_version(out)
    if args.command == "predict":
        return _cmd_predict(args, out)
    if args.command == "what-if":
        return _cmd_what_if(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "experiment":
        return _cmd_experiment(args, out)
    if args.command == "scenarios":
        return _cmd_scenarios(args, out)
    if args.command == "models":
        return _cmd_models(args, out)
    if args.command == "metrology":
        return _cmd_metrology(args, out)
    if args.command == "surrogate":
        return _cmd_surrogate(args, out)
    if args.command == "report":
        return _cmd_report(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
