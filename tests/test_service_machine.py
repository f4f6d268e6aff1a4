"""Every sequence of the service's public verbs answers as the oracle does.

One Hypothesis state machine drives three targets over the same three small
platforms (a star, a dumbbell and a two-site grid):

- a :class:`NetworkForecastService`, called in process;
- a :class:`Pilgrim` router with serving enabled (forecast cache in front),
  dispatched in process;
- one two-shard :class:`ShardedGateway`, over HTTP on one keep-alive
  connection.  It starts once per test (a start costs about 0.5 s) and is
  reset between examples: the links go back to their described values and
  the gateway syncs them.

Its rules are the verbs: GET and POST predict (and a predict asked before,
again as spelled, or under another model or other ongoing transfers),
what-if, ``observe_link`` then an asked predict at a horizon,
``select_fastest``, a committed write of a link an asked predict crosses
(then that predict again), and an explicit ``sync_epoch()``.  Predicts are
asked again on purpose: a stale cache entry shows only on a repeat.

After every step each answer must equal :func:`reference.oracle.answer`
within 1e-9 relative, the three targets must answer the same bytes, and
every link's live values must be its committed ones.  Horizon predicts
run on the two in-process targets; no route feeds a shard's series, so
through the gateway a horizon answer must equal the shard's live-state
point answer.  The machine is sequential: races between verbs are out of
its reach (see the oracle's docstring).
"""

from __future__ import annotations

import ast
import json
import pathlib
from urllib.parse import urlencode

from hypothesis import HealthCheck, seed, settings, strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine,
                                 get_state_machine_test, invariant, rule)

from reference import oracle
from repro.core.forecast import (ForecastQuery, NetworkForecastService,
                                 TransferSpec)
from repro.core.framework import Pilgrim
from repro.core.planner import Hypothesis, TransferPlanner
from repro.core.rest.json_codec import dumps
from repro.core.rest.router import Request
from repro.scenarios.spec import LinkEvent
from repro.serving.gateway.gateway import GatewayConfig, ShardedGateway
from repro.simgrid.builder import (build_dumbbell, build_star_cluster,
                                   build_two_level_grid)
from repro.simgrid.models import model_by_name
from serving_helpers import RawHttp


def star():
    return build_star_cluster("star", 4)


def dumbbell():
    return build_dumbbell(2, 2)


def grid():
    return build_two_level_grid({"a": 2, "b": 2})


#: The served platforms by name; the hash ring puts ``grid`` on one shard,
#: ``star`` and ``dumb`` on the other.
PLATFORMS = {"star": star, "dumb": dumbbell, "grid": grid}
NOMINAL = {name: {link.name: link.committed for link in build().links()}
           for name, build in PLATFORMS.items()}
HOSTS = {name: [host.name for host in build().hosts()]
         for name, build in PLATFORMS.items()}
#: A few transfers per platform, so that requests repeat and the caches
#: answer some of them.
TRANSFERS = {name: [(hosts[0], hosts[1], 5e7), (hosts[2], hosts[1], 2e8),
                    (hosts[3], hosts[0], 1e6), (hosts[0], hosts[3], 5e7)]
             for name, hosts in HOSTS.items()}
MODELS = (None, "CM02", "tcp_fluid")  # None: the services' LV08
#: The links each of those transfers crosses, on a private build.
CROSSED = {(name, src, dst): sorted({use.link.name for use in
                                     PLATFORMS[name]().route(src, dst)})
           for name, pool in TRANSFERS.items() for src, dst, _ in pool}


def served() -> NetworkForecastService:
    """The three platforms, freshly built: each shard's service."""
    return NetworkForecastService({name: build()
                                   for name, build in PLATFORMS.items()})


def picks(name, max_size):
    return st.lists(st.sampled_from(TRANSFERS[name]), min_size=1,
                    max_size=max_size, unique=True).map(tuple)


def ongoings(name):
    return st.sampled_from(((),) + tuple((t,) for t in TRANSFERS[name][:2]))


@st.composite
def queries(draw):
    """``(platform, transfers, ongoing, model name or None)``."""
    name = draw(st.sampled_from(sorted(PLATFORMS)))
    return (name, draw(picks(name, 2)), draw(ongoings(name)),
            draw(st.sampled_from(MODELS)))


@st.composite
def schedules(draw, name, model):
    """Up to three events on ``name``'s links; a link fails only under a
    static model (a 1 B/s flow under ``tcp_fluid`` runs a round per RTT)."""
    actions = ["degrade", "recover"] + ([] if model == "tcp_fluid" else ["fail"])
    event = st.builds(
        LinkEvent, time=st.sampled_from((0.0, 0.01, 0.3)),
        link=st.sampled_from(sorted(NOMINAL[name]) + ["*-link"]),
        action=st.sampled_from(actions),
        factor=st.sampled_from((0.25, 0.5, 1.0)))
    return tuple(draw(st.lists(event, max_size=3)))


def wire(triples):
    return [list(triple) for triple in triples]


def get_target(route, name, params):
    return f"/pilgrim/{route}/{name}?{urlencode(params)}"


def predict_params(transfers, ongoing, model, horizon=None):
    params = [("transfer", f"{s},{d},{size!r}") for s, d, size in transfers]
    params += [("ongoing", f"{s},{d},{size!r}") for s, d, size in ongoing]
    params += [("model", model)] if model else []
    return params + ([("horizon", str(horizon))] if horizon else [])


def post_body(transfers, ongoing, model, **extra):
    doc = {"transfers": wire(transfers), "ongoing": wire(ongoing), **extra}
    if model:
        doc["model"] = model
    return json.dumps(doc).encode("utf-8")


class ServiceMachine(RuleBasedStateMachine):
    """The model is the committed value of every link; the oracle answers
    from it alone."""

    #: the running gateway, over the parent-side service whose platforms
    #: all three targets share (a subclass per test sets it)
    gateway: ShardedGateway
    #: predicts asked so far, with their spelling, to ask again: after a
    #: write, or under another model or other ongoing transfers
    asked = Bundle("asked")

    def __init__(self) -> None:
        super().__init__()
        self.values = {name: dict(links) for name, links in NOMINAL.items()}
        platforms = self.platforms = {
            name: self.gateway.service.platform(name) for name in PLATFORMS}
        for name, platform in platforms.items():
            for link in platform.links():
                bandwidth, latency = NOMINAL[name][link.name]
                if link.committed != (bandwidth, latency):
                    link.bandwidth, link.latency = bandwidth, latency
        self.gateway.sync_epoch()
        self.service = NetworkForecastService(platforms)
        self.pilgrim = Pilgrim(platforms=platforms)
        self.pilgrim.enable_serving(cache_size=16)
        self.router = self.pilgrim.build_router()
        self.http = RawHttp(self.gateway.address, timeout=30.0)

    def teardown(self) -> None:
        self.http.close()

    # -- the targets -----------------------------------------------------------

    def routed(self, method, target, body=b""):
        """Router and gateway answers: each as its status and bytes."""
        status, payload = self.router.dispatch(
            Request.from_wire(method, target, body))
        return ((status, dumps(payload).encode("utf-8")),
                self.http.exchange(method, target, body))

    def expect(self, name, transfers, ongoing=(), model=None, events=(),
               factors=None):
        return oracle.answer(PLATFORMS[name], self.values[name], transfers,
                             model_by_name(model or "LV08"), ongoing, events,
                             factors)

    @staticmethod
    def check(forecasts, transfers, durations):
        assert [(f["src"], f["dst"], f["size"]) for f in forecasts] == [
            tuple(t) for t in transfers]
        for forecast, duration in zip(forecasts, durations):
            assert oracle.agrees(forecast["duration"], duration), (
                forecast, duration)

    # -- the verbs -------------------------------------------------------------

    @rule(target=asked, query=queries(), via_get=st.booleans())
    def predict(self, query, via_get):
        self.ask(query, via_get)
        return query, via_get

    @rule(target=asked, before=asked, data=st.data(),
          change=st.sampled_from(("nothing", "model", "ongoing")))
    def predict_again(self, before, data, change):
        (name, transfers, ongoing, model), via_get = before
        if change == "model":
            model = data.draw(st.sampled_from(MODELS))
        elif change == "ongoing":
            ongoing = data.draw(ongoings(name))
        query = (name, transfers, ongoing, model)
        self.ask(query, via_get)
        return query, via_get

    def ask(self, query, via_get):
        name, transfers, ongoing, model = query
        forecasts, _ = self.service.answer(ForecastQuery(
            name, transfers, ongoing, model and model_by_name(model)))
        direct = dumps([f.to_json() for f in forecasts]).encode("utf-8")
        if via_get:
            request = ("GET", get_target("predict_transfers", name,
                                         predict_params(transfers, ongoing,
                                                        model)))
        else:
            request = ("POST", f"/pilgrim/predict_transfers/{name}",
                       post_body(transfers, ongoing, model))
        assert self.routed(*request) == ((200, direct),) * 2
        self.check(json.loads(direct), transfers,
                   self.expect(name, transfers, ongoing, model)[0])

    @rule(data=st.data(), query=queries())
    def what_if(self, data, query):
        name, transfers, ongoing, model = query
        events = data.draw(schedules(name, model))
        result = self.service.predict_what_if(
            name, transfers, events, model=model and model_by_name(model),
            ongoing=ongoing)
        direct = dumps(result.to_json()).encode("utf-8")
        body = post_body(transfers, ongoing, model,
                         events=[event.to_json() for event in events])
        assert self.routed("POST", f"/pilgrim/what_if/{name}", body) == (
            (200, direct),) * 2
        durations, applied = self.expect(name, transfers, ongoing, model,
                                         events)
        doc = json.loads(direct)
        assert doc["applied"] == applied
        self.check(doc["forecasts"], transfers, durations)

    @rule(before=asked, link=st.integers(0, 4),
          observed=st.lists(st.sampled_from((0.3, 0.6, 0.9, 1.0)),
                            max_size=4),
          horizon=st.integers(1, 3))
    def observe_then_predict_ahead(self, before, link, observed, horizon):
        """An asked predict again, ``horizon`` steps ahead: the serving
        cache may hold its point answer."""
        (name, transfers, ongoing, model), _via_get = before
        link = sorted(NOMINAL[name])[link % len(NOMINAL[name])]
        for share in observed:
            bandwidth = self.values[name][link][0] * share
            for service in (self.service, self.pilgrim.forecast):
                service.observe_link(name, link, bandwidth)
        forecasts, _ = self.service.answer(ForecastQuery(
            name, transfers, ongoing, model and model_by_name(model),
            horizon=horizon))
        direct = dumps([f.to_json() for f in forecasts]).encode("utf-8")
        target = get_target("predict_transfers", name, predict_params(
            transfers, ongoing, model, horizon))
        routed, through_gateway = self.routed("GET", target)
        assert routed == (200, direct)
        # the shards saw no observation: their live-state point answer
        status, body = through_gateway
        assert status == 200
        self.check(json.loads(body), transfers,
                   self.expect(name, transfers, ongoing, model)[0])
        # in process: the projected factors, and once a series is warm
        # the optimistic and pessimistic runs around them
        runs = [self.service.horizon_capacity_factors(name, horizon, bound)
                for bound in ("value", "upper", "lower")]
        assert runs == [self.pilgrim.forecast.horizon_capacity_factors(
            name, horizon, bound) for bound in ("value", "upper", "lower")]
        point, fast, slow = (self.expect(name, transfers, ongoing, model,
                                         factors=factors or None)[0]
                             for factors in runs)
        forecasts = json.loads(direct)
        self.check(forecasts, transfers, point)
        warm = bool(self.service.horizon_state(name).ready_links())
        for forecast, mid, low, high in zip(forecasts, point, fast, slow):
            assert ("lower" in forecast) == ("upper" in forecast) == warm
            if warm:
                assert oracle.agrees(forecast["lower"], min(low, mid))
                assert oracle.agrees(forecast["upper"], max(high, mid))

    @rule(data=st.data(), name=st.sampled_from(sorted(PLATFORMS)),
          count=st.integers(2, 3), model=st.sampled_from(MODELS))
    def select_fastest(self, data, name, count, model):
        drawn = {f"h{i}": data.draw(picks(name, 2)) for i in range(count)}
        hypotheses = [Hypothesis(label, tuple(TransferSpec(*t) for t in picked))
                      for label, picked in drawn.items()]
        result = TransferPlanner(self.service, name).select_fastest(
            hypotheses, model=model and model_by_name(model))
        direct = dumps(result.to_json()).encode("utf-8")
        params = [("hypothesis", f"{label}:" + ";".join(
            f"{s},{d},{size!r}" for s, d, size in picked))
            for label, picked in drawn.items()]
        params += [("model", model)] if model else []
        assert self.routed("GET", get_target("select_fastest", name,
                                             params)) == ((200, direct),) * 2
        truth = {label: self.expect(name, picked, model=model)[0]
                 for label, picked in drawn.items()}
        fastest = min(max(durations) for durations in truth.values())
        scores = json.loads(direct)["scores"]
        assert scores[result.best]["simulated"]
        assert oracle.agrees(max(truth[result.best]), fastest)
        for label, score in scores.items():
            if score["simulated"]:
                assert oracle.agrees(score["makespan"], max(truth[label]))
                for got, expected in zip(score["durations"], truth[label]):
                    assert oracle.agrees(got, expected)
            else:  # pruned: its makespan's lower bound beats no winner
                assert score["makespan"] <= max(truth[label]) * (1 + 1e-9)
                assert score["makespan"] >= fastest * (1 - 1e-9)

    @rule(before=asked, link=st.integers(0, 7),
          bandwidth=st.sampled_from((0.25, 0.5, 1.0, 2.0)),
          latency=st.sampled_from((0.5, 1.0, 4.0)))
    def write_link(self, before, link, bandwidth, latency):
        """A committed write (a recalibration) on the shared platform, in
        multiples of the described values, of a link an asked predict
        crosses; then that predict again, spelled as before."""
        (name, transfers, ongoing, _model), _via_get = before
        crossed = sorted({link for src, dst, _ in transfers + ongoing
                          for link in CROSSED[name, src, dst]})
        link = crossed[link % len(crossed)]
        nominal = NOMINAL[name][link]
        value = (nominal[0] * bandwidth, nominal[1] * latency)
        target = self.platforms[name].link(link)
        target.bandwidth, target.latency = value
        self.values[name][link] = value
        self.ask(*before)

    @rule(force=st.booleans())
    def sync_epoch(self, force):
        self.gateway.sync_epoch(force=force)
        assert self.gateway.sync_epoch() is False  # nothing moved since

    @invariant()
    def links_hold_their_committed_values(self):
        """After every verb a link's live and committed values are the
        model's: what-ifs wrote them transiently only."""
        for name, platform in self.platforms.items():
            for link in platform.links():
                value = self.values[name][link.name]
                assert link.committed == value
                assert (link.bandwidth, link.latency) == value


def test_every_sequence_of_verbs_answers_as_the_oracle():
    with ShardedGateway(served, GatewayConfig(shards=2, shard_threads=2),
                        service=served()) as gateway:
        machine = type("ServiceMachine", (ServiceMachine,),
                       {"gateway": gateway})
        run = get_state_machine_test(machine, settings=settings(
            max_examples=50, stateful_step_count=10, database=None,
            suppress_health_check=list(HealthCheck)))
        seed(20121017)(run)()


#: What the oracle must never import: the code it checks.
NOT_FOR_THE_ORACLE = ("repro.serving", "repro.surrogate", "repro._util.lru",
                      "repro.core.forecast", "repro.core.framework",
                      "repro.horizon", "repro.scenarios.dynamics")


def test_the_oracle_shares_no_code_with_what_it_checks():
    path = pathlib.Path(__file__).parent / "reference" / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}"
                            for alias in node.names)
    assert imported, "the oracle imports something: the walk must see it"
    assert not [name for name in imported for banned in NOT_FOR_THE_ORACLE
                if name == banned or name.startswith(banned + ".")]
