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

After every step the counters must also be a small model's
(:class:`Cache`, :class:`Deployment`): what each cache holds within its
bound, keyed on the generation of its platform a served platform's
committed writes move, and which served platforms moved since the last
sync.  The oracle's private platforms move the process's state version,
never a served platform: a sync that ships an unmoved platform shows.
"""

from __future__ import annotations

import ast
import json
import pathlib
from collections import OrderedDict
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


#: Entries of the in-process serving cache, and of the gateway's front end
#: and each shard: small, so that every cache evicts within a test.
LOCAL_CACHE, GATEWAY_CACHE = 4, 8


class Cache:
    """The keys one cache holds, oldest first, within its bound, and its
    hit and miss counts.  A ``stamped`` cache (a forecast cache) keys on
    ``(platform, generation, ...)`` and drops a platform's keys at the
    first lookup of a newer generation of it; the front end's does not."""

    def __init__(self, maxsize: int, stamped: bool) -> None:
        self.keys: OrderedDict = OrderedDict()
        self.maxsize = maxsize
        self.newest = {} if stamped else None
        self.hits = self.misses = 0

    def ask(self, key: tuple, store: bool = True) -> bool:
        """One lookup: whether it hits.  A miss stores ``key`` if
        ``store``, the answer being one the cache keeps."""
        if self.newest is not None and key[1] > self.newest.get(key[0], -1):
            self.newest[key[0]] = key[1]
            for old in [old for old in self.keys if old[0] == key[0]]:
                del self.keys[old]
        if key in self.keys:
            self.keys.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if store:
            if len(self.keys) >= self.maxsize:
                self.keys.popitem(last=False)
            self.keys[key] = None
        return False

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self.keys)}


class Shard:
    """One shard: its committed link values, the generation of each
    platform on it, its forecast cache and its sync counts."""

    def __init__(self, cache_size: int) -> None:
        self.values = {name: dict(links) for name, links in NOMINAL.items()}
        self.generation = dict.fromkeys(PLATFORMS, 0)
        self.cache = Cache(cache_size, stamped=True)
        self.front_hits = self.syncs = self.links_updated = 0


class Deployment:
    """The gateway and its shards as their counters see them.  It lives as
    long as the gateway, across examples, as their caches do."""

    def __init__(self, gateway: ShardedGateway) -> None:
        #: each served platform's generation in the parent, moved by every
        #: committed write of it, and as of the last sync
        self.generation = dict.fromkeys(PLATFORMS, 0)
        self.synced = dict(self.generation)
        self.owner = {name: gateway.ring.node(name) for name in PLATFORMS}
        size = gateway.config.cache_size
        self.front = Cache(size, stamped=False)
        self.shards = [Shard(size) for _ in gateway.shards]
        self.dispatched = [0] * len(self.shards)
        self.syncs = self.uncacheable = 0

    def sync(self, values: dict, force: bool = False) -> bool:
        """Ship the platforms that moved since the last sync (all of them
        with ``force``) to every shard, which writes the values that
        differ from its own; whether anything was shipped."""
        names = [name for name in PLATFORMS
                 if force or self.generation[name] != self.synced[name]]
        if not names:
            return False
        self.synced = dict(self.generation)
        self.syncs += 1
        for shard in self.shards:
            shard.syncs += 1
            for name in names:
                changed = sum(
                    new != old for link, value in values[name].items()
                    for new, old in zip(value, shard.values[name][link]))
                shard.links_updated += changed
                shard.generation[name] += changed > 0
                shard.values[name] = dict(values[name])
        return True

    def route(self, values: dict, name: str, request: tuple,
              point: tuple | None) -> None:
        """One request about ``name`` through the gateway: a sync if a
        served platform moved, the front end's cache, then the platform's
        shard, whose cache answers a ``point`` predict."""
        self.sync(values)
        shard = self.shards[self.owner[name]]
        if self.front.ask((name, self.synced[name]) + request,
                          store=point is not None):
            shard.front_hits += 1
            return
        self.dispatched[self.owner[name]] += 1
        if point is None:
            self.uncacheable += 1
        else:
            shard.cache.ask((name, shard.generation[name]) + point)

    def stats(self) -> dict:
        """What ``GET /pilgrim/stats`` must read, in its own shape."""
        return {
            "gateway": {"syncs": self.syncs,
                        "shard_dispatched": self.dispatched,
                        "response_cache": {**self.front.stats(),
                                           "uncacheable": self.uncacheable,
                                           "fills_refused": 0}},
            "shards": [{"syncs": shard.syncs,
                        "links_updated": shard.links_updated,
                        "cache": {**shard.cache.stats(),
                                  "hits": shard.cache.hits + shard.front_hits,
                                  "front_hits": shard.front_hits}}
                       for shard in self.shards],
        }


class ServiceMachine(RuleBasedStateMachine):
    """The model is the committed value of every link; the oracle answers
    from it alone.  The counters' model is :attr:`deployment` and, in
    process, :attr:`local` and the what-if and horizon counts."""

    #: the running gateway, over the parent-side service whose platforms
    #: all three targets share, and its counters' model (a subclass per
    #: test sets both)
    gateway: ShardedGateway
    deployment: Deployment
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
                    self.deployment.generation[name] += 1
        self.deployment.sync(self.values)
        self.gateway.sync_epoch()
        self.service = NetworkForecastService(platforms)
        self.pilgrim = Pilgrim(platforms=platforms)
        self.pilgrim.enable_serving(cache_size=LOCAL_CACHE)
        self.router = self.pilgrim.build_router()
        self.local = Cache(LOCAL_CACHE, stamped=True)
        self.what_ifs = self.horizons = 0
        self.http = RawHttp(self.gateway.address, timeout=30.0)

    def teardown(self) -> None:
        self.http.close()

    # -- the targets -----------------------------------------------------------

    def routed(self, name, method, target, body=b"", point=None):
        """Router and gateway answers about platform ``name``: each as its
        status and bytes.  ``point`` is a point predict's ``(model,
        transfers, ongoing)``, which every cache may answer; None for a
        request no cache keeps."""
        if point is not None:
            self.local.ask((name, self.deployment.generation[name]) + point)
        self.deployment.route(self.values, name, (method, target, body),
                              point)
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
        point = (model, tuple(transfers), tuple(ongoing))
        assert self.routed(name, *request, point=point) == ((200, direct),) * 2
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
        self.what_ifs += bool(events)  # an empty schedule is a point query
        assert self.routed(name, "POST", f"/pilgrim/what_if/{name}",
                           body) == ((200, direct),) * 2
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
        self.horizons += 1
        routed, through_gateway = self.routed(name, "GET", target)
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
        assert self.routed(name, "GET", get_target(
            "select_fastest", name, params)) == ((200, direct),) * 2
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
        self.deployment.generation[name] += 1
        self.ask(*before)

    @rule(force=st.booleans())
    def sync_epoch(self, force):
        shipped = self.deployment.sync(self.values, force)
        assert self.gateway.sync_epoch(force=force) is shipped
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

    @invariant()
    def counters_are_the_models(self):
        """After every verb each counter is the model's, so each verb moved
        it by exactly what the model says."""
        status, body = self.http.exchange("GET", "/pilgrim/stats")
        assert status == 200
        doc = json.loads(body)
        gateway = doc["gateway"]
        front = gateway["response_cache"]
        assert {
            "gateway": {"syncs": gateway["epoch"]["syncs"],
                        "shard_dispatched": gateway["shard_dispatched"],
                        "response_cache": {key: front[key] for key in (
                            "hits", "misses", "size", "uncacheable",
                            "fills_refused")}},
            "shards": [{"syncs": shard["syncs"],
                        "links_updated": shard["links_updated"],
                        "cache": {key: shard["serving"]["cache"][key] for key
                                  in ("hits", "misses", "size", "front_hits")}}
                       for shard in doc["shards"]],
        } == self.deployment.stats()
        status, local = self.router.dispatch(
            Request.from_wire("GET", "/pilgrim/stats", b""))
        assert status == 200
        cache = local["serving"]["cache"]
        assert ({key: cache[key] for key in ("hits", "misses", "size")},
                local["serving"]["latency"]["count"]) == (
            self.local.stats(), self.local.hits + self.local.misses)
        for planning in (local["planning"], self.service.planning_stats()):
            assert (planning["what_if_queries"],
                    planning["horizon_queries"]) == (self.what_ifs,
                                                     self.horizons)


def test_every_sequence_of_verbs_answers_as_the_oracle():
    config = GatewayConfig(shards=2, shard_threads=2,
                           cache_size=GATEWAY_CACHE)
    with ShardedGateway(served, config, service=served()) as gateway:
        machine = type("ServiceMachine", (ServiceMachine,),
                       {"gateway": gateway,
                        "deployment": Deployment(gateway)})
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
