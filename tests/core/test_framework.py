"""Pilgrim facade and HTTP round-trips of every endpoint."""

import pytest

from repro.core.framework import Pilgrim
from repro.core.rest.client import RestClient
from repro.core.rest.errors import ApiError, BadRequest, NotFound
from repro.metrology.collectors import GangliaCollector, MetricKey
from repro.simgrid.builder import build_star_cluster
from repro.simgrid.models import CM02


@pytest.fixture(scope="module")
def pilgrim():
    instance = Pilgrim(model=CM02())
    instance.register_platform("star", build_star_cluster("star", 4))
    collector = GangliaCollector(instance.registry, period=15.0)
    key = MetricKey("ganglia", "Lyon", "sagittaire-1.lyon.grid5000.fr", "pdu")
    collector.register(key, lambda t: 168.88)
    collector.collect_until(120.0)
    return instance


@pytest.fixture(scope="module")
def client(pilgrim):
    server = pilgrim.serve().start()
    yield RestClient(server.url)
    server.stop()


class TestFacade:
    def test_predict_delegates(self, pilgrim):
        forecasts = pilgrim.predict_transfers("star", [("star-1", "star-2", 1e9)])
        assert forecasts[0].duration == pytest.approx(2e-4 + 8.0, rel=1e-3)

    def test_planner_factory(self, pilgrim):
        planner = pilgrim.planner("star")
        assert planner.platform_name == "star"

    def test_with_grid5000_builds_both_platforms(self, forecast_service):
        # uses the session-cached service to avoid a rebuild
        assert set(forecast_service.platform_names()) == {"g5k_cabinets",
                                                          "g5k_test"}


class TestHttpEndpoints:
    def test_platforms(self, client):
        assert client.get("/pilgrim/platforms") == {"platforms": ["star"]}

    def test_metrics_listing(self, client):
        metrics = client.get("/pilgrim/metrics")["metrics"]
        assert metrics == ["ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd"]

    def test_rrd_fetch_paper_shape(self, client):
        rows = client.fetch_metric(
            "ganglia", "Lyon", "sagittaire-1.lyon.grid5000.fr", "pdu", 0, 120
        )
        assert rows and all(len(row) == 2 for row in rows)
        assert rows[0][1] == pytest.approx(168.88)

    def test_rrd_info(self, client):
        info = client.get(
            "/pilgrim/rrd/ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd/info"
        )
        assert info["ds"]["name"] == "pdu"

    def test_rrd_fetch_missing_params(self, client):
        with pytest.raises(BadRequest):
            client.get(
                "/pilgrim/rrd/ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd/"
            )

    def test_rrd_unknown_metric(self, client):
        with pytest.raises(NotFound):
            client.fetch_metric("ganglia", "Lyon", "ghost", "pdu", 0, 10)

    @pytest.mark.parametrize("begin, end", [
        ("nan", "120"), ("0", "inf"), ("0", "1e400")])
    def test_rrd_non_finite_bounds_are_400(self, client, begin, end):
        # a NaN begin used to slip past the end-before-begin check
        with pytest.raises(BadRequest, match="finite"):
            client.fetch_metric("ganglia", "Lyon",
                                "sagittaire-1.lyon.grid5000.fr", "pdu",
                                begin, end)

    def test_predict_transfers(self, client):
        answers = client.predict_transfers(
            "star", [("star-1", "star-3", 1e9), ("star-2", "star-3", 1e9)]
        )
        assert len(answers) == 2
        for answer in answers:
            assert set(answer) == {"src", "dst", "size", "duration"}
            assert answer["duration"] == pytest.approx(16.0, rel=0.01)

    def test_predict_requires_transfer_param(self, client):
        with pytest.raises(BadRequest):
            client.get("/pilgrim/predict_transfers/star")

    def test_predict_unknown_platform(self, client):
        with pytest.raises(NotFound):
            client.predict_transfers("mars", [("a", "b", 1e6)])

    def test_predict_malformed_transfer(self, client):
        with pytest.raises(BadRequest):
            client.get("/pilgrim/predict_transfers/star",
                       [("transfer", "only-one-field")])

    def test_select_fastest(self, client):
        result = client.select_fastest("star", {
            "direct": [("star-1", "star-2", 1e9)],
            "funnel": [("star-1", "star-2", 1e9), ("star-3", "star-2", 1e9)],
        })
        assert result["best"] == "direct"
        assert result["scores"]["direct"]["simulated"]

    def test_select_fastest_unknown_host_is_404(self, client):
        with pytest.raises(NotFound, match="ghost-1"):
            client.select_fastest("star", {
                "direct": [("star-1", "star-2", 1e9)],
                "ghostly": [("star-1", "ghost-1", 1e9)],
            })

    def test_client_sends_sizes_exactly(self, pilgrim, client):
        # six significant digits would ask for 123457000 bytes
        transfers = [("star-1", "star-3", 123456789.0),
                     ("star-2", "star-3", 1e9)]
        exact = [f.to_json() for f in
                 pilgrim.forecast.predict_transfers("star", transfers)]
        assert client.predict_transfers("star", transfers) == exact
        score = client.select_fastest("star", {"h": transfers})["scores"]["h"]
        assert score["durations"] == [f["duration"] for f in exact]

    @pytest.mark.parametrize("horizon", [2.5, True])
    def test_what_if_body_horizon_must_be_an_integer(self, client, horizon):
        with pytest.raises(BadRequest, match="positive integer"):
            client.what_if("star", [("star-1", "star-2", 1e8)], [],
                           horizon=horizon)

    @pytest.mark.parametrize("horizon", [3, "3"])
    def test_what_if_body_horizon_accepts_integers(self, client, horizon):
        answer = client.what_if("star", [("star-1", "star-2", 1e8)], [],
                                horizon=horizon)
        assert answer["horizon"] == 3

    def test_concurrent_requests(self, client):
        import threading

        results = []

        def worker():
            results.append(
                client.predict_transfers("star", [("star-1", "star-2", 1e8)])
            )

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8
        durations = {round(r[0]["duration"], 9) for r in results}
        assert len(durations) == 1  # all identical, no cross-request state
