"""PNFS service logic."""

import pytest

from repro.core.forecast import (
    NetworkForecastService,
    TransferForecast,
    TransferSpec,
)
from repro.core.rest.errors import BadRequest, NotFound
from repro.experiments.figures import FIGURES
from repro.experiments.protocol import draw_transfer_pairs
from repro.simgrid.builder import build_star_cluster
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02
from repro.simgrid.msg import transfer_processes


class TestTransferSpec:
    def test_size_parses_units(self):
        assert TransferSpec("a", "b", "500MB").size == pytest.approx(5e8)
        assert TransferSpec("a", "b", "5e8").size == pytest.approx(5e8)
        assert TransferSpec("a", "b", 5e8).size == pytest.approx(5e8)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            TransferSpec("a", "b", 0)

    @pytest.mark.parametrize("size", [float("nan"), float("inf"), "1e400"])
    def test_rejects_non_finite_size(self, size):
        # a NaN size used to simulate (0.0026 s) and an infinite one to
        # answer a null duration: no number is the right answer to either
        with pytest.raises(ValueError, match="finite"):
            TransferSpec("a", "b", size)

    def test_parse_rejects_a_size_that_overflows(self):
        with pytest.raises(BadRequest, match="finite"):
            TransferSpec.parse("a,b,1e400")

    def test_rejects_empty_endpoints(self):
        with pytest.raises(ValueError):
            TransferSpec("", "b", 1)

    def test_parse_query_form(self):
        spec = TransferSpec.parse(
            "capricorne-36.lyon.grid5000.fr,griffon-50.nancy.grid5000.fr,5e8"
        )
        assert spec.src == "capricorne-36.lyon.grid5000.fr"
        assert spec.size == 5e8

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(BadRequest):
            TransferSpec.parse("a,b")
        with pytest.raises(BadRequest):
            TransferSpec.parse("a,b,1,extra")

    def test_parse_rejects_bad_size(self):
        with pytest.raises(BadRequest):
            TransferSpec.parse("a,b,-5")


class TestService:
    def make(self):
        service = NetworkForecastService(model=CM02())
        service.register_platform("star", build_star_cluster("star", 4))
        return service

    def test_predicts_answer_4uples(self):
        service = self.make()
        forecasts = service.predict_transfers(
            "star", [TransferSpec("star-1", "star-2", 1e9)]
        )
        fc = forecasts[0]
        assert isinstance(fc, TransferForecast)
        assert fc.duration == pytest.approx(2e-4 + 8.0, rel=1e-3)
        assert fc.to_json() == {
            "src": "star-1", "dst": "star-2", "size": 1e9,
            "duration": pytest.approx(fc.duration),
        }

    def test_accepts_plain_tuples(self):
        service = self.make()
        forecasts = service.predict_transfers("star", [("star-1", "star-2", 1e6)])
        assert forecasts[0].size == 1e6

    def test_concurrent_transfers_interact(self):
        service = self.make()
        alone = service.predict_transfers(
            "star", [("star-1", "star-3", 1e9)]
        )[0].duration
        shared = service.predict_transfers(
            "star", [("star-1", "star-3", 1e9), ("star-2", "star-3", 1e9)]
        )
        for fc in shared:
            assert fc.duration > 1.8 * alone

    def test_fresh_simulation_per_request(self):
        # two identical requests give identical answers (no state leak)
        service = self.make()
        transfers = [("star-1", "star-3", 1e9), ("star-2", "star-3", 1e9)]
        first = [f.duration for f in service.predict_transfers("star", transfers)]
        second = [f.duration for f in service.predict_transfers("star", transfers)]
        assert first == second

    def test_unknown_platform_404(self):
        service = self.make()
        with pytest.raises(NotFound):
            service.predict_transfers("mars", [("a", "b", 1)])

    def test_unknown_host_404(self):
        service = self.make()
        with pytest.raises(NotFound, match="ghost"):
            service.predict_transfers("star", [("ghost", "star-1", 1e6)])

    def test_empty_request_rejected(self):
        service = self.make()
        with pytest.raises(BadRequest):
            service.predict_transfers("star", [])

    def test_per_request_model_override(self):
        from repro.simgrid.models import LV08

        service = self.make()
        cm02 = service.predict_transfers("star", [("star-1", "star-2", 1e9)])
        lv08 = service.predict_transfers("star", [("star-1", "star-2", 1e9)],
                                         model=LV08())
        assert lv08[0].duration > cm02[0].duration  # 0.97 bandwidth factor

    def test_platform_names_sorted(self):
        service = self.make()
        service.register_platform("alpha", build_star_cluster("a", 2))
        assert service.platform_names() == ["alpha", "star"]


class TestPredictMany:
    """Batch (backtest) requests, serial and process-parallel."""

    REQUESTS = [
        [("sagittaire-1.lyon.grid5000.fr", "sagittaire-2.lyon.grid5000.fr", 1e9)],
        [("graphene-1.nancy.grid5000.fr", "graphene-2.nancy.grid5000.fr", 5e8),
         ("graphene-3.nancy.grid5000.fr", "graphene-4.nancy.grid5000.fr", 5e8)],
        [("sagittaire-3.lyon.grid5000.fr", "graphene-2.nancy.grid5000.fr", 1e8)],
    ]

    def test_serial_batch_matches_individual_calls(self, forecast_service):
        batch = forecast_service.predict_transfers_many("g5k_test", self.REQUESTS)
        individual = [
            forecast_service.predict_transfers("g5k_test", transfers)
            for transfers in self.REQUESTS
        ]
        assert batch == individual

    def test_parallel_batch_matches_serial(self, forecast_service):
        from repro.experiments.environment import forecast_service as factory

        serial = forecast_service.predict_transfers_many("g5k_test", self.REQUESTS)
        parallel = forecast_service.predict_transfers_many(
            "g5k_test", self.REQUESTS, workers=2, service_factory=factory)
        assert parallel == serial

    def test_parallel_preserves_custom_model_parameters(self, forecast_service):
        import dataclasses

        from repro.experiments.environment import forecast_service as factory
        from repro.simgrid.models import model_by_name

        half = dataclasses.replace(model_by_name("LV08"), bandwidth_factor=0.5)
        serial = forecast_service.predict_transfers_many(
            "g5k_test", self.REQUESTS, model=half)
        parallel = forecast_service.predict_transfers_many(
            "g5k_test", self.REQUESTS, model=half, workers=2,
            service_factory=factory)
        assert parallel == serial

    def test_parallel_without_factory_rejected(self, forecast_service):
        with pytest.raises(ValueError, match="service_factory"):
            forecast_service.predict_transfers_many(
                "g5k_test", self.REQUESTS, workers=2)

    def test_single_request_stays_serial(self, forecast_service):
        # workers>1 with one request short-circuits (no factory required)
        answers = forecast_service.predict_transfers_many(
            "g5k_test", self.REQUESTS[:1], workers=4)
        assert len(answers) == 1


class TestAnswersFromTheComms:
    """``predict_transfers`` reads its answer straight off the comms that
    ``simulate_transfers`` returns; ``transfer_processes`` (what-if's record
    form) must say the same, field for field."""

    @pytest.mark.parametrize("figure", ["fig5", "fig9"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equals_the_transfer_process_records(self, forecast_service,
                                                 figure, seed):
        pairs = draw_transfer_pairs(FIGURES[figure].spec, seed)
        transfers = [(src, dst, 1e5 * 7 ** (i % 5))
                     for i, (src, dst) in enumerate(pairs)]
        answer = forecast_service.predict_transfers("g5k_test", transfers)
        records = transfer_processes(
            Simulation(forecast_service.platform("g5k_test"),
                       forecast_service.model), transfers)
        assert [(f.src, f.dst, f.size, f.duration) for f in answer] == [
            (r["src"], r["dst"], r["size"], r["duration"]) for r in records]

    def test_with_ongoing_transfers(self, forecast_service):
        pairs = draw_transfer_pairs(FIGURES["fig9"].spec, 3)
        transfers = [(src, dst, 5e8) for src, dst in pairs[:20]]
        ongoing = [(src, dst, 2e8) for src, dst in pairs[20:30]]
        answer = forecast_service.predict_transfers(
            "g5k_test", transfers, ongoing=ongoing)
        sim = Simulation(forecast_service.platform("g5k_test"),
                         forecast_service.model)
        for src, dst, size in ongoing:
            sim.add_comm(src, dst, size)
        records = transfer_processes(sim, transfers)
        assert [f.duration for f in answer] == [r["duration"] for r in records]
        assert answer != forecast_service.predict_transfers("g5k_test", transfers)
