"""Command-line interface."""

import inspect
import io
import json

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestInformational:
    def test_version(self):
        code, text = run_cli("version")
        assert code == 0
        assert "repro 1" in text

    def test_figures_listing(self):
        code, text = run_cli("figures")
        assert code == 0
        for fig in ("fig3", "fig9", "fig11"):
            assert fig in text

    def test_platforms(self):
        code, text = run_cli("platforms")
        assert code == 0
        assert "g5k_test: 463 hosts" in text
        assert "g5k_cabinets" in text

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("teleport")


class TestPredict:
    def test_paper_example(self):
        code, text = run_cli(
            "predict", "--platform", "g5k_test",
            "--transfer",
            "capricorne-36.lyon.grid5000.fr,griffon-50.nancy.grid5000.fr,5e8",
            "--transfer",
            "capricorne-36.lyon.grid5000.fr,capricorne-1.lyon.grid5000.fr,5e8",
        )
        assert code == 0
        answers = json.loads(text)
        assert len(answers) == 2
        assert {"src", "dst", "size", "duration"} == set(answers[0])

    def test_model_selection_changes_result(self):
        transfer = ("sagittaire-1.lyon.grid5000.fr,"
                    "sagittaire-2.lyon.grid5000.fr,1e9")
        _, lv08 = run_cli("predict", "--transfer", transfer)
        _, cm02 = run_cli("predict", "--transfer", transfer, "--model", "CM02")
        assert (json.loads(lv08)[0]["duration"]
                > json.loads(cm02)[0]["duration"])

    def test_ongoing_option(self):
        transfer = ("graphene-1.nancy.grid5000.fr,"
                    "graphene-2.nancy.grid5000.fr,1e9")
        ongoing = ("graphene-3.nancy.grid5000.fr,"
                   "graphene-2.nancy.grid5000.fr,1e9")
        _, alone = run_cli("predict", "--transfer", transfer)
        _, busy = run_cli("predict", "--transfer", transfer,
                          "--ongoing", ongoing)
        assert (json.loads(busy)[0]["duration"]
                > 1.4 * json.loads(alone)[0]["duration"])

    def test_transfer_required(self):
        with pytest.raises(SystemExit):
            run_cli("predict")

    def test_full_resolve_flag_matches_default(self):
        transfer = ("sagittaire-1.lyon.grid5000.fr,"
                    "sagittaire-2.lyon.grid5000.fr,1e9")
        code_inc, inc = run_cli("predict", "--transfer", transfer)
        code_full, full = run_cli("predict", "--transfer", transfer,
                                  "--full-resolve")
        assert code_inc == code_full == 0
        assert (json.loads(full)[0]["duration"]
                == pytest.approx(json.loads(inc)[0]["duration"], rel=1e-9))


class TestSolverIsNotSelectable:
    TRANSFER = "sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e9"

    @pytest.mark.parametrize("argv", [
        ("predict", "--transfer", TRANSFER),
        ("what-if", "--transfer", TRANSFER),
        ("scenarios", "run", "star-incast"),
        ("metrology", "replay", "--input", "trace.json"),
    ], ids=["predict", "what-if", "scenarios-run", "metrology-replay"])
    def test_scalar_solve_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, "--scalar-solve")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --scalar-solve" in capsys.readouterr().err

    def test_no_entry_point_takes_a_solver_choice(self):
        # which solver runs is maxmin.py's business alone, and full_resolve
        # stops at the layers a caller sets it on: a keyword forwarded "just
        # in case" is how both once reached thirteen files
        from repro.core.forecast import NetworkForecastService
        from repro.core.planner import TransferPlanner
        from repro.horizon.whatif import run_what_if
        from repro.scenarios.runner import run_scenario
        from repro.serving.batcher import PendingRequest, RequestCoalescer
        from repro.serving.cache import forecast_cache_key
        from repro.serving.pool import WarmWorkerPool
        from repro.serving.service import ForecastServingService
        from repro.simgrid.engine import Simulation
        from repro.simgrid.maxmin import SharingSystem
        from repro.surrogate.tier import SurrogateTier

        kernel_mode_stops_above = [
            NetworkForecastService.predict_transfers_many,
            TransferPlanner.select_fastest,
            ForecastServingService.predict,
            ForecastServingService._execute_group,
            PendingRequest, RequestCoalescer.submit,
            WarmWorkerPool.predict_many, forecast_cache_key,
            SurrogateTier.try_answer,
        ]
        full_resolve_stays = [
            Simulation, run_scenario, run_what_if,
            NetworkForecastService.predict_transfers,
            NetworkForecastService.predict_transfers_at,
            NetworkForecastService.predict_what_if,
        ]
        solver = [SharingSystem, SharingSystem.solve, SharingSystem.solve_raw]

        def parameters(entry):
            return set(inspect.signature(entry).parameters)

        for entry in solver + full_resolve_stays + kernel_mode_stops_above:
            assert "vectorized" not in parameters(entry), entry
        for entry in kernel_mode_stops_above:
            assert "full_resolve" not in parameters(entry), entry
        for entry in full_resolve_stays:
            assert "full_resolve" in parameters(entry), entry


class TestExperiment:
    def test_runs_reduced_figure(self):
        code, text = run_cli(
            "experiment", "--figure", "fig7", "--reps", "1",
            "--sizes", "1e5,2.15e8,1e10",
        )
        assert code == 0
        assert "shape checks: PASS" in text
        assert "graphene" in text

    def test_unknown_figure(self):
        code, text = run_cli("experiment", "--figure", "fig99")
        assert code == 2
        assert "unknown figure" in text


class TestScenarios:
    def test_list_shows_every_preset_and_family(self):
        from repro.scenarios import DEFAULT_REGISTRY

        code, text = run_cli("scenarios", "list")
        assert code == 0
        for spec in DEFAULT_REGISTRY:
            assert spec.name in text
        for family in ("star", "dumbbell", "grid", "fat_tree", "torus",
                       "dragonfly"):
            assert family in text

    @pytest.mark.parametrize("preset", [
        "star-incast", "dumbbell-congestion", "grid-shuffle",
        "fat-tree-shuffle", "torus-neighbors", "dragonfly-random",
    ])
    def test_run_works_for_presets_across_families(self, preset):
        # acceptance: `repro scenarios run <preset>` for >= 6 presets
        # spanning >= 5 topology families
        code, text = run_cli("scenarios", "run", preset)
        assert code == 0
        assert "makespan" in text

    def test_run_json_round_trips(self):
        code, text = run_cli("scenarios", "run", "star-flash-crowd", "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["name"] == "star-flash-crowd"
        assert doc["summary"]["n_transfers"] == 32

    def test_run_seed_override_changes_random_draws(self):
        _, a = run_cli("scenarios", "run", "dragonfly-random", "--json")
        _, b = run_cli("scenarios", "run", "dragonfly-random", "--json",
                       "--seed", "123")
        pairs = lambda text: [(t["src"], t["dst"])
                              for t in json.loads(text)["transfers"]]
        assert pairs(a) != pairs(b)

    def test_full_resolve_matches_incremental(self):
        _, inc = run_cli("scenarios", "run", "torus-neighbors", "--json")
        _, full = run_cli("scenarios", "run", "torus-neighbors", "--json",
                          "--full-resolve")
        inc_doc, full_doc = json.loads(inc), json.loads(full)
        assert inc_doc["makespans"] == pytest.approx(full_doc["makespans"],
                                                     rel=1e-9)

    def test_unknown_preset(self):
        code, text = run_cli("scenarios", "run", "warp-core")
        assert code == 2
        assert "unknown scenario" in text

    def test_model_override_changes_run(self):
        code, lv08 = run_cli("scenarios", "run", "star-incast", "--json")
        assert code == 0
        code, fluid = run_cli("scenarios", "run", "star-incast", "--json",
                              "--model", "tcp_fluid")
        assert code == 0
        assert (json.loads(lv08)["makespans"]
                != json.loads(fluid)["makespans"])

    def test_unknown_model_rejected(self):
        code, text = run_cli("scenarios", "run", "star-incast",
                             "--model", "udp_teleport")
        assert code == 2
        assert "udp_teleport" in text


class TestModels:
    def test_list_shows_every_registered_model(self):
        from repro.simgrid.models import model_names

        code, text = run_cli("models", "list")
        assert code == 0
        for name in model_names():
            assert name in text
        assert "time-varying" in text  # tcp_fluid's weights column
        assert "static" in text

    def test_predict_rejects_unknown_model(self):
        code, text = run_cli(
            "predict", "--transfer",
            "sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e8",
            "--model", "nope")
        assert code == 2
        assert "nope" in text and "LV08" in text

    def test_predict_accepts_registered_model_with_params(self):
        transfer = ("sagittaire-1.lyon.grid5000.fr,"
                    "sagittaire-2.lyon.grid5000.fr,1e8")
        code, fluid = run_cli("predict", "--transfer", transfer,
                              "--model", "tcp_fluid")
        assert code == 0
        code, lv08 = run_cli("predict", "--transfer", transfer)
        assert code == 0
        assert (json.loads(fluid)[0]["duration"]
                != json.loads(lv08)[0]["duration"])


class TestMetrology:
    def test_record_emits_trace_document(self):
        code, text = run_cli("metrology", "record", "--hosts", "2",
                             "--steps", "4", "--warmup", "2")
        assert code == 0
        doc = json.loads(text)
        assert doc["format"] == 1
        assert doc["topology"] == {"family": "star",
                                   "params": {"n_hosts": 2}}
        assert len(doc["traces"]) == 2
        for trace in doc["traces"]:
            assert trace["metric"] == "bandwidth"
            assert len(trace["samples"]) == 6  # warmup + steps polls

    def test_record_then_replay_round_trip(self, tmp_path):
        path = tmp_path / "traces.json"
        code, text = run_cli("metrology", "record", "--hosts", "2",
                             "--steps", "5", "--warmup", "2",
                             "--output", str(path))
        assert code == 0
        assert "recorded 2 link traces" in text
        code, text = run_cli("metrology", "replay", "--input", str(path),
                             "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["name"] == "measured-replay"
        # every recorded sample of every link replays as a mutation
        assert doc["summary"]["events_applied"] == 2 * 7
        assert all(e["action"] == "measured" for e in doc["events"])

    def test_replay_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99, "traces": []}))
        code, text = run_cli("metrology", "replay", "--input", str(path))
        assert code == 2
        assert "unsupported trace document format" in text

    def test_run_beats_static_baseline(self):
        # acceptance: the live loop's recalibrated forecasts beat the
        # static platform on the degrading-link demo
        code, text = run_cli("metrology", "run", "--hosts", "3",
                             "--steps", "6", "--warmup", "2")
        assert code == 0
        assert "recalibration beats the static baseline" in text
        assert "updates applied" in text


class TestWhatIf:
    HOSTS = ("chti-1.lille.grid5000.fr", "chti-2.lille.grid5000.fr")
    LINK = "chti-1.lille.grid5000.fr-link"

    def test_degrading_event_slows_the_transfer(self):
        transfer = f"{self.HOSTS[0]},{self.HOSTS[1]},5e8"
        _, plain = run_cli("predict", "--platform", "g5k_test",
                           "--transfer", transfer)
        code, text = run_cli(
            "what-if", "--platform", "g5k_test", "--transfer", transfer,
            "--event", f"0.5,{self.LINK},degrade,0.25",
        )
        assert code == 0
        result = json.loads(text)
        assert len(result["applied"]) == 1
        assert result["forecasts"][0]["duration"] > \
            json.loads(plain)[0]["duration"]

    def test_horizon_with_observations_yields_intervals(self):
        series = ",".join(["6e8", "5e8"] * 5)  # noisy, below nominal 1 Gbps
        code, text = run_cli(
            "what-if", "--platform", "g5k_test",
            "--transfer", f"{self.HOSTS[0]},{self.HOSTS[1]},5e8",
            "--event", f"0.5,{self.LINK},degrade,0.5",
            "--horizon", "3",
            "--observe", f"{self.LINK}={series}",
        )
        assert code == 0
        result = json.loads(text)
        assert result["horizon"] == 3
        forecast = result["forecasts"][0]
        assert forecast["lower"] <= forecast["duration"] <= forecast["upper"]

    def test_bad_event_rejected(self):
        code, text = run_cli(
            "what-if", "--platform", "g5k_test",
            "--transfer", f"{self.HOSTS[0]},{self.HOSTS[1]},5e8",
            "--event", "0.5,missing-fields",
        )
        assert code == 2
        assert "event" in text

    def test_unmatched_event_link_rejected(self):
        code, _ = run_cli(
            "what-if", "--platform", "g5k_test",
            "--transfer", f"{self.HOSTS[0]},{self.HOSTS[1]},5e8",
            "--event", "0.5,no-such-link,fail",
        )
        assert code == 2
