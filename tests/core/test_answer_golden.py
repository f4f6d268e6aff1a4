"""The paper's answer, byte for byte.

Frozen parts, all drawn the way ``perf/workloads.py`` draws its requests
(seed 20120917, ``derive_seed(seed, "perf", label, i)``, the 10-point size
sweep cycled):

- the response bodies ``Pilgrim.serve()`` gives to the 16 ``fig5`` GET
  targets of ``rest_fig5_closed``;
- ``float.hex`` of every duration of 8 ``fig9`` (LV08) and 8 ``fig5``
  (``tcp_fluid``) ``predict_transfers`` answers;
- the sharing arena's ``solves`` / ``components_solved`` /
  ``variables_resolved`` for those 16 ``fig5`` and 8 ``fig9`` draws (LV08),
  started both ways the perf ladder times: ``simulate_transfers``, and one
  ``add_comm`` per transfer then ``run()``;
- the response bodies of every other forecast route, on a service whose
  horizon forecasters have seen a noisy series on two links: POST
  ``predict_transfers`` bodies with ``ongoing`` transfers, the four
  ``gateway_recal_mix`` ``fig7`` what-if bodies (cold, and with ``horizon``
  on the warm links, so intervals are present), a GET ``horizon=3`` answer
  with intervals and two ``select_fastest`` answers (one of them pruned);
- ``float.hex`` of ``WarmWorkerPool.answer_many`` on two workers.

Any change to decoding, the engine or encoding that moves one byte, one ulp
or one solve fails here.  To regenerate after an *intentional* change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \\
        tests/core/test_answer_golden.py
"""

from __future__ import annotations

import json
import os
import urllib.parse
from pathlib import Path

import pytest

from repro._util.rng import derive_seed
from repro.core.forecast import ForecastQuery, NetworkForecastService
from repro.core.framework import Pilgrim
from repro.experiments import environment
from repro.experiments.figures import FIGURES
from repro.experiments.protocol import TRANSFER_SIZES, draw_transfer_pairs
from repro.g5k.converter import to_simgrid_platform
from repro.g5k.sites import grid5000_dev_reference
from repro.scenarios.spec import LinkEvent
from repro.serving.pool import WarmWorkerPool
from repro.simgrid.engine import Simulation
from repro.simgrid.models import LV08, model_by_name
from serving_helpers import RawHttp

GOLDEN_PATH = Path(__file__).parent / "goldens" / "paper_answers.json"
SEED = 20120917
PLATFORM = "g5k_test"
#: (golden key, figure, draw label, model name): the in-process answers
KERNEL_CASES = (("fig9_lv08", "fig9", "kernel_fig9_inproc", "LV08"),
                ("fig5_tcp_fluid", "fig5", "kernel_tcpfluid_inproc",
                 "tcp_fluid"))
N_GET = 16
N_KERNEL = 8
#: (golden key, figure, draw label, draws): the sharing-count draws
COUNT_CASES = (("fig5", "fig5", "rest_fig5_closed", N_GET),
               ("fig9", "fig9", "kernel_fig9_inproc", N_KERNEL))
COUNTED = ("solves", "components_solved", "variables_resolved")
#: the ``gateway_recal_mix`` what-if target (a graphene uplink)
WHATIF_LINK = "sgraphene1-uplink"
N_WHATIF = 4
N_POST = 4
N_MANY = 4
HORIZON = 3
#: (golden key, hypotheses): two candidates close enough that both are
#: simulated, and a cross-site 10 GB candidate its static bound prunes
SELECT_CASES = (
    ("both_simulated", (
        "funnel:sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,"
        "1e9;sagittaire-3.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e9",
        "spread:sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,"
        "1e9;sagittaire-3.lyon.grid5000.fr,sagittaire-4.lyon.grid5000.fr,1e9")),
    ("one_pruned", (
        "near:sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e8",
        "far:sagittaire-1.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,1e10")),
)


def sharing_counts(platform, transfers) -> dict:
    """The arena counters of one draw, started in bulk and one by one."""
    bulk = Simulation(platform, LV08())
    bulk.simulate_transfers(list(transfers))
    one_by_one = Simulation(platform, LV08())
    for src, dst, size in transfers:
        one_by_one.add_comm(src, dst, size)
    one_by_one.run()
    return {form: [sim.sharing_stats[name] for name in COUNTED]
            for form, sim in (("bulk", bulk), ("add_comm", one_by_one))}


def figure_transfers(fig: str, label: str, count: int) -> list[list[tuple]]:
    spec = FIGURES[fig].spec
    draws = []
    for i in range(count):
        pairs = draw_transfer_pairs(spec, derive_seed(SEED, "perf", label, i))
        size = TRANSFER_SIZES[i % len(TRANSFER_SIZES)]
        draws.append([(src, dst, size) for src, dst in pairs])
    return draws


def get_target(transfers, extra=()) -> str:
    query = urllib.parse.urlencode(
        [("transfer", f"{s},{d},{z!r}") for s, d, z in transfers]
        + list(extra))
    return f"/pilgrim/predict_transfers/{PLATFORM}?{query}"


def exchange(conn, method: str, target: str, doc=None) -> str:
    """One request on a keep-alive connection; the 200 body as text."""
    body = None if doc is None else json.dumps(doc).encode("utf-8")
    status, answer = conn.exchange(method, target, body)
    text = answer.decode("utf-8")
    assert status == 200, text
    return text


def route_bodies(platform) -> dict:
    """Every other forecast route's answer on a warm-horizon service."""
    pilgrim = Pilgrim(platforms={PLATFORM: platform})
    service = pilgrim.forecast
    get_draw = figure_transfers("fig5", "golden_horizon", 1)[0]
    # a noisy, derated series on the what-if link and on the GET draw's
    # first source link: both horizon forecasters are warm
    for link in (WHATIF_LINK, f"{get_draw[0][0]}-link"):
        nominal = platform.link(link).bandwidth
        for i in range(12):
            service.observe_link(PLATFORM, link,
                                 nominal * (0.45 + 0.01 * (i % 5)))
    whatifs = []
    for i, transfers in enumerate(figure_transfers("fig7", "whatif",
                                                   N_WHATIF)):
        event = LinkEvent(time=1.0 + i, link=WHATIF_LINK, action="degrade",
                          factor=0.5)
        whatifs.append({"transfers": [list(t) for t in transfers],
                        "events": [event.to_json()]})
    posts = []
    for i, draw in enumerate(figure_transfers("fig5", "golden_ongoing",
                                              N_POST)):
        doc = {"transfers": [list(t) for t in draw[:20]],
               "ongoing": [[s, d, z / 2] for s, d, z in draw[20:]]}
        if i % 2:
            doc["model"] = "CM02"
        posts.append(doc)
    bodies: dict = {}
    with pilgrim.serve() as server, \
            RawHttp(server.address, timeout=30.0) as conn:
        predict = f"/pilgrim/predict_transfers/{PLATFORM}"
        bodies["post_ongoing"] = [exchange(conn, "POST", predict, doc)
                                  for doc in posts]
        what_if = f"/pilgrim/what_if/{PLATFORM}"
        bodies["what_if_cold"] = [exchange(conn, "POST", what_if, doc)
                                  for doc in whatifs]
        bodies["what_if_horizon"] = [
            exchange(conn, "POST", what_if, {**doc, "horizon": HORIZON})
            for doc in whatifs]
        bodies["get_horizon"] = exchange(
            conn, "GET", get_target(get_draw, [("horizon", HORIZON)]))
        bodies["select_fastest"] = {
            key: exchange(conn, "GET", (
                f"/pilgrim/select_fastest/{PLATFORM}?"
                + urllib.parse.urlencode(
                    [("hypothesis", h) for h in hypotheses])))
            for key, hypotheses in SELECT_CASES}
    return bodies


def predict_many_durations() -> list[list[str]]:
    """``WarmWorkerPool.answer_many`` over two worker processes."""
    queries = [ForecastQuery.of(PLATFORM, transfers)
               for transfers in figure_transfers("fig5", "golden_many", N_MANY)]
    with WarmWorkerPool(environment.forecast_service, workers=2) as pool:
        answers = pool.answer_many(queries)
    return [[f.duration.hex() for f in answer] for answer in answers]


@pytest.fixture(scope="module")
def platform():
    return to_simgrid_platform(grid5000_dev_reference(), PLATFORM)


@pytest.fixture(scope="module")
def computed(platform) -> dict:
    pilgrim = Pilgrim(platforms={PLATFORM: platform})
    bodies = []
    with pilgrim.serve() as server, \
            RawHttp(server.address, timeout=30.0) as conn:
        for transfers in figure_transfers("fig5", "rest_fig5_closed", N_GET):
            bodies.append(exchange(conn, "GET", get_target(transfers)))
    durations = {}
    for key, fig, label, model in KERNEL_CASES:
        service = NetworkForecastService({PLATFORM: platform},
                                         model=model_by_name(model))
        durations[key] = [
            [f.duration.hex()
             for f in service.predict_transfers(PLATFORM, transfers)]
            for transfers in figure_transfers(fig, label, N_KERNEL)]
    counts = {}
    for key, fig, label, count in COUNT_CASES:
        counts[key] = [sharing_counts(platform, transfers)
                       for transfers in figure_transfers(fig, label, count)]
    fresh = {"_meta": {"seed": SEED}, "get_bodies": bodies,
             "durations": durations, "sharing_counts": counts,
             "route_bodies": route_bodies(platform),
             "predict_many": predict_many_durations()}
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(fresh, indent=1) + "\n",
                               encoding="utf-8")
    return fresh


@pytest.fixture(scope="module")
def stored() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_get_bodies_are_byte_identical(computed, stored):
    assert len(stored["get_bodies"]) == N_GET
    for i, (fresh, frozen) in enumerate(zip(computed["get_bodies"],
                                            stored["get_bodies"])):
        assert fresh == frozen, f"fig5 GET {i}: response body moved"


@pytest.mark.parametrize("key", [case[0] for case in KERNEL_CASES])
def test_durations_are_bit_identical(computed, stored, key):
    assert len(stored["durations"][key]) == N_KERNEL
    assert computed["durations"][key] == stored["durations"][key]


@pytest.mark.parametrize("key", [case[0] for case in COUNT_CASES])
def test_sharing_counts_are_unchanged(computed, stored, key):
    assert computed["sharing_counts"][key] == stored["sharing_counts"][key]


@pytest.mark.parametrize("key", ["post_ongoing", "what_if_cold",
                                 "what_if_horizon", "get_horizon",
                                 "select_fastest"])
def test_route_bodies_are_byte_identical(computed, stored, key):
    assert computed["route_bodies"][key] == stored["route_bodies"][key]


def test_route_golden_covers_intervals_and_pruning(stored):
    bodies = stored["route_bodies"]
    assert len(bodies["post_ongoing"]) == N_POST
    assert len(bodies["what_if_cold"]) == len(bodies["what_if_horizon"]) \
        == N_WHATIF
    for cold, warm in zip(bodies["what_if_cold"], bodies["what_if_horizon"]):
        cold, warm = json.loads(cold), json.loads(warm)
        assert cold["applied"] and "horizon" not in cold
        assert all("lower" not in f for f in cold["forecasts"])
        assert warm["horizon"] == HORIZON
        assert all(f["lower"] <= f["duration"] <= f["upper"]
                   for f in warm["forecasts"])
    assert all(f["lower"] <= f["duration"] <= f["upper"]
               for f in json.loads(bodies["get_horizon"]))
    both = json.loads(bodies["select_fastest"]["both_simulated"])
    pruned = json.loads(bodies["select_fastest"]["one_pruned"])
    assert all(s["simulated"] for s in both["scores"].values())
    assert pruned["best"] == "near"
    assert not pruned["scores"]["far"]["simulated"]


def test_predict_many_is_bit_identical(computed, stored):
    assert len(stored["predict_many"]) == N_MANY
    assert computed["predict_many"] == stored["predict_many"]


def test_golden_metadata(stored):
    assert stored["_meta"] == {"seed": SEED}
