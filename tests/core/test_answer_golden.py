"""The paper's answer, byte for byte.

Two frozen parts, both drawn the way ``perf/workloads.py`` draws its
requests (seed 20120917, ``derive_seed(seed, "perf", label, i)``, the
10-point size sweep cycled):

- the response bodies ``Pilgrim.serve()`` gives to the 16 ``fig5`` GET
  targets of ``rest_fig5_closed``;
- ``float.hex`` of every duration of 8 ``fig9`` (LV08) and 8 ``fig5``
  (``tcp_fluid``) ``predict_transfers`` answers;
- the sharing arena's ``solves`` / ``components_solved`` /
  ``variables_resolved`` for those 16 ``fig5`` and 8 ``fig9`` draws (LV08),
  started both ways the perf ladder times: ``simulate_transfers``, and one
  ``add_comm`` per transfer then ``run()``.

Any change to decoding, the engine or encoding that moves one byte, one ulp
or one solve fails here.  To regenerate after an *intentional* change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \\
        tests/core/test_answer_golden.py
"""

from __future__ import annotations

import http.client
import json
import os
import urllib.parse
from pathlib import Path

import pytest

from repro._util.rng import derive_seed
from repro.core.forecast import NetworkForecastService
from repro.core.framework import Pilgrim
from repro.experiments.figures import FIGURES
from repro.experiments.protocol import TRANSFER_SIZES, draw_transfer_pairs
from repro.g5k.converter import to_simgrid_platform
from repro.g5k.sites import grid5000_dev_reference
from repro.simgrid.engine import Simulation
from repro.simgrid.models import LV08, model_by_name

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


def get_target(transfers) -> str:
    query = urllib.parse.urlencode(
        [("transfer", f"{s},{d},{z!r}") for s, d, z in transfers])
    return f"/pilgrim/predict_transfers/{PLATFORM}?{query}"


@pytest.fixture(scope="module")
def platform():
    return to_simgrid_platform(grid5000_dev_reference(), PLATFORM)


@pytest.fixture(scope="module")
def computed(platform) -> dict:
    pilgrim = Pilgrim(platforms={PLATFORM: platform})
    bodies = []
    with pilgrim.serve() as server:
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for transfers in figure_transfers("fig5", "rest_fig5_closed",
                                              N_GET):
                conn.request("GET", get_target(transfers))
                response = conn.getresponse()
                assert response.status == 200
                bodies.append(response.read().decode("utf-8"))
        finally:
            conn.close()
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
             "durations": durations, "sharing_counts": counts}
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


def test_golden_metadata(stored):
    assert stored["_meta"] == {"seed": SEED}
