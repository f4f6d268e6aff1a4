"""The full campaign: its combinations and the one loop that runs them."""

import pytest

from repro._util.rng import derive_seed
from repro.experiments.campaign import (
    campaign_combinations,
    campaign_summary,
    combination_id,
    run_campaign,
    spec_for,
)
from repro.experiments.protocol import Topology
from repro.experiments.runner import run_experiment


def graphene(n_srcs, n_dsts):
    return [{"topology": Topology.CLUSTER, "cluster": "graphene",
             "n_src": n_src, "n_dst": n_dst}
            for n_src in n_srcs for n_dst in n_dsts]


def platformless_environment():
    from repro.core.forecast import NetworkForecastService
    from repro.experiments.environment import testbed

    return NetworkForecastService({}), testbed()


class TestCombinations:
    def test_infeasible_sagittaire_combinations_excluded(self):
        combos = campaign_combinations()
        for c in combos:
            if c["topology"] is Topology.CLUSTER and c["cluster"] == "sagittaire":
                assert c["n_src"] + c["n_dst"] <= 79

    def test_cluster_capacity_rules(self):
        combos = campaign_combinations()

        def pairs(cluster):
            return [
                (c["n_src"], c["n_dst"]) for c in combos
                if c["topology"] is Topology.CLUSTER and c["cluster"] == cluster
            ]

        graphene = pairs("graphene")
        assert (50, 50) in graphene        # fig9
        assert (60, 60) in graphene        # 120 endpoints fit in 144 nodes
        sagittaire = pairs("sagittaire")
        assert (30, 30) in sagittaire      # fig5
        assert (50, 50) not in sagittaire  # 100 endpoints > 79 nodes
        assert (30, 50) not in sagittaire

    def test_grid_combinations_not_duplicated_per_cluster(self):
        combos = campaign_combinations()
        grid = [c for c in combos if c["topology"] is Topology.GRID_MULTI]
        pairs = [(c["n_src"], c["n_dst"]) for c in grid]
        assert len(pairs) == len(set(pairs))

    def test_published_figures_are_in_the_campaign(self):
        combos = campaign_combinations()
        keys = {
            (c["topology"], c.get("cluster"), c["n_src"], c["n_dst"])
            for c in combos
        }
        assert (Topology.CLUSTER, "sagittaire", 1, 10) in keys      # fig3
        assert (Topology.CLUSTER, "graphene", 50, 50) in keys       # fig9
        assert (Topology.GRID_MULTI, "sagittaire", 60, 60) in keys  # fig11

    def test_spec_for_names_and_fields(self):
        spec = spec_for({"topology": Topology.CLUSTER, "cluster": "graphene",
                         "n_src": 30, "n_dst": 50})
        assert spec.name == "CLUSTER-graphene-30x50"
        assert spec.n_transfers == 50
        grid = spec_for({"topology": Topology.GRID_MULTI, "cluster": "x",
                         "n_src": 10, "n_dst": 10})
        assert grid.cluster is None

    def test_sixty_four_combinations_and_no_one_by_one(self):
        combos = campaign_combinations()
        assert len(combos) == 64
        assert not [c for c in combos if (c["n_src"], c["n_dst"]) == (1, 1)]

    def test_grid_combinations_carry_the_first_cluster(self):
        combos = campaign_combinations(counts=(1, 2),
                                       clusters=("graphene", "sagittaire"))
        assert {c["cluster"] for c in combos
                if c["topology"] is Topology.GRID_MULTI} == {"graphene"}


class TestCombinationId:
    def test_stable_and_sorted(self):
        cid = combination_id({"b": 2, "a": 1})
        assert cid == "a=1__b=2"

    def test_filesystem_safe(self):
        cid = combination_id({"topo": "GRID/MULTI", "size": "1e5 B"})
        assert "/" not in cid and " " not in cid

    def test_unique_across_the_campaign(self):
        # results are keyed by id: a collision would drop a combination
        ids = [combination_id(c) for c in campaign_combinations()]
        assert len(set(ids)) == len(ids) == 64


class TestRunCampaign:
    def test_slice_runs_and_summarizes(self, forecast_service, g5k_testbed):
        results = run_campaign(
            forecast_service, g5k_testbed, combinations=graphene((1, 2), (2,)),
            seed=3, repetitions=1, sizes=(5.99e7, 1e9),
        )
        assert len(results) == 2
        for series in results.values():
            assert series.sizes() == [5.99e7, 1e9]
        stats = campaign_summary(results)
        assert stats.n_observations == (2 + 2) * 2  # transfers x sizes...

    def test_a_combination_reruns_alone_from_its_id(
            self, forecast_service, g5k_testbed):
        # the seed is derive_seed(derive_seed(root, id), 0): neither the
        # combination's position nor its neighbours move it
        combos = graphene((1, 2), (2, 4))
        whole = run_campaign(forecast_service, g5k_testbed, combinations=combos,
                             seed=9, repetitions=1, sizes=(1e9,))
        last = combos[-1]
        cid = combination_id(last)
        alone = run_campaign(forecast_service, g5k_testbed, combinations=[last],
                             seed=9, repetitions=1, sizes=(1e9,))
        direct = run_experiment(
            spec_for(last, sizes=(1e9,), repetitions=1), forecast_service,
            g5k_testbed, seed=derive_seed(derive_seed(9, cid), 0),
            repetitions=1, sizes=(1e9,),
        )
        assert whole[cid].rows() == alone[cid].rows() == direct.rows()

    @pytest.mark.parametrize("workers", [None, 2])
    def test_no_combinations_no_results(self, forecast_service, g5k_testbed,
                                        workers):
        assert run_campaign(forecast_service, g5k_testbed, combinations=[],
                            workers=workers) == {}


class TestParallelCampaign:
    """The process pool runs the same function in the same order: its rows
    are the serial ones bit for bit (``test_campaign_golden.py``)."""

    def test_workers_run_against_the_factory_environment(
            self, forecast_service, g5k_testbed):
        # a factory whose service knows no platform: every worker-side
        # combination fails, although the arguments would have succeeded
        with pytest.raises(RuntimeError, match="g5k_test"):
            run_campaign(forecast_service, g5k_testbed,
                         combinations=graphene((1,), (2,)), seed=3,
                         repetitions=1, sizes=(1e9,), workers=2,
                         environment_factory=platformless_environment)

    def test_parallel_rejects_mismatched_custom_environment(self, g5k_testbed):
        from repro.core.forecast import NetworkForecastService

        custom = NetworkForecastService({})
        with pytest.raises(ValueError, match="environment_factory"):
            run_campaign(custom, g5k_testbed, combinations=graphene((1,), (2,)),
                         seed=3, repetitions=1, sizes=(1e9,), workers=2)


def test_failure_message_is_the_same_in_both_modes(forecast_service,
                                                  g5k_testbed):
    bad = {"topology": Topology.CLUSTER, "cluster": "no-such-cluster",
           "n_src": 1, "n_dst": 2}
    messages = []
    for workers in (None, 2):
        with pytest.raises(RuntimeError) as info:
            run_campaign(forecast_service, g5k_testbed,
                         combinations=graphene((1,), (2,)) + [bad],
                         seed=3, repetitions=1, sizes=(1e9,), workers=workers)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0] == (
        f"campaign combination {combination_id(bad)} failed: "
        "KeyError: \"unknown cluster 'no-such-cluster'\"")
