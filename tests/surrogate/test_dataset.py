"""Sweep and dataset invariants: determinism, parallel ≡ serial, JSON."""

from __future__ import annotations

import numpy as np
import pytest

from repro.surrogate.dataset import (
    SurrogateDataset,
    SurrogateSweep,
    SweepSample,
    run_sample,
    run_sweep,
)

SMALL = SurrogateSweep(
    samples=6, seed=11,
    topologies=(("star", {"n_hosts": 6}), ("dumbbell", {})),
    sizes=(1e6, 5e7),
)


@pytest.fixture(scope="module")
def dataset() -> SurrogateDataset:
    return run_sweep(SMALL)


class TestSweepSampling:
    def test_sampling_is_deterministic_in_the_seed(self):
        assert SMALL.sample_specs() == SMALL.sample_specs()

    def test_different_seeds_draw_different_sweeps(self):
        other = SurrogateSweep(samples=6, seed=12,
                               topologies=SMALL.topologies,
                               sizes=SMALL.sizes)
        assert SMALL.sample_specs() != other.sample_specs()

    def test_samples_round_trip_through_json(self):
        for sample in SMALL.sample_specs():
            assert SweepSample.from_json(sample.to_json()) == sample

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            SurrogateSweep(samples=0)
        with pytest.raises(ValueError):
            SurrogateSweep(degrade_probability=1.5)

    def test_degraded_samples_carry_link_factors(self):
        always = SurrogateSweep(samples=8, seed=1,
                                topologies=(("star", {"n_hosts": 6}),),
                                degrade_probability=1.0)
        assert all(s.link_factors for s in always.sample_specs())
        never = SurrogateSweep(samples=8, seed=1,
                               topologies=(("star", {"n_hosts": 6}),),
                               degrade_probability=0.0)
        assert all(not s.link_factors for s in never.sample_specs())


class TestRunSweep:
    def test_features_and_targets_are_finite_and_aligned(self, dataset):
        assert len(dataset) > 0
        assert np.isfinite(dataset.features).all()
        assert np.isfinite(dataset.targets).all()
        assert len(dataset.features) == len(dataset.targets) \
            == len(dataset.sample_index)
        assert set(dataset.sample_index) == set(range(len(dataset.samples)))

    def test_rerun_is_bit_identical(self, dataset):
        assert run_sweep(SMALL) == dataset

    def test_link_factors_change_the_targets(self):
        base = SweepSample(SMALL.sample_specs()[0].spec)
        degraded = SweepSample(base.spec, link_factors=(("*", 0.4),))
        _, targets = run_sample(base)
        _, degraded_targets = run_sample(degraded)
        assert (degraded_targets > targets).all()

    def test_invalid_link_factor_is_rejected(self):
        bad = SweepSample(SMALL.sample_specs()[0].spec,
                          link_factors=(("*", 1.5),))
        with pytest.raises(ValueError, match="link factor"):
            run_sample(bad)


class TestDatasetContainer:
    def test_json_round_trip_is_equal(self, dataset):
        assert SurrogateDataset.from_json(dataset.to_json()) == dataset

    def test_split_by_sample_is_disjoint_and_complete(self, dataset):
        train, hold = dataset.split_by_sample(0.3, seed=4)
        assert len(train) + len(hold) == len(dataset)
        assert not set(train.sample_index) & set(hold.sample_index)
        assert len(hold) > 0 and len(train) > 0

    def test_split_rejects_degenerate_fractions(self, dataset):
        with pytest.raises(ValueError):
            dataset.split_by_sample(0.0)
        with pytest.raises(ValueError):
            dataset.split_by_sample(0.999)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="features"):
            SurrogateDataset(features=np.zeros((2, 3)),
                             targets=np.zeros(2),
                             sample_index=np.zeros(2, dtype=int))
