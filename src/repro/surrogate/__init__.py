"""Learned surrogate fast path for forecast serving.

A microsecond first tier in front of the simulation stack: campaign
sweeps (:mod:`~repro.surrogate.dataset`) train a small ridge + k-NN
regressor (:mod:`~repro.surrogate.model`) over engineered route/workload
features (:mod:`~repro.surrogate.features`); the serving tier
(:mod:`~repro.surrogate.tier`) answers when predicted uncertainty is
within a bound and otherwise falls through to simulation bit-identically,
and from the first metrology epoch bump on.  See ``docs/SURROGATE.md``.
"""

from repro.surrogate.dataset import (
    SurrogateDataset,
    SurrogateSweep,
    SweepSample,
    run_sample,
    run_sweep,
)
from repro.surrogate.features import (
    BASE_FEATURE_NAMES,
    FEATURE_NAMES,
    MODEL_FEATURE_NAMES,
    N_FEATURES,
    featurize_request,
    model_features,
)
from repro.surrogate.model import NotFittedError, SurrogateModel
from repro.surrogate.tier import SurrogateTier

__all__ = [
    "BASE_FEATURE_NAMES",
    "FEATURE_NAMES",
    "MODEL_FEATURE_NAMES",
    "N_FEATURES",
    "NotFittedError",
    "SurrogateDataset",
    "SurrogateModel",
    "SurrogateSweep",
    "SurrogateTier",
    "SweepSample",
    "featurize_request",
    "model_features",
    "run_sample",
    "run_sweep",
]
