"""Learned surrogate fast path for forecast serving.

A microsecond first tier in front of the simulation stack: campaign
sweeps (:mod:`~repro.surrogate.dataset`) train a small ridge + k-NN
regressor (:mod:`~repro.surrogate.model`) over engineered route/workload
features (:mod:`~repro.surrogate.features`); the serving tier
(:mod:`~repro.surrogate.tier`) answers when predicted uncertainty is
within a bound and otherwise falls through to simulation bit-identically,
and from the first metrology epoch bump on.  See ``docs/SURROGATE.md``.
"""
