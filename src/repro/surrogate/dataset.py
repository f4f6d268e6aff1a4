"""Training data for the surrogate: campaign sweeps over scenario specs.

A :class:`SurrogateSweep` describes a seeded family of
:class:`~repro.scenarios.spec.ScenarioSpec` samples — topology × workload ×
transfer size draws, each optionally with **per-link calibration factors**
(random capacity degradations standing in for what the metrology loop
learns about a live network).  :func:`run_sweep` executes every sample —
build the platform, apply the link factors, featurize the request on that
exact platform state, then simulate it for ground-truth durations — and
collects one :class:`SurrogateDataset` of ``(features, log2 duration)``
rows.

The executor mirrors :func:`repro.experiments.campaign.run_campaign`:
``workers > 1`` fans samples out over a ``ProcessPoolExecutor`` with
results aggregated in sweep order, so a parallel sweep is **bit-identical**
to a serial one.  Every random draw derives from the sweep seed through
``SeedSequence.spawn`` (:mod:`repro._util.rng`), so a dataset is fully
reproducible from ``(sweep parameters, seed)``.

Datasets round-trip through JSON (``SurrogateDataset.from_json(d.to_json())
== d``) so a trained-on corpus can be stored, diffed and shipped.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro._util.parallel import pool_chunk_size
from repro._util.rng import spawn_rngs, spawn_seeds
from repro.scenarios.spec import ScenarioSpec, TopologySpec, WorkloadSpec
from repro.scenarios.topologies import build_topology
from repro.scenarios.workloads import generate_workload
from repro.simgrid.engine import Simulation
from repro.simgrid.models import model_by_name
from repro.surrogate.features import FEATURE_NAMES, featurize_request

#: Topology pools a default sweep draws from (family, params) — small
#: shapes on purpose: sweep cost is simulation cost, and the surrogate's
#: features generalize over size through rates, not host counts.
DEFAULT_TOPOLOGIES: tuple[tuple[str, dict], ...] = (
    ("star", {"n_hosts": 8}),
    ("star", {"n_hosts": 12}),
    ("dumbbell", {}),
    ("dragonfly", {"n_groups": 3, "routers_per_group": 2,
                   "hosts_per_router": 2}),
)

#: Workload pools a default sweep draws from (kind, params).
DEFAULT_WORKLOADS: tuple[tuple[str, dict], ...] = (
    ("all_to_all", {"limit": 4}),
    ("all_to_all", {"limit": 6}),
    ("random_pairs", {"n_pairs": 8}),
    ("incast", {"fan_in": 3}),
    ("shuffle", {"strides": 2}),
)

#: Transfer-size pool (bytes), spanning the latency- to bandwidth-dominated
#: regimes the serving tier sees.
DEFAULT_SIZES: tuple[float, ...] = (1e6, 5e6, 2e7, 1e8, 5e8)


@dataclass(frozen=True)
class SweepSample:
    """One sweep draw: a scenario spec plus per-link calibration factors.

    ``link_factors`` maps :mod:`fnmatch` link patterns to capacity
    fractions in ``(0, 1]`` applied to the freshly built platform before
    featurization and simulation — the sweep-time stand-in for calibrated
    rates.
    """

    spec: ScenarioSpec
    link_factors: tuple[tuple[str, float], ...] = ()

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "link_factors": [[p, f] for p, f in self.link_factors],
        }

    @staticmethod
    def from_json(doc: dict) -> "SweepSample":
        return SweepSample(
            spec=ScenarioSpec.from_json(doc["spec"]),
            link_factors=tuple(
                (p, float(f)) for p, f in doc.get("link_factors", ())
            ),
        )


@dataclass(frozen=True)
class SurrogateSweep:
    """A seeded family of sweep samples (the surrogate's training campaign).

    ``degrade_probability`` is the chance each sample carries link
    degradations at all; a degraded sample scales 1–3 random links by a
    factor drawn from ``degrade_range``.
    """

    samples: int = 48
    seed: int = 0
    model: str = "LV08"
    topologies: tuple[tuple[str, dict], ...] = DEFAULT_TOPOLOGIES
    workloads: tuple[tuple[str, dict], ...] = DEFAULT_WORKLOADS
    sizes: tuple[float, ...] = DEFAULT_SIZES
    degrade_probability: float = 0.5
    degrade_range: tuple[float, float] = (0.25, 0.9)

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"sweep needs >= 1 sample, got {self.samples}")
        if not 0.0 <= self.degrade_probability <= 1.0:
            raise ValueError(
                f"degrade probability must be in [0, 1], got "
                f"{self.degrade_probability}"
            )

    def sample_specs(self) -> list[SweepSample]:
        """The sweep's samples, deterministic in ``(parameters, seed)``."""
        draws = spawn_rngs(self.seed, self.samples, "surrogate-sweep")
        workload_seeds = spawn_seeds(self.seed, self.samples,
                                     "surrogate-workload")
        samples: list[SweepSample] = []
        for index, rng in enumerate(draws):
            family, topo_params = self.topologies[
                int(rng.integers(len(self.topologies)))]
            kind, wl_params = self.workloads[
                int(rng.integers(len(self.workloads)))]
            size = float(self.sizes[int(rng.integers(len(self.sizes)))])
            spec = ScenarioSpec(
                name=f"surrogate-{index}",
                topology=TopologySpec(family, topo_params),
                workload=WorkloadSpec(kind, size=size, params=wl_params),
                seed=workload_seeds[index],
                model=self.model,
            )
            factors: list[tuple[str, float]] = []
            if float(rng.random()) < self.degrade_probability:
                platform = build_topology(spec.topology)
                links = sorted(link.name for link in platform.links())
                n_degraded = int(rng.integers(1, 4))
                picks = rng.choice(len(links), size=min(n_degraded, len(links)),
                                   replace=False)
                lo, hi = self.degrade_range
                factors = [
                    (links[int(p)], float(rng.uniform(lo, hi)))
                    for p in sorted(picks)
                ]
            samples.append(SweepSample(spec=spec, link_factors=tuple(factors)))
        return samples


@dataclass
class SurrogateDataset:
    """Feature rows + log2-duration targets, with sweep provenance.

    ``features`` is ``(n, len(FEATURE_NAMES))``; ``targets`` is ``(n,)``
    holding ``log2(duration_seconds)``.  ``sample_index`` maps each row to
    the sweep sample that produced it, so held-out splits can be made by
    *scenario* (never leaking one scenario's transfers across the split).
    """

    features: np.ndarray
    targets: np.ndarray
    sample_index: np.ndarray
    model: str = "LV08"
    feature_names: tuple[str, ...] = FEATURE_NAMES
    samples: list[SweepSample] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        self.sample_index = np.asarray(self.sample_index, dtype=int)
        if self.features.ndim != 2 or \
                self.features.shape[1] != len(self.feature_names):
            raise ValueError(
                f"features must be (n, {len(self.feature_names)}), got "
                f"{self.features.shape}"
            )
        if len(self.targets) != len(self.features) or \
                len(self.sample_index) != len(self.features):
            raise ValueError("features/targets/sample_index lengths differ")

    def __len__(self) -> int:
        return len(self.targets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurrogateDataset):
            return NotImplemented
        return (
            self.model == other.model
            and self.feature_names == other.feature_names
            and self.samples == other.samples
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.targets, other.targets)
            and np.array_equal(self.sample_index, other.sample_index)
        )

    def split_by_sample(self, holdout_fraction: float = 0.25,
                        seed: int = 0) -> tuple["SurrogateDataset", "SurrogateDataset"]:
        """``(train, holdout)`` split on sweep-sample boundaries."""
        if not 0.0 < holdout_fraction < 1.0:
            raise ValueError(
                f"holdout fraction must be in (0, 1), got {holdout_fraction}"
            )
        ids = np.unique(self.sample_index)
        rng = spawn_rngs(seed, 1, "surrogate-holdout")[0]
        shuffled = rng.permutation(ids)
        n_holdout = max(1, int(round(len(ids) * holdout_fraction)))
        if n_holdout >= len(ids):
            raise ValueError("holdout fraction leaves no training samples")
        held = set(int(i) for i in shuffled[:n_holdout])
        mask = np.array([int(i) in held for i in self.sample_index])
        return self._subset(~mask), self._subset(mask)

    def _subset(self, mask: np.ndarray) -> "SurrogateDataset":
        return SurrogateDataset(
            features=self.features[mask],
            targets=self.targets[mask],
            sample_index=self.sample_index[mask],
            model=self.model,
            feature_names=self.feature_names,
            samples=list(self.samples),
        )

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "feature_names": list(self.feature_names),
            "features": self.features.tolist(),
            "targets": self.targets.tolist(),
            "sample_index": self.sample_index.tolist(),
            "samples": [s.to_json() for s in self.samples],
        }

    @staticmethod
    def from_json(doc: dict) -> "SurrogateDataset":
        return SurrogateDataset(
            features=np.asarray(doc["features"], dtype=float),
            targets=np.asarray(doc["targets"], dtype=float),
            sample_index=np.asarray(doc["sample_index"], dtype=int),
            model=doc.get("model", "LV08"),
            feature_names=tuple(doc.get("feature_names", FEATURE_NAMES)),
            samples=[SweepSample.from_json(s)
                     for s in doc.get("samples", ())],
        )


def run_sample(sample: SweepSample) -> tuple[np.ndarray, np.ndarray]:
    """Execute one sweep sample: ``(features, log2-duration targets)``.

    The platform is built fresh, link factors applied through the normal
    ``Link`` setters, the request featurized on that exact state, and then
    simulated — so features and targets describe the same calibrated world,
    which is the invariant the serving tier relies on.
    """
    spec = sample.spec
    platform = build_topology(spec.topology)
    for pattern, factor in sample.link_factors:
        if not 0.0 < factor <= 1.0:
            raise ValueError(
                f"link factor must be in (0, 1], got {factor} for {pattern!r}"
            )
        for link in platform.links_matching(pattern):
            link.bandwidth = link.bandwidth * factor
    hosts = [h.name for h in platform.hosts()]
    rng = spawn_rngs(spec.seed, 1, "workload", spec.name)[0]
    transfers = generate_workload(spec.workload, hosts, rng)
    model = model_by_name(spec.model)
    features = featurize_request(platform, model, transfers)
    comms = Simulation(platform, model).simulate_transfers(transfers)
    targets = np.log2(np.array([c.duration for c in comms], dtype=float))
    return features, targets


def run_sweep(sweep: SurrogateSweep,
              workers: Optional[int] = None) -> SurrogateDataset:
    """Run every sweep sample and assemble the dataset.

    ``workers > 1`` fans samples out over a process pool; aggregation is in
    sweep order, so the dataset is bit-identical to a serial run.
    """
    sample_list = sweep.sample_specs()
    if workers is not None and workers > 1 and len(sample_list) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = pool_chunk_size(len(sample_list), workers)
            outcomes = list(pool.map(run_sample, sample_list, chunksize=chunk))
    else:
        outcomes = [run_sample(sample) for sample in sample_list]
    blocks = [f for f, _ in outcomes]
    targets = [t for _, t in outcomes]
    index = np.concatenate([
        np.full(len(t), i, dtype=int) for i, t in enumerate(targets)
    ])
    return SurrogateDataset(
        features=np.concatenate(blocks, axis=0),
        targets=np.concatenate(targets),
        sample_index=index,
        model=sweep.model,
        samples=sample_list,
    )
