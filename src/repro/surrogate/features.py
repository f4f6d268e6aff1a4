"""Feature engineering for the surrogate fast path.

A forecast query is a set of transfers started concurrently on one
platform.  The simulator answers it by solving the max-min bandwidth
sharing problem; the surrogate answers it from a small feature vector per
transfer, built from exactly the quantities the network model derives from
the live platform state:

- the transfer size,
- the route's **model-effective** single-flow rate (the minimum of the
  per-link effective bandwidths and the TCP-window rate bound),
- the route's **contended fair share** — for every constraint the route
  crosses, capacity divided by the number of request flows crossing it,
  minimized over the route (the max-min first-fill approximation),
- the model's startup latency for the route,
- route shape (hop count) and request shape (flow count, peak contention).

All bandwidth/latency reads go through the routes the simulator uses: the
platform's route store (``platform.route``) and the model's ``comm_spec``
memoized on each stored route (link-mutation-epoch safe) — so features
always reflect the **calibrated** link rates the metrology loop last
applied, and a recalibration changes the features exactly when it changes
the simulation.

Rates and durations are log2-scaled: transfer times span orders of
magnitude, and the serving accuracy metric is |log2 error|, so the model
regresses in the space the error is measured in.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.simgrid.models import SharingModel
from repro.simgrid.platform import Platform

#: Per-transfer feature columns (one row per transfer in the request).
BASE_FEATURE_NAMES: tuple[str, ...] = (
    "log2_size",
    "log2_solo_rate",       # single-flow rate: min(effective bw, rate bound)
    "log2_fair_rate",       # contended first-fill share along the route
    "log2_startup_latency",
    "hops",
    "log2_flows",           # flows in the request (incl. ongoing)
    "contention",           # peak flows sharing a constraint on this route
    "log2_naive_duration",  # startup + size / fair_rate
)

#: Model-identity columns appended to every row: a one-hot over the
#: registered sharing-model families plus the numeric knobs that change
#: forecasts.  Constant within one request, but they let a single regressor
#: serve several models without conflating their rate laws.
MODEL_FEATURE_NAMES: tuple[str, ...] = (
    "model_is_cm02",
    "model_is_lv08",
    "model_is_tcp_fluid",
    "model_bandwidth_factor",
    "model_latency_factor",
    "model_log2_window",    # TCP window cap (gamma / max cwnd), 0 if unbounded
)

#: Full feature vector layout.
FEATURE_NAMES: tuple[str, ...] = BASE_FEATURE_NAMES + MODEL_FEATURE_NAMES

#: Dimensionality of one feature row.
N_FEATURES = len(FEATURE_NAMES)

#: Floor for log2 arguments (zero-latency routes, infinite bounds).
_EPS = 1e-12


def _log2(value: float) -> float:
    return math.log2(max(value, _EPS))


def model_features(model: SharingModel) -> tuple[float, ...]:
    """The :data:`MODEL_FEATURE_NAMES` column values for ``model``.

    Reads the model's declared family name (case-insensitive) for the
    one-hot and its numeric knobs via ``getattr`` with neutral defaults,
    so third-party registered models degrade to all-zero one-hot columns
    instead of raising.
    """
    family = str(getattr(model, "name", type(model).__name__)).lower()
    window = float(getattr(model, "tcp_gamma", 0.0) or 0.0)
    if not window:
        window = float(getattr(model, "max_window_bytes", 0.0) or 0.0)
    return (
        1.0 if family == "cm02" else 0.0,
        1.0 if family == "lv08" else 0.0,
        1.0 if family == "tcp_fluid" else 0.0,
        float(getattr(model, "bandwidth_factor", 1.0)),
        float(getattr(model, "latency_factor", 1.0)),
        _log2(window) if window > 0.0 else 0.0,
    )


def _route_info(platform: Platform, model: SharingModel,
                src: str, dst: str) -> tuple:
    """Per-route invariants: ``(startup, bound, hops, usages)``.

    ``usages`` are the model's ``(constraint key, effective capacity,
    crossings)`` triples for the route's constrained (non-FATPIPE) links;
    all but ``hops`` come from the ``comm_spec`` the model memoizes on the
    stored route.
    """
    route = platform.route(src, dst)
    startup, _weight, bound, usages = model.comm_spec(route)
    return startup, bound, float(len(route)), usages


def featurize_request(
    platform: Platform,
    model: SharingModel,
    transfers: Sequence[tuple[str, str, float]],
    ongoing: Sequence[tuple[str, str, float]] = (),
) -> np.ndarray:
    """Feature matrix for one forecast request.

    ``transfers``/``ongoing`` are canonical ``(src, dst, size)`` tuples.
    Returns an ``(len(transfers), N_FEATURES)`` float array; only the
    requested transfers get rows, but ongoing flows participate in the
    contention counts, mirroring how they share bandwidth in the simulated
    world.  Raises whatever ``platform.route`` raises for unknown hosts —
    callers that must match the simulator's error contract validate first.
    """
    flows = list(transfers) + list(ongoing)
    infos = [_route_info(platform, model, src, dst) for src, dst, _ in flows]

    # constraint key -> crossings by request flows (direction-aware,
    # FATPIPE excluded — the model's sharing_usages aggregation)
    users: dict[object, float] = {}
    for _, _, _, usages in infos:
        for key, _, crossings in usages:
            users[key] = users.get(key, 0.0) + crossings

    n_flows = float(len(flows))
    model_cols = model_features(model)
    rows = np.empty((len(transfers), N_FEATURES), dtype=float)
    for i, (_, _, size) in enumerate(transfers):
        startup, bound, hops, usages = infos[i]
        solo = bound
        fair = bound
        contention = 1.0
        for key, capacity, _ in usages:
            crossing = users[key]
            solo = min(solo, capacity)
            fair = min(fair, capacity / crossing)
            contention = max(contention, crossing)
        if not math.isfinite(solo):
            solo = _EPS ** -1  # routeless/fatpipe-only: effectively unbounded
        if not math.isfinite(fair):
            fair = solo
        naive = startup + float(size) / max(fair, _EPS)
        rows[i] = (
            _log2(float(size)),
            _log2(solo),
            _log2(fair),
            _log2(startup),
            hops,
            _log2(n_flows),
            contention,
            _log2(naive),
        ) + model_cols
    return rows
