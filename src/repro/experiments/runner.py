"""Running one experiment: measured reality vs Pilgrim predictions.

Each repetition redraws the endpoint sets; each size is measured on the
fluid testbed with a repetition-specific seed (:func:`_measure`, the §V-A
steps) and predicted with one PNFS request, so the dispersion boxes
aggregate genuine run-to-run variability like the paper's 10-run averaging.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from repro._util.rng import derive_seed
from repro.analysis.errors import ErrorSeries
from repro.core.forecast import NetworkForecastService
from repro.experiments.protocol import ExperimentSpec, draw_transfer_pairs
from repro.testbed.fluid import TestbedNetwork
from repro.testbed.measurement import MeasuredTransfer, run_transfers


def check_sweep(repetitions: int, sizes: Sequence[float]) -> None:
    """Reject a sweep that would measure nothing or a size that is not a
    positive, finite byte count (``ValueError`` naming the value)."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if not sizes:
        raise ValueError("sizes must name at least one transfer size")
    for size in sizes:
        if not (math.isfinite(size) and size > 0):
            raise ValueError(
                f"transfer sizes must be positive and finite, got {size}")


def run_experiment(
    spec: ExperimentSpec,
    forecast: NetworkForecastService,
    network: TestbedNetwork,
    platform_name: str = "g5k_test",
    seed: int = 0,
    repetitions: Optional[int] = None,
    sizes: Optional[tuple[float, ...]] = None,
    progress: Optional[Callable[[int, float], None]] = None,
) -> ErrorSeries:
    """Measure and predict the full size sweep; returns the error series.

    Raises ``ValueError`` (see :func:`check_sweep`) before any work starts.
    """
    series = ErrorSeries(name=spec.name)
    reps = repetitions if repetitions is not None else spec.repetitions
    size_list = sizes if sizes is not None else spec.sizes
    check_sweep(reps, size_list)
    for rep in range(reps):
        rep_seed = derive_seed(seed, spec.name, "rep", rep)
        pairs = draw_transfer_pairs(spec, rep_seed)
        # prediction is deterministic per draw: one PNFS request per size
        for size in size_list:
            transfers = [(src, dst, size) for src, dst in pairs]
            measured = _measure(network, transfers,
                                seed=derive_seed(rep_seed, "measure", size))
            forecasts = forecast.predict_transfers(platform_name, transfers)
            point = series.point(size)
            for fc, ms in zip(forecasts, measured):
                point.add(prediction=fc.duration, measure=ms.duration)
            if progress is not None:
                progress(rep, size)
    return series


def _measure(network: TestbedNetwork, transfers: list[tuple[str, str, float]],
             seed: int) -> list[MeasuredTransfer]:
    """The §V-A measurement steps, on the testbed:

    1. "TCP iperf servers (receivers) are started on all destination nodes";
    2. "TCP iperf clients (senders) are simultaneously started on all source
       nodes, each transferring the same amount of data to its destination";
    3. "wait the end of the client transfers, record the completion time of
       all actual transfers".

    On the fluid testbed a destination always accepts, so all three are one
    run of every transfer from t=0 to its last byte.
    """
    return run_transfers(network, transfers, seed=seed)
