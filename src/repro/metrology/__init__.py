"""Metrology: collectors, the live probe feed and platform recalibration.

The paper's metrology service fronts RRD files written by existing tools
(Ganglia, Munin, Cacti, Smokeping — §III-A/§IV-C1).  This subpackage plays
those tools' role and closes the loop back into the simulator:

- :mod:`repro.metrology.collectors` — registry of metric sources polled on
  a fixed period into per-(tool, site, host, metric) RRDs,
- :mod:`repro.metrology.feed` — :class:`MetrologyFeed`: NWS
  bandwidth/latency probes on a schedule into per-link RRDs,
- :mod:`repro.metrology.calibrator` — :class:`LinkCalibrator`: RRD windows
  → adaptive per-link forecasts,
- :mod:`repro.metrology.loop` — :class:`RecalibrationLoop`: estimates
  applied to a live platform through the link-mutation epoch, so solver,
  route cache, forecast cache and warm pool invalidate implicitly,
- :mod:`repro.metrology.demo` — the degrading-link deployment behind
  ``repro metrology record|replay|run`` and the metrology bench.

See ``docs/METROLOGY.md``.
"""

from repro.metrology.collectors import (
    GangliaCollector,
    MetricKey,
    MetricRegistry,
    MetrologyError,
)

#: Lazily imported re-exports (PEP 562): the feed/calibrator/loop/demo
#: modules pull in the simulator stack (simgrid, core.forecast, testbed),
#: which collectors-only users — notably repro.core's REST framework —
#: must not pay for (and which would make repro.core and repro.metrology
#: mutually importing at module load).
_LAZY_EXPORTS = {
    "CapacityEvent": "repro.metrology.demo",
    "CapacitySchedule": "repro.metrology.demo",
    "StarMetrologyDemo": "repro.metrology.demo",
    "StepEvaluation": "repro.metrology.demo",
    "build_star_testbed": "repro.metrology.demo",
    "LinkCalibrator": "repro.metrology.calibrator",
    "LinkEstimate": "repro.metrology.calibrator",
    "LinkUpdate": "repro.metrology.loop",
    "RecalibrationLoop": "repro.metrology.loop",
    "MetrologyFeed": "repro.metrology.feed",
    "MonitoredLink": "repro.metrology.feed",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "CapacityEvent",
    "CapacitySchedule",
    "GangliaCollector",
    "LinkCalibrator",
    "LinkEstimate",
    "LinkUpdate",
    "MetricKey",
    "MetricRegistry",
    "MetrologyError",
    "MetrologyFeed",
    "MonitoredLink",
    "RecalibrationLoop",
    "StarMetrologyDemo",
    "StepEvaluation",
    "build_star_testbed",
]
