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
  ``repro metrology record|replay|run`` and the metrology loop tests.

See ``docs/METROLOGY.md``.
"""
