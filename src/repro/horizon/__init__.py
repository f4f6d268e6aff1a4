"""Multi-horizon forecasting and what-if planning.

- :mod:`repro.horizon.forecast` — per-series k-step forecasts with damped
  trend, divergence cutoff, physical clamping and residual-history
  prediction intervals; :class:`PlatformHorizon` keeps one per platform
  link and emits projected ``capacity_factors``.
- :mod:`repro.horizon.whatif` — transient ``LinkEvent`` schedules run
  through the scenario dynamics machinery against a live platform, with
  snapshot/restore sandboxing.

The forecast service composes both in its one answer path,
:meth:`repro.core.forecast.NetworkForecastService.answer`: a query's
``horizon`` runs under the projected platform state k steps ahead, its
``events`` under a hypothetical schedule, both answering with
interval-annotated :class:`~repro.core.forecast.TransferForecast` 4-uples.
See ``docs/PLANNING.md``.
"""
