"""Network Weather Service (NWS) style baseline forecaster.

The paper positions simulation-driven forecasting against NWS (§III-B),
"the reference for forecasting of computing resource availability in the
scheduling community": active probes produce time-series per resource, a
battery of simple predictors runs on each series, and "an algorithm […]
continuously selects the best among the set of available predictors".

This subpackage implements that baseline over the testbed:

- :mod:`repro.nws.predictors` — the predictor battery (last value, running
  and sliding means/medians, exponential smoothing),
- :mod:`repro.nws.forecaster` — the best-predictor meta-selection,
- :mod:`repro.nws.sensors` — bandwidth/latency probe sensors,
- :mod:`repro.nws.api` — transfer-time forecasts from the sensor forecasts.

Its structural blind spot — probes cannot see the contention a *planned* set
of concurrent transfers will create — is what
``tests/experiments/test_paper_experiments.py`` demonstrates against PNFS.
"""
