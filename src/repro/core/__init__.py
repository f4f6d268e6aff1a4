"""Pilgrim — the paper's metrology and performance-prediction framework.

Services are "implemented as REST-style web-services: transport is HTTP,
requests are HTTP GET whose parameters are embedded in the requested URI.
Answers to requests are JSON formatted documents" (§IV-C).  The two services
of the paper, plus the §VI extensions:

- :mod:`repro.core.metrology` — remote access to RRD time-series (§IV-C1),
- :mod:`repro.core.forecast` — the Pilgrim Network Forecast Service (PNFS,
  §IV-C2): completion-time predictions for concurrent TCP transfers via a
  fresh flow-level simulation per request,
- :mod:`repro.core.planner` — fastest-of-n transfer-hypothesis selection
  with pruning heuristics (§VI),
- :mod:`repro.core.workflow` — full workflow (computation + transfer)
  forecasting (§VI),
- :mod:`repro.core.framework` — the :class:`~repro.core.framework.Pilgrim`
  facade wiring everything together, and :mod:`repro.core.rest` — the HTTP
  layer.
"""
