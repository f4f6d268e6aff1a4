"""The paper's §V validation: protocol, runner, figures, summary, campaign.

- :mod:`repro.experiments.protocol` — the parameter space: 10 transfer sizes
  on a geometric progression 0.1 MB → 10 GB, source/destination counts,
  CLUSTER and GRID_MULTI topologies, endpoint drawing rules,
- :mod:`repro.experiments.environment` — cached experiment environment
  (g5k platforms, testbed, forecast service),
- :mod:`repro.experiments.runner` — runs one experiment: measured transfers
  on the testbed versus Pilgrim predictions, aggregated into an
  :class:`~repro.analysis.errors.ErrorSeries`,
- :mod:`repro.experiments.figures` — one spec per paper figure (3–11) plus
  the §V-B1 asymmetric graphene cases, each with asserted shape checks,
- :mod:`repro.experiments.summary` — the §V-B headline statistics,
- :mod:`repro.experiments.campaign` — every feasible combination of the
  §V-A parameter space, serially or on a process pool.
"""
