"""Declarative scenario subsystem: topology × workload × dynamics.

- :mod:`repro.scenarios.spec` — :class:`ScenarioSpec` and friends (JSON
  round-trip),
- :mod:`repro.scenarios.topologies` — the topology generator registry,
- :mod:`repro.scenarios.workloads` — the workload generator registry,
- :mod:`repro.scenarios.dynamics` — timed link degradation/failure/recovery
  plus measured-trace replays (:class:`MeasuredTrace`),
- :mod:`repro.scenarios.registry` — named presets (`repro scenarios list`),
- :mod:`repro.scenarios.runner` — :func:`run_scenario`.

See ``docs/SCENARIOS.md``.
"""
