"""References the shipped code is tested against, one home for all.

- :mod:`reference.maxmin` — the dense max-min solver and the engine that
  re-solves every event with it, beside the ``SharingSystem`` arena;
- :mod:`reference.process` — the explicit send/receive and per-task
  processes beside ``simulate_transfers`` and the done-callback workflow;
- :mod:`reference.decode` — the four per-entry-point transfer decoders
  beside ``transfer_triples``.

Nothing under ``src/`` imports them.
"""
