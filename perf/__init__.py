"""The benchmark of record (see perf/README.md).

Everything under ``perf/`` measures ``src/repro`` from outside, by timing
calls into its public functions; nothing in ``src/`` imports this package.
"""
