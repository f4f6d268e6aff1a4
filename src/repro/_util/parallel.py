"""Shared process-pool helpers."""

from __future__ import annotations


def pool_chunk_size(n_items: int, workers: int) -> int:
    """A map chunksize giving each worker ~4 chunks — small enough to
    balance uneven task costs, large enough to amortize per-task process
    round-trips."""
    if n_items <= 0 or workers <= 1:
        return 1
    return max(1, n_items // (workers * 4))
