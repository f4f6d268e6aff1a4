"""Request coalescer: micro-batching semantics and failure fan-out."""

from __future__ import annotations

import pytest

from repro.core.forecast import ForecastQuery
from repro.serving.batcher import PendingRequest, RequestCoalescer
from repro.simgrid.models import LV08


def query(platform, transfers, model=None) -> ForecastQuery:
    return ForecastQuery(platform, tuple(transfers),
                         model=model if model is not None else LV08())


def echo_execute(batch):
    """Resolve every request with its own transfer list (identity)."""
    for pending in batch:
        pending.future.set_result(list(pending.query.transfers))


class TestCoalescing:
    def test_single_request_passes_through(self):
        with RequestCoalescer(echo_execute, window=0.001) as batcher:
            future = batcher.submit(query("p", [("a", "b", 1.0)]))
            assert future.result(timeout=5) == [("a", "b", 1.0)]
        stats = batcher.stats()
        assert stats["batches"] == 1
        assert stats["requests"] == 1
        assert stats["coalesced"] == 0
        assert stats["batch_size_hist"] == {"1": 1}

    def test_concurrent_burst_shares_a_batch(self):
        seen_batches = []

        def execute(batch):
            seen_batches.append(len(batch))
            echo_execute(batch)

        batcher = RequestCoalescer(execute, window=0.25)
        batcher.start()
        try:
            # the window is generous, so a quick burst lands in one drain
            futures = [
                batcher.submit(query("p", [("a", f"b{i}", 1.0)]))
                for i in range(4)
            ]
            results = [f.result(timeout=5) for f in futures]
        finally:
            batcher.stop()
        assert results == [[("a", f"b{i}", 1.0)] for i in range(4)]
        assert max(seen_batches) >= 2  # the burst coalesced
        stats = batcher.stats()
        assert stats["requests"] == 4
        assert stats["coalesced"] >= 2
        assert stats["max_batch_seen"] == max(seen_batches)
        # the histogram saw exactly the batches the execute callback saw
        assert sum(stats["batch_size_hist"].values()) == len(seen_batches)

    def test_max_batch_bounds_a_drain(self):
        sizes = []

        def execute(batch):
            sizes.append(len(batch))
            echo_execute(batch)

        batcher = RequestCoalescer(execute, window=0.25, max_batch=2)
        # queue before starting the drain thread so one burst is waiting
        futures = [
            batcher.submit(query("p", [("a", f"b{i}", 1.0)]))
            for i in range(5)
        ]
        [f.result(timeout=5) for f in futures]
        batcher.stop()
        assert max(sizes) <= 2

    def test_group_key_splits_on_platform_and_model(self):
        lv08 = LV08()
        base = PendingRequest(query("p", [], lv08))
        assert base.group_key() == PendingRequest(query("p", [])).group_key()
        assert base.group_key() != PendingRequest(
            query("q", [], lv08)).group_key()
        assert base.group_key() != PendingRequest(
            query("p", [], lv08.with_gamma(4e6))).group_key()


class TestFailure:
    def test_execute_failure_reaches_every_request(self):
        def explode(batch):
            raise RuntimeError("pool died")

        with RequestCoalescer(explode, window=0.05) as batcher:
            futures = [batcher.submit(query("p", [("a", "b", 1.0)]))
                       for _ in range(3)]
            for future in futures:
                with pytest.raises(RuntimeError, match="pool died"):
                    future.result(timeout=5)

    def test_stop_is_idempotent_and_restartable(self):
        batcher = RequestCoalescer(echo_execute, window=0.001)
        batcher.stop()  # never started: no-op
        future = batcher.submit(query("p", [("a", "b", 1.0)]))
        assert future.result(timeout=5) == [("a", "b", 1.0)]
        batcher.stop()
        batcher.stop()
        # submit() restarts the drain thread after a stop
        future = batcher.submit(query("p", [("x", "y", 2.0)]))
        assert future.result(timeout=5) == [("x", "y", 2.0)]
        batcher.stop()

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestCoalescer(echo_execute, window=-0.1)
        with pytest.raises(ValueError):
            RequestCoalescer(echo_execute, max_batch=0)
