"""The closed loop: rounds over a workload's request list, and the timed
phase built from them."""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Optional

from perf.estimator import Round, probe
from perf.spans import SpanRecorder
from perf.workloads import Entry, Workload

#: rounds every timed phase runs before it looks at the clock; memory is
#: sampled after exactly this much work, whatever the machine's speed
MIN_ROUNDS = 4

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_seconds(pids: list[int]) -> float:
    """CPU time consumed so far by this process and the given children."""
    total = time.process_time()
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            # fields after the parenthesised command name: utime, stime
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) * _TICK_S
    return total


def _drive(workload: Workload, conn: int, entries: list[Entry],
           out: list[tuple[Entry, float, float, bool]]) -> None:
    for entry in entries:
        workload.before(entry)
        start, end, ok = workload.send(conn, entry)
        out.append((entry, start, end, ok))


def run_round(workload: Workload, recorder: Optional[SpanRecorder] = None,
              tag: str = "", probe_before: Optional[float] = None
              ) -> tuple[Round, dict[int, int]]:
    """One pass over the request list, each connection sending its share
    (entry ``i`` goes to connection ``i % connections``) and waiting for
    every reply before its next request.

    ``probe_before`` reuses the previous round's closing probe.  With a
    ``recorder`` every request becomes a ``client.request`` span; the
    returned dict maps entry index to span id."""
    rnd = Round(probe_s=probe() if probe_before is None else probe_before)
    pids = workload.child_pids()
    n = workload.connections
    shares = [workload.entries[k::n] for k in range(n)]
    results: list[list] = [[] for _ in range(n)]
    cpu = cpu_seconds(pids)
    start = time.perf_counter()
    if n == 1:
        _drive(workload, 0, shares[0], results[0])
    else:
        threads = [threading.Thread(target=_drive,
                                    args=(workload, k, shares[k], results[k]))
                   for k in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    rnd.wall_s = time.perf_counter() - start
    rnd.cpu_s = cpu_seconds(pids) - cpu
    rnd.probe_after_s = probe()
    span_ids: dict[int, int] = {}
    for entry, t0, t1, ok in sorted(
            (r for share in results for r in share), key=lambda r: r[0].index):
        rnd.add(t1 - t0, ok)
        if recorder is not None:
            span_ids[entry.index] = recorder.record(
                "client.request", t0, t1, None, f"{tag}{entry.index}")
    return rnd, span_ids


def timed_phase(workload: Workload, seconds: float,
                min_rounds: int = MIN_ROUNDS,
                after_min_rounds: Optional[Callable[[], None]] = None
                ) -> list[Round]:
    """Rounds until ``seconds`` have passed, at least ``min_rounds``."""
    rounds: list[Round] = []
    deadline = time.perf_counter() + seconds
    last_probe = None
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rnd, _ = run_round(workload, probe_before=last_probe)
        last_probe = rnd.probe_after_s
        rounds.append(rnd)
        if len(rounds) == min_rounds and after_min_rounds is not None:
            after_min_rounds()
    return rounds
