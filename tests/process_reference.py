"""Process-style references, built on the engine's public API only.

The paper's PNFS instantiates "one send and one receive process for each
requested transfer" (§IV-C2), and the §VI workflow forecast once ran one
process per task.  ``src/`` keeps neither: a transfer request is
``Simulation.simulate_transfers`` and a workflow runs on done callbacks.
The process forms live here as the references those must equal bit for bit.

A process is a generator that yields waitables.  A zero-delay timer starts
it, and the done callback of each waitable it yields resumes it.  Two
processes meet on a named mailbox (FIFO rendezvous, like MSG's
``task_send``/``task_receive``); the match starts the communication.
Nothing here reaches past ``schedule``, ``add_comm``/``add_exec``/
``add_sleep`` and ``add_done_callback``.
"""

from __future__ import annotations

import collections
import math

from repro.core.workflow import WorkflowForecast


class Signal:
    """A waitable that user code fires: a mailbox handle or a join."""

    def __init__(self) -> None:
        self.done = False
        self._callbacks: list = []

    def add_done_callback(self, callback) -> None:
        if self.done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def fire(self) -> None:
        self.done = True
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class Mailboxes:
    """Named rendezvous points of one simulation."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._posted = collections.defaultdict(
            lambda: (collections.deque(), collections.deque()))

    def post(self, name: str, is_send: bool, host: str, size: float) -> Signal:
        handle = Signal()
        sends, recvs = self._posted[name]
        (sends if is_send else recvs).append((handle, host, size))
        while sends and recvs:
            (send, src, nbytes), (recv, dst, _) = sends.popleft(), recvs.popleft()
            comm = self.sim.add_comm(src, dst, nbytes, name=f"msg:{name}")
            comm.add_done_callback(
                lambda _comm, send=send, recv=recv: (send.fire(), recv.fire()))
        return handle


class Process:
    """One generator process on ``host``; the generator gets the process
    itself as its context."""

    def __init__(self, sim, mailboxes: Mailboxes, host: str, func, *args) -> None:
        self.sim = sim
        self.host = host
        self._mailboxes = mailboxes
        self._gen = func(self, *args)
        sim.schedule(0.0, self._step)

    def _step(self, _done=None) -> None:
        try:
            waitable = next(self._gen)
        except StopIteration:
            return
        waitable.add_done_callback(self._step)

    @property
    def now(self) -> float:
        return self.sim.clock

    def send(self, mailbox: str, size: float) -> Signal:
        return self._mailboxes.post(mailbox, True, self.host, size)

    def recv(self, mailbox: str) -> Signal:
        return self._mailboxes.post(mailbox, False, self.host, 0.0)

    def execute(self, flops: float):
        return self.sim.add_exec(self.host, flops)

    def sleep(self, duration: float):
        return self.sim.add_sleep(duration)

    @staticmethod
    def wait_all(waitables: list) -> Signal:
        joined = Signal()
        pending = [len(waitables)]

        def one_done(_waitable) -> None:
            pending[0] -= 1
            if not pending[0]:
                joined.fire()

        for waitable in waitables:
            waitable.add_done_callback(one_done)
        if not waitables:
            joined.fire()
        return joined


def explicit_transfers(sim, transfers) -> list[dict]:
    """The paper's pattern spelled out: one sender and one receiver process
    per transfer, meeting on a private mailbox, run to completion.  Records
    in what-if's shape: ``src``, ``dst``, ``size``, ``start``, ``finish``,
    ``duration``."""
    mailboxes = Mailboxes(sim)
    records = []

    def sender(proc, mailbox, size):
        yield proc.send(mailbox, size)

    def receiver(proc, mailbox, record):
        yield proc.recv(mailbox)
        record["finish"] = proc.now
        record["duration"] = proc.now - record["start"]

    for idx, (src, dst, size) in enumerate(transfers):
        record = {"src": src, "dst": dst, "size": size,
                  "start": 0.0, "finish": math.nan, "duration": math.nan}
        records.append(record)
        Process(sim, mailboxes, src, sender, f"pnfs-{idx}", size)
        Process(sim, mailboxes, dst, receiver, f"pnfs-{idx}", record)
    sim.run()
    return records


def generator_workflow(sim, graph) -> WorkflowForecast:
    """The workflow forecast as one process per task: post a receive per
    input, wait for all, compute, send to every successor.  Each edge's
    arrival is stamped when its own receive completes."""
    mailboxes = Mailboxes(sim)
    task_times: dict = {}
    transfer_times: dict = {}

    def task_process(proc, name):
        task = graph.tasks[name]
        preds = graph.predecessors(name)
        if preds:
            recvs = [proc.recv(f"wf-{p}->{name}") for p in preds]
            for p, recv in zip(preds, recvs):
                recv.add_done_callback(
                    lambda _recv, edge=(p, name):
                        transfer_times.__setitem__(edge, proc.now))
            yield proc.wait_all(recvs)
        start = proc.now
        if task.flops > 0:
            yield proc.execute(task.flops)
        task_times[name] = (start, proc.now)
        for succ in graph.successors(name):
            # fire-and-forget: the successor waits on the data
            proc.send(f"wf-{name}->{succ}", max(task.output_bytes, 1.0))
        if graph.successors(name):
            yield proc.sleep(0.0)

    for name in graph.tasks:
        Process(sim, mailboxes, graph.placement[name], task_process, name)
    sim.run()
    return WorkflowForecast(
        makespan=max(finish for _, finish in task_times.values()),
        task_times=task_times,
        transfer_times=transfer_times,
    )
