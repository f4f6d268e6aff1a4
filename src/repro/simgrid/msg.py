"""MSG-like process API on generator coroutines.

The paper describes the MSG interface: "applications are modeled as a set of
processes, running on a set of hosts, executing tasks or exchanging data
through the network" (§IV-A), and the forecast service instantiates "one send
and one receive process for each requested transfer" (§IV-C2).

A process is a generator function taking a :class:`Context`; it ``yield``-s
*waitables* (communications, executions, sleeps) and is resumed with the
waitable's result::

    def sender(ctx):
        yield ctx.send("mbox", size=5e8, payload="hello")

    def receiver(ctx, results):
        payload = yield ctx.recv("mbox")
        results.append((ctx.now, payload))

    sim = Simulation(platform)
    add_process(sim, "snd", "hostA", sender)
    add_process(sim, "rcv", "hostB", receiver, results)
    sim.run()

Communication is rendezvous through named mailboxes: the data starts flowing
once a send and a receive are matched (FIFO order), like MSG's
``task_send``/``task_receive``.
"""

from __future__ import annotations

import collections
import inspect
from typing import Callable, Optional

from repro.simgrid.activities import Waitable
from repro.simgrid.engine import Simulation
from repro.simgrid.platform import Host


class ProcessError(Exception):
    """Raised when a process function misbehaves (wrong yields, …)."""


class CommHandle(Waitable):
    """Send- or receive-side handle of a mailbox communication."""

    __slots__ = ("mailbox", "size", "payload", "is_send")

    def __init__(self, mailbox: str, size: float, payload: object, is_send: bool) -> None:
        super().__init__()
        self.mailbox = mailbox
        self.size = size
        self.payload = payload
        self.is_send = is_send


class _Mailbox:
    __slots__ = ("name", "pending_sends", "pending_recvs")

    def __init__(self, name: str) -> None:
        self.name = name
        # (handle, src_host)
        self.pending_sends: collections.deque = collections.deque()
        # (handle, dst_host)
        self.pending_recvs: collections.deque = collections.deque()


class MessagingLayer:
    """Per-simulation mailbox registry; created lazily on first use."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.mailboxes: dict[str, _Mailbox] = {}

    def mailbox(self, name: str) -> _Mailbox:
        box = self.mailboxes.get(name)
        if box is None:
            box = _Mailbox(name)
            self.mailboxes[name] = box
        return box

    def post_send(self, mailbox: str, size: float, payload: object, src: Host) -> CommHandle:
        handle = CommHandle(mailbox, size, payload, is_send=True)
        box = self.mailbox(mailbox)
        box.pending_sends.append((handle, src))
        self._match(box)
        return handle

    def post_recv(self, mailbox: str, dst: Host) -> CommHandle:
        handle = CommHandle(mailbox, 0.0, None, is_send=False)
        box = self.mailbox(mailbox)
        box.pending_recvs.append((handle, dst))
        self._match(box)
        return handle

    def _match(self, box: _Mailbox) -> None:
        while box.pending_sends and box.pending_recvs:
            send_handle, src = box.pending_sends.popleft()
            recv_handle, dst = box.pending_recvs.popleft()
            comm = self.sim.add_comm(
                src, dst, send_handle.size,
                name=f"msg:{box.name}", payload=send_handle.payload,
            )

            def finish(_, send_handle=send_handle, recv_handle=recv_handle, comm=comm):
                recv_handle.result = comm.payload
                send_handle.result = None
                send_handle._fire()
                recv_handle._fire()

            comm.add_done_callback(finish)


def _messaging(sim: Simulation) -> MessagingLayer:
    layer = getattr(sim, "_msg_layer", None)
    if layer is None:
        layer = MessagingLayer(sim)
        sim._msg_layer = layer  # type: ignore[attr-defined]
    return layer


class Context:
    """The API surface handed to every process function."""

    def __init__(self, process: "Process") -> None:
        self._process = process

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._process.sim.clock

    @property
    def host(self) -> Host:
        """The host this process runs on."""
        return self._process.host

    @property
    def name(self) -> str:
        return self._process.name

    def send(self, mailbox: str, size: float, payload: object = None) -> CommHandle:
        """Post a send of ``size`` bytes; yield the handle to wait for it."""
        return _messaging(self._process.sim).post_send(
            mailbox, size, payload, self._process.host
        )

    def recv(self, mailbox: str) -> CommHandle:
        """Post a receive; yielding the handle returns the sent payload."""
        return _messaging(self._process.sim).post_recv(mailbox, self._process.host)

    def execute(self, flops: float) -> Waitable:
        """Compute ``flops`` on this process's host."""
        return self._process.sim.add_exec(self._process.host, flops)

    def sleep(self, duration: float) -> Waitable:
        """Wait ``duration`` simulated seconds."""
        return self._process.sim.add_sleep(duration)

    def wait_all(self, waitables: list[Waitable]) -> Waitable:
        """A waitable that completes when every input completed; its result
        is the list of individual results (in input order)."""
        group = Waitable()
        pending = len(waitables)
        if pending == 0:
            group.result = []
            group._fire()
            return group
        results: list[object] = [None] * pending
        remaining = [pending]

        def on_done(_done, idx):
            results[idx] = waitables[idx].result
            remaining[0] -= 1
            if remaining[0] == 0:
                group.result = results
                group._fire()

        for idx, waitable in enumerate(waitables):
            waitable.add_done_callback(lambda w, idx=idx: on_done(w, idx))
        return group


class Process(Waitable):
    """A simulated process: generator + host + scheduling glue.

    The process itself is a waitable whose result is the generator's return
    value, so processes can join each other (``yield other_process``).
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        host: str | Host,
        func: Callable,
        *args: object,
        start_time: float = 0.0,
        **kwargs: object,
    ) -> None:
        super().__init__()
        self.sim = sim
        self.name = name
        self.host = host if isinstance(host, Host) else sim.platform.host(host)
        self.context = Context(self)
        self._finished = False
        if inspect.isgeneratorfunction(func):
            self._gen = func(self.context, *args, **kwargs)
        else:
            # plain callables run atomically at start time
            def _wrapper():
                out = func(self.context, *args, **kwargs)
                return out
                yield  # pragma: no cover - makes this a generator

            self._gen = _wrapper()
        if start_time < 0:
            raise ProcessError(f"process {name!r}: negative start time")
        sim.schedule(start_time, lambda: sim._make_runnable(self, None))

    def _step(self, value: object) -> None:
        if self._finished:
            return
        try:
            waitable = self._gen.send(value)
        except StopIteration as stop:
            self._finished = True
            self.result = stop.value
            self._fire()
            return
        if not isinstance(waitable, Waitable):
            raise ProcessError(
                f"process {self.name!r} yielded {waitable!r}; processes must "
                "yield waitables (ctx.send/recv/execute/sleep/…)"
            )
        waitable.add_done_callback(
            lambda w: self.sim._make_runnable(self, w.result)
        )


def add_process(
    sim: Simulation,
    name: str,
    host: str | Host,
    func: Callable,
    *args: object,
    start_time: float = 0.0,
    **kwargs: object,
) -> Process:
    """Create and register a process; it starts at ``start_time``."""
    return Process(sim, name, host, func, *args, start_time=start_time, **kwargs)


def transfer_processes(
    sim: Simulation, transfers: list[tuple[str, str, float]]
) -> list[dict]:
    """The paper's PNFS pattern — "one send and one receive process for each
    requested transfer" (§IV-C2) — as per-transfer records.

    Such a pair meets at once and does nothing else, so it is simulated as
    the one communication it amounts to, without the two coroutines and the
    mailbox; ``tests/simgrid/test_msg.py`` pins the answers bit for bit
    against the explicit sender/receiver form.  Each record has keys
    ``src``, ``dst``, ``size``, ``start``, ``finish``, ``duration``.
    """
    comms = sim.simulate_transfers(transfers)
    return [
        {"src": src, "dst": dst, "size": size, "start": comm.start_time,
         "finish": comm.finish_time, "duration": comm.duration}
        for (src, dst, size), comm in zip(transfers, comms)
    ]
