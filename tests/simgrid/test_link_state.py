"""Committed and transient link writes, and the tokens caches key on.

A link write outside any ``link_sandbox`` of its thread is *committed*: it
stamps the link's platform (``Platform.state_stamp``), which the answer
caches key on, and moves ``link_state_version()``, the newest stamp of any
platform.  Inside one it is *transient*: the live values move
(``link_epoch()`` too, so in-flight comms recalibrate) and the sandbox's
exit puts the committed values back.  Route memos key on ``link_epoch()``,
which every write moves and none moves back.
"""

from __future__ import annotations

import ast
import pathlib
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.horizon.whatif import run_what_if
from repro.scenarios.spec import LinkEvent
from repro.simgrid.builder import build_dumbbell
from repro.simgrid.engine import Simulation
from repro.simgrid.models import CM02, LV08
from repro.simgrid.platform import (
    Link,
    SharingPolicy,
    link_sandbox,
    link_epoch,
    link_sandboxes,
    link_state_version,
    restore_committed,
)

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def test_a_recalibration_during_a_what_if_is_the_value_that_stays(
        monkeypatch):
    """The what-if's degrade fires, then another thread commits a new
    bandwidth before the what-if ends: that committed value is the one the
    link keeps, not the value the what-if found on entry."""
    platform = build_dumbbell()
    link = platform.link("bottleneck")
    nominal, latency = link.bandwidth, link.latency
    recalibrated = nominal * 0.7
    touch_sharing = Simulation.touch_sharing

    def recalibrate_elsewhere(sim):
        writer = threading.Thread(
            target=setattr, args=(link, "bandwidth", recalibrated))
        writer.start()
        writer.join(10.0)
        assert not writer.is_alive()
        touch_sharing(sim)

    monkeypatch.setattr(Simulation, "touch_sharing", recalibrate_elsewhere)
    records, log = run_what_if(platform, CM02(), [
        ("left-1", "right-1", 1e9)], [
        LinkEvent(time=1.0, link="bottleneck", action="degrade", factor=0.5)])
    assert [event.bandwidth for event in log.applied] == [nominal * 0.5]
    assert link.bandwidth == recalibrated
    assert link.latency == latency


def test_sandboxed_writes_move_no_version_and_the_exit_restores_them():
    platform = build_dumbbell()
    link = platform.link("bottleneck")
    committed = link.committed
    version, (opened, exited) = link_state_version(), link_sandboxes()
    stamp, epoch = platform.state_stamp, link_epoch()
    with link_sandbox():
        assert link_sandboxes() == (opened + 1, exited)
        link.bandwidth = committed[0] / 4
        link.latency = committed[1] * 2
        assert (link.bandwidth, link.latency) != committed
        assert link.committed == committed
        assert link_epoch() == epoch + 2
    assert link_sandboxes() == (opened + 1, exited + 1)
    assert (link.bandwidth, link.latency) == committed
    assert (platform.state_stamp, link_state_version()) == (stamp, version)
    assert link_epoch() == epoch + 4  # the restores are writes too
    link.bandwidth = committed[0] / 2  # outside: committed
    assert link.committed == (committed[0] / 2, committed[1])
    assert platform.state_stamp == link_state_version() == version + 1


def test_a_committed_write_stamps_its_platform_only():
    mine, other = build_dumbbell(), build_dumbbell()
    link = mine.link("bottleneck")
    before = other.state_stamp
    link.latency = link.latency * 2
    assert mine.state_stamp == link_state_version() > before
    link.policy = SharingPolicy.FATPIPE
    assert mine.state_stamp == link_state_version()
    assert other.state_stamp == before


def test_restore_committed_undoes_transient_values_inherited_without_exit():
    """A process forked inside a sandbox holds its transient values and no
    exit to undo them: ``restore_committed`` puts the committed ones back
    as live values, moving the every-write epoch and no stamp."""
    platform = build_dumbbell()
    links = platform.links()
    stamp = platform.state_stamp
    with link_sandbox():
        links[0].bandwidth = links[0].bandwidth / 4
        epoch = link_epoch()
        restore_committed(links)
        assert all((link.bandwidth, link.latency) == link.committed
                   for link in links)
        assert link_epoch() == epoch + 1
        restore_committed(links)  # nothing left to restore
        assert link_epoch() == epoch + 1
    assert platform.state_stamp == stamp


def test_a_spec_computed_across_a_what_if_is_not_served_after_it():
    """A what-if on another thread degrades a route's latency and exits
    while a point forecast computes that route's spec: the forecast read
    the transient value, so its spec must not be served once the what-if
    is over, though every value is back to what it was."""
    platform = build_dumbbell()
    route = platform.route("left-1", "right-1")
    link = route[0].link
    model = LV08()
    rate_bound = type(model).rate_bound
    calls = []

    def rate_bound_beside_a_what_if(self, uses):
        if calls:
            return rate_bound(self, uses)
        calls.append(uses)
        degraded, release = threading.Event(), threading.Event()

        def what_if():
            with link_sandbox():
                link.latency = link.latency * 4
                degraded.set()
                release.wait(10.0)

        other = threading.Thread(target=what_if)
        other.start()
        assert degraded.wait(10.0)
        bound = rate_bound(self, uses)  # reads the transient latency
        release.set()
        other.join(10.0)
        assert not other.is_alive()
        return bound

    with patch.object(type(model), "rate_bound", rate_bound_beside_a_what_if):
        model.comm_spec(route)
    assert len(calls) == 1
    assert link.latency == link.committed[1]
    assert model.comm_spec(route) == model.comm_spec(list(route))


# -- the tokens are exact --------------------------------------------------------

PLATFORM = build_dumbbell(2, 2)
LINKS = sorted(PLATFORM.links(), key=lambda link: link.name)
ROUTES = [PLATFORM.route(src, dst) for src, dst in (
    ("left-1", "right-1"), ("left-2", "right-2"), ("right-1", "left-2"),
    ("left-1", "left-2"))]
MODELS = (LV08(), CM02())
SANDBOX_THREADS = 2

links = st.integers(0, len(LINKS) - 1)
write = st.tuples(
    st.just("write"), st.sampled_from(("main", "new", 0, 0, 1, 1)), links,
    st.one_of(
        st.tuples(st.just("bandwidth"),
                  st.sampled_from((1.25e8, 2.5e8, 1.25e9))),
        st.tuples(st.just("latency"), st.sampled_from((5e-5, 1e-4)))))
enter = st.tuples(st.just("enter"), st.integers(0, SANDBOX_THREADS - 1))
leave = st.tuples(st.just("exit"), st.integers(0, SANDBOX_THREADS - 1))
policy = st.tuples(st.just("policy"), links,
                   st.sampled_from((SharingPolicy.SHARED,
                                    SharingPolicy.FULLDUPLEX)))


def committed_values() -> tuple:
    return tuple((link.committed, link.policy) for link in LINKS)


@settings(max_examples=200)
@given(st.lists(st.one_of(write, enter, leave, policy), max_size=40))
def test_state_tokens_are_exact(steps):
    """After every step of committed writes (from this thread or another),
    sandboxed writes (each sandbox on its own thread), sandbox exits and
    policy writes: equal ``PLATFORM.state_stamp`` means equal committed
    values and policies of its links; with no sandbox open, live ==
    committed; a memoized ``comm_spec`` == one computed on a memo-less copy
    of its route."""
    # one single-thread executor per sandbox: a sandbox opens, writes and
    # exits on its own thread
    threads = [ThreadPoolExecutor(max_workers=1)
               for _ in range(SANDBOX_THREADS)]
    stacks = [ExitStack() for _ in range(SANDBOX_THREADS)]
    open_ = [False] * SANDBOX_THREADS
    seen: dict[int, tuple] = {}
    try:
        for step in steps:
            kind = step[0]
            if kind == "write":
                _, where, index, (field, value) = step
                action = (setattr, LINKS[index], field, value)
                if where == "main":
                    setattr(*action[1:])
                elif where == "new":
                    writer = threading.Thread(target=setattr,
                                              args=action[1:])
                    writer.start()
                    writer.join(10.0)
                    assert not writer.is_alive()
                else:
                    threads[where].submit(*action).result(10.0)
            elif kind == "enter" and not open_[step[1]]:
                threads[step[1]].submit(stacks[step[1]].enter_context,
                                        link_sandbox()).result(10.0)
                open_[step[1]] = True
            elif kind == "exit" and open_[step[1]]:
                threads[step[1]].submit(stacks[step[1]].close).result(10.0)
                open_[step[1]] = False
            elif kind == "policy":
                LINKS[step[1]].policy = step[2]

            values = committed_values()
            assert seen.setdefault(PLATFORM.state_stamp, values) == values
            if not any(open_):
                assert all((link.bandwidth, link.latency) == link.committed
                           for link in LINKS)
            for route in ROUTES:
                for model in MODELS:
                    assert model.comm_spec(route) == model.comm_spec(
                        list(route))
    finally:
        for thread, stack in zip(threads, stacks):
            thread.submit(stack.close).result(10.0)
            thread.shutdown(wait=True)
    assert all((link.bandwidth, link.latency) == link.committed
               for link in LINKS)


# -- guards ------------------------------------------------------------------------

#: Who may read the every-write ``link_epoch()`` — readers that must see
#: transient what-if writes too.  An answer cache keys on its platform's
#: ``state_stamp``, a warm pool's generation on ``link_state_version()``.
LINK_EPOCH_READERS = {
    ("simgrid/models.py", "SharingModel.comm_spec"):
        "a route memo holds live values, a what-if's transient ones too",
    ("simgrid/engine.py", "Simulation.__init__"):
        "in-flight comms recalibrate on any live write",
    ("simgrid/engine.py", "Simulation._reshare"):
        "in-flight comms recalibrate on any live write",
    ("surrogate/tier.py", "SurrogateTier.__init__"): "surrogate freshness",
    ("surrogate/tier.py", "SurrogateTier.try_answer"): "surrogate freshness",
    ("surrogate/tier.py", "SurrogateTier.stats"): "surrogate freshness",
    ("surrogate/features.py", "featurize_request"): "surrogate freshness",
    ("serving/gateway/shard.py", "shard_main.stats_payload"):
        "gateway stats: a shard's every-write count",
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative != "simgrid/platform.py":
            yield relative, ast.parse(path.read_text("utf-8"))


def _walk(node, scope=(), classes=()):
    """Yield ``(node, enclosing def/class names, enclosing ClassDefs)``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _walk(child, scope + (child.name,), classes)
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, scope + (child.name,), classes + (child,))
        else:
            yield child, scope, classes
            yield from _walk(child, scope, classes)


def test_only_the_listed_readers_call_link_epoch():
    readers = {
        (module, ".".join(scope))
        for module, tree in _modules()
        for node, scope, _ in _walk(tree)
        if (isinstance(node, ast.Name) and node.id == "link_epoch")
        or (isinstance(node, ast.Attribute) and node.attr == "link_epoch")}
    assert readers == set(LINK_EPOCH_READERS)


def test_no_module_but_the_platform_assigns_a_link_value_field():
    """A write that skips the ``Link`` setters would move a live value
    without moving any token: every cache would miss the change."""
    fields = {name for name in Link.__slots__ if name.startswith("_")}

    def inside_a_link(classes):
        return any(isinstance(base, ast.Name) and base.id == "Link"
                   for cls in classes for base in cls.bases)

    offenders = []
    for module, tree in _modules():
        for node, _scope, classes in _walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in fields
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self"
                             and not inside_a_link(classes))):
                offenders.append((module, node.lineno))
            elif (isinstance(node, ast.Call) and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and node.args[1].value in fields):
                offenders.append((module, node.lineno))
    assert offenders == []
