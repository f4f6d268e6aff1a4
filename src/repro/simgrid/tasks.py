"""Tasks: units of computation + data, for workflow forecasting.

The paper's future work (§VI) plans "some service which will not only
forecast network transfers but also full workflows involving computations and
network transfers […] adding the simulation of computation will be
straightforward".  :class:`Task` is the unit those workflows are made of:
``flops`` of computation producing ``output_bytes`` of data for its
successors.  :mod:`repro.core.workflow` runs DAGs of these on the kernel's
done callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Task:
    """One workflow node: a computation and the data it emits downstream."""

    name: str
    flops: float = 0.0
    output_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.flops < 0:
            raise ValueError(f"task {self.name!r}: flops must be >= 0")
        if self.output_bytes < 0:
            raise ValueError(f"task {self.name!r}: output_bytes must be >= 0")


@dataclass
class TaskGraph:
    """A DAG of tasks with host placements.

    ``placement`` maps task name → host name; ``edges`` is a list of
    ``(producer, consumer)`` task-name pairs.  Data of ``producer`` moves to
    the consumer's host before the consumer may start (when both run on the
    same host the transfer is a loopback).
    """

    tasks: dict[str, Task] = field(default_factory=dict)
    edges: list[tuple[str, str]] = field(default_factory=list)
    placement: dict[str, str] = field(default_factory=dict)

    def add_task(self, task: Task, host: str) -> Task:
        if task.name in self.tasks:
            raise ValueError(f"duplicate task {task.name!r}")
        self.tasks[task.name] = task
        self.placement[task.name] = host
        return task

    def add_edge(self, producer: str, consumer: str) -> None:
        for name in (producer, consumer):
            if name not in self.tasks:
                raise ValueError(f"unknown task {name!r}")
        if (producer, consumer) in self.edges:
            raise ValueError(f"duplicate edge {producer!r}->{consumer!r}")
        self.edges.append((producer, consumer))

    def predecessors(self, name: str) -> list[str]:
        return [p for (p, c) in self.edges if c == name]

    def successors(self, name: str) -> list[str]:
        return [c for (p, c) in self.edges if p == name]

    def roots(self) -> list[str]:
        return [name for name in self.tasks if not self.predecessors(name)]

    def validate(self) -> None:
        """Raise :class:`ValueError` on cycles or missing placements."""
        for name in self.tasks:
            if name not in self.placement:
                raise ValueError(f"task {name!r} has no placement")
        # Kahn's algorithm for cycle detection
        indegree = {name: len(self.predecessors(name)) for name in self.tasks}
        queue = [name for name, deg in indegree.items() if deg == 0]
        seen = 0
        while queue:
            node = queue.pop()
            seen += 1
            for succ in self.successors(node):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        if seen != len(self.tasks):
            raise ValueError("task graph has a cycle")
