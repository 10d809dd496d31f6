"""Causal structure of runs: happens-before, consistent cuts (Lamport).

The paper's cuts are *time* cuts (tuples of prefixes at one global
time), which condition R3 makes automatically consistent: every receive
inside the cut has its send inside.  This module makes the causal
structure explicit:

* :func:`causal_graph` -- the happens-before DAG over a run's events
  (local-order edges plus matched send->receive edges), as stdlib
  adjacency dicts (:class:`CausalGraph`);
* :func:`happens_before` -- Lamport's relation, by reachability;
* :func:`is_consistent_cut` -- arbitrary per-process prefix vectors,
  checked for causal closure;
* :func:`lamport_timestamps` -- classic logical clocks, for tests and
  traces.

The message-chain relation of :mod:`repro.knowledge.chains` is the
process-level projection of this graph; the property tests check the
two agree.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.knowledge.chains import match_sends_to_receives
from repro.model.events import Event, ProcessId, ReceiveEvent
from repro.model.run import Run

#: A node is (process, tick): by R2 at most one event per process-tick.
Node = tuple[ProcessId, int]


class CausalGraph(NamedTuple):
    """The happens-before DAG as adjacency dicts."""

    events: dict[Node, Event]  # every node's event, timeline by timeline
    succ: dict[Node, dict[Node, str]]  # successor -> edge kind, "local" or "message"


def causal_graph(run: Run) -> CausalGraph:
    """The happens-before DAG of the run's events."""
    graph = CausalGraph({}, {})
    for p in run.processes:
        previous: Node | None = None
        for t, event in run.timeline(p):
            node: Node = (p, t)
            graph.events[node] = event
            graph.succ[node] = {}
            if previous is not None:
                graph.succ[previous][node] = "local"
            previous = node
    for (recv_p, recv_t), (send_p, send_t) in match_sends_to_receives(run).items():
        graph.succ[send_p, send_t][recv_p, recv_t] = "message"
    return graph


def _reaches(graph: CausalGraph, a: Node, b: Node) -> bool:
    """Is there a path of at least one edge from a to b?  (Breadth-first.)"""
    queue = list(graph.succ[a])
    seen = set(queue)
    for node in queue:
        fresh = [n for n in graph.succ[node] if n not in seen]
        seen.update(fresh)
        queue.extend(fresh)
    return b in seen


def _topological_order(graph: CausalGraph) -> list[tuple[Node, list[Node]]]:
    """Kahn's algorithm: every node with its predecessors, each after
    all of them; raises ValueError if the graph has a cycle."""
    preds: dict[Node, list[Node]] = {node: [] for node in graph.events}
    for node, succ in graph.succ.items():
        for nxt in succ:
            preds[nxt].append(node)
    waiting = {node: len(before) for node, before in preds.items()}
    order = [node for node, count in waiting.items() if count == 0]
    for node in order:
        for nxt in graph.succ[node]:
            waiting[nxt] -= 1
            if waiting[nxt] == 0:
                order.append(nxt)
    if len(order) != len(preds):
        raise ValueError("the causal graph has a cycle")
    return [(node, preds[node]) for node in order]


def _checked(run: Run, a: Node, b: Node) -> CausalGraph:
    """The run's causal graph; KeyError unless a and b are events in it."""
    graph = causal_graph(run)
    if a not in graph.events or b not in graph.events:
        raise KeyError(f"no event at {a!r} or {b!r}")
    return graph


def happens_before(run: Run, a: Node, b: Node) -> bool:
    """Lamport's happened-before: a path in the causal graph (strict)."""
    return a != b and _reaches(_checked(run, a, b), a, b)


def concurrent(run: Run, a: Node, b: Node) -> bool:
    """Neither happens before the other."""
    graph = _checked(run, a, b)
    return a != b and not _reaches(graph, a, b) and not _reaches(graph, b, a)


def is_consistent_cut(run: Run, frontier: dict[ProcessId, int]) -> bool:
    """Is the per-process prefix vector causally closed?

    ``frontier[p]`` is the number of events of p inside the cut.  The
    cut is consistent iff every receive inside has its matched send
    inside.
    """
    for p in run.processes:
        count = frontier.get(p, 0)
        if not 0 <= count <= len(run.timeline(p)):
            raise ValueError(f"frontier for {p} out of range")
    included: set[Node] = set()
    for p in run.processes:
        for t, _ in run.timeline(p)[: frontier.get(p, 0)]:
            included.add((p, t))
    matching = match_sends_to_receives(run)
    for p in run.processes:
        for t, event in run.timeline(p)[: frontier.get(p, 0)]:
            if isinstance(event, ReceiveEvent):
                send = matching.get((p, t))
                if send is not None and send not in included:
                    return False
    return True


def time_cut_frontier(run: Run, time: int) -> dict[ProcessId, int]:
    """The frontier of the paper's cut r(time)."""
    return {
        p: sum(1 for t, _ in run.timeline(p) if t <= time)
        for p in run.processes
    }


def lamport_timestamps(run: Run) -> dict[Node, int]:
    """Classic Lamport clocks: C(b) > C(a) whenever a happens-before b."""
    clocks: dict[Node, int] = {}
    for node, preds in _topological_order(causal_graph(run)):
        clocks[node] = max((clocks[p] for p in preds), default=0) + 1
    return clocks


def vector_timestamps(run: Run) -> dict[Node, dict[ProcessId, int]]:
    """Vector clocks: V(a) < V(b) iff a happens-before b (the strong
    clock condition Lamport clocks lack)."""
    clocks: dict[Node, dict[ProcessId, int]] = {}
    for node, preds in _topological_order(causal_graph(run)):
        p, _ = node
        merged = {q: 0 for q in run.processes}
        for pred in preds:
            for q, value in clocks[pred].items():
                if value > merged[q]:
                    merged[q] = value
        merged[p] += 1
        clocks[node] = merged
    return clocks


def vector_less(
    a: dict[ProcessId, int], b: dict[ProcessId, int]
) -> bool:
    """The strict vector order: a <= b pointwise and a != b."""
    return all(a[q] <= b[q] for q in a) and a != b
