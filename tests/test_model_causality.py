"""Tests for the causal-structure module (happens-before, cuts, clocks)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protocols import NUDCProcess
from repro.knowledge.chains import has_message_chain
from repro.model.causality import (
    causal_graph,
    concurrent,
    happens_before,
    is_consistent_cut,
    lamport_timestamps,
    time_cut_frontier,
)
from repro.model.context import make_process_ids
from repro.model.events import Message, ReceiveEvent, SendEvent
from repro.model.run import Run
from repro.sim.executor import Executor
from repro.sim.failures import CrashPlan
from repro.sim.process import uniform_protocol
from repro.workloads.generators import single_action

SMALL = ("p1", "p2", "p3")
PROCS = make_process_ids(4)
MSG = Message("m")


def relay_run():
    m2 = Message("fwd")
    return Run(
        SMALL,
        {
            "p1": [(2, SendEvent("p1", "p2", MSG))],
            "p2": [(4, ReceiveEvent("p2", "p1", MSG)), (5, SendEvent("p2", "p3", m2))],
            "p3": [(7, ReceiveEvent("p3", "p2", m2))],
        },
        duration=10,
    )


def edges(graph):
    return [(a, b) for a, succ in graph.succ.items() for b in succ]


def protocol_run(seed=0):
    return Executor(
        PROCS,
        uniform_protocol(NUDCProcess),
        crash_plan=CrashPlan.of({"p3": 9}),
        workload=single_action("p1", tick=1),
        seed=seed,
    ).run()


class TestCausalGraph:
    def test_nodes_are_events(self):
        g = causal_graph(relay_run())
        assert ("p1", 2) in g.events and ("p3", 7) in g.events
        assert isinstance(g.events["p1", 2], SendEvent)

    def test_local_and_message_edges(self):
        g = causal_graph(relay_run())
        assert g.succ["p2", 4]["p2", 5] == "local"
        assert g.succ["p1", 2]["p2", 4] == "message"

    def test_graph_is_dag(self):
        # Kahn's order reaches every node only if there is no cycle.
        for seed in range(3):
            run = protocol_run(seed)
            assert len(lamport_timestamps(run)) == len(causal_graph(run).events)

    def test_cycle_rejected(self):
        from repro.model.causality import CausalGraph, _topological_order

        a, b = ("p1", 1), ("p2", 2)
        cyclic = CausalGraph(
            {a: SendEvent("p1", "p2", MSG), b: SendEvent("p2", "p1", MSG)},
            {a: {b: "message"}, b: {a: "message"}},
        )
        with pytest.raises(ValueError):
            _topological_order(cyclic)

    def test_edges_respect_time(self):
        # R3 makes every causal edge point forward in global time.
        g = causal_graph(protocol_run())
        for (p1, t1), (p2, t2) in edges(g):
            assert t1 <= t2


class TestHappensBefore:
    def test_transitive_chain(self):
        r = relay_run()
        assert happens_before(r, ("p1", 2), ("p3", 7))
        assert not happens_before(r, ("p3", 7), ("p1", 2))

    def test_irreflexive(self):
        assert not happens_before(relay_run(), ("p1", 2), ("p1", 2))

    def test_concurrent_events(self):
        m2 = Message("x")
        r = Run(
            SMALL,
            {
                "p1": [(2, SendEvent("p1", "p2", MSG))],
                "p2": [],
                "p3": [(2, SendEvent("p3", "p2", m2))],
            },
            duration=5,
        )
        assert concurrent(r, ("p1", 2), ("p3", 2))

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError):
            happens_before(relay_run(), ("p1", 99), ("p3", 7))

    def test_agrees_with_message_chains(self):
        """Process-level projection: a chain from p after m to q by m'
        exists iff some event of p at >= m happens-before (or is) an
        event of q at <= m'."""
        run = protocol_run()
        g = causal_graph(run)
        for target in ("p2", "p4"):
            chain = has_message_chain(run, "p1", 1, target, run.duration)
            p1_nodes = [n for n in g.events if n[0] == "p1" and n[1] >= 1]
            reach = any(
                happens_before(run, a, b)
                for a in p1_nodes
                for b in g.events
                if b[0] == target
            )
            assert chain == reach


class TestConsistentCuts:
    def test_time_cuts_are_consistent(self):
        run = protocol_run()
        for m in range(0, run.duration + 1, 5):
            assert is_consistent_cut(run, time_cut_frontier(run, m))

    def test_receive_without_send_is_inconsistent(self):
        r = relay_run()
        # Include p2's receive (1 event... receive is p2's first event)
        # but nothing of p1.
        frontier = {"p1": 0, "p2": 1, "p3": 0}
        assert not is_consistent_cut(r, frontier)

    def test_send_without_receive_is_fine(self):
        r = relay_run()
        frontier = {"p1": 1, "p2": 0, "p3": 0}
        assert is_consistent_cut(r, frontier)

    def test_out_of_range_frontier_rejected(self):
        with pytest.raises(ValueError):
            is_consistent_cut(relay_run(), {"p1": 99})


class TestLamportClocks:
    def test_clock_condition(self):
        run = protocol_run()
        clocks = lamport_timestamps(run)
        g = causal_graph(run)
        for a, b in edges(g):
            assert clocks[a] < clocks[b]

    def test_sources_start_at_one(self):
        clocks = lamport_timestamps(relay_run())
        assert clocks[("p1", 2)] == 1
        assert clocks[("p3", 7)] == 4  # send, recv, send, recv

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10**4))
    def test_clock_condition_property(self, seed):
        run = protocol_run(seed % 50)
        clocks = lamport_timestamps(run)
        g = causal_graph(run)
        for a, b in edges(g):
            assert clocks[a] < clocks[b]


class TestVectorClocks:
    def test_strong_clock_condition(self):
        """V(a) < V(b) iff a happens-before b -- the characterisation
        Lamport clocks lack."""
        from repro.model.causality import vector_less, vector_timestamps

        run = protocol_run()
        clocks = vector_timestamps(run)
        g = causal_graph(run)
        nodes = list(g.events)[:30]  # keep the quadratic check bounded
        for a, b in itertools.combinations(nodes, 2):
            hb = happens_before(run, a, b)
            assert vector_less(clocks[a], clocks[b]) == hb

    def test_own_component_counts_events(self):
        from repro.model.causality import vector_timestamps

        run = relay_run()
        clocks = vector_timestamps(run)
        assert clocks[("p2", 5)]["p2"] == 2  # p2's second event
        assert clocks[("p2", 5)]["p1"] == 1  # saw p1's send

    def test_concurrent_events_incomparable(self):
        from repro.model.causality import vector_less, vector_timestamps

        m2 = Message("x")
        r = Run(
            SMALL,
            {
                "p1": [(2, SendEvent("p1", "p2", MSG))],
                "p2": [],
                "p3": [(2, SendEvent("p3", "p2", m2))],
            },
            duration=5,
        )
        clocks = vector_timestamps(r)
        a, b = clocks[("p1", 2)], clocks[("p3", 2)]
        assert not vector_less(a, b) and not vector_less(b, a)
