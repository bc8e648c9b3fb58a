"""Failure injection: malformed inputs must produce precise, typed errors."""

import pytest

from repro.core.ba import BAScheduler
from repro.core.oihsa import OIHSAScheduler
from repro.exceptions import (
    CycleError,
    GraphError,
    ReproError,
    RoutingError,
    SchedulingError,
    TopologyError,
)
from repro.network.builders import fully_connected
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology
from repro.taskgraph.graph import TaskGraph


def cyclic_graph():
    g = TaskGraph()
    g.add_task(0, 1.0)
    g.add_task(1, 1.0)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 0, 1.0)
    return g


def island_net():
    net = NetworkTopology()
    a, b = net.add_processor(), net.add_processor()
    c, d = net.add_processor(), net.add_processor()
    net.connect(a, b)
    net.connect(c, d)
    return net


class TestSchedulerInputErrors:
    def test_cyclic_graph_rejected(self, net2):
        with pytest.raises(CycleError):
            BAScheduler().schedule(cyclic_graph(), net2)

    def test_island_topology_rejected(self, chain3):
        with pytest.raises(TopologyError, match="disconnected"):
            OIHSAScheduler().schedule(chain3, island_net())

    def test_no_processor_topology_rejected(self, chain3):
        net = NetworkTopology()
        net.add_switch()
        with pytest.raises(TopologyError):
            BAScheduler().schedule(chain3, net)

    def test_error_hierarchy(self):
        # Every library error is catchable as ReproError.
        for exc in (CycleError, GraphError, RoutingError, SchedulingError, TopologyError):
            assert issubclass(exc, ReproError)

    def test_cycle_is_graph_error(self):
        assert issubclass(CycleError, GraphError)

    def test_routing_is_topology_error(self):
        assert issubclass(RoutingError, TopologyError)


class TestRoutingFailures:
    def test_island_route_fails_with_names(self):
        net = island_net()
        procs = [p.vid for p in net.processors()]
        with pytest.raises(RoutingError, match="no route"):
            bfs_route(net, procs[0], procs[2])


class TestStateMisuse:
    def test_rollback_without_begin(self):
        from repro.linksched.state import LinkScheduleState

        with pytest.raises(SchedulingError):
            LinkScheduleState().rollback()


class TestDegenerateWorkloads:
    def test_zero_weight_tasks_schedule(self, net2):
        g = TaskGraph()
        g.add_task(0, 0.0)
        g.add_task(1, 0.0)
        g.add_edge(0, 1, 5.0)
        from repro.core.validate import validate_schedule

        s = BAScheduler().schedule(g, net2)
        validate_schedule(s)

    def test_all_zero_cost_edges(self, net4):
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, 2.0)
        for i in range(3):
            g.add_edge(i, i + 1, 0.0)
        from repro.core.validate import validate_schedule

        for cls in (BAScheduler, OIHSAScheduler):
            validate_schedule(cls().schedule(g, net4))

    def test_single_task_single_processor(self):
        g = TaskGraph()
        g.add_task(0, 3.0)
        net = fully_connected(1)
        s = BAScheduler().schedule(g, net)
        assert s.makespan == 3.0

    def test_wide_independent_tasks(self, net4):
        g = TaskGraph()
        for i in range(12):
            g.add_task(i, 4.0)
        from repro.core.validate import validate_schedule

        s = OIHSAScheduler().schedule(g, net4)
        validate_schedule(s)
        # Independent equal tasks spread over all 4 processors.
        assert len(s.processors_used()) == 4
