"""Failure injection: malformed inputs must produce precise, typed errors."""

import pytest

from repro.core.ba import BAScheduler
from repro.core.bbsa import BBSAScheduler
from repro.core.oihsa import OIHSAScheduler
from repro.core.validate import validate_schedule
from repro.exceptions import (
    CycleError,
    GraphError,
    ReproError,
    RoutingError,
    SchedulingError,
    TopologyError,
)
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD, CommModel
from repro.network.builders import fully_connected, random_wan
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology
from repro.taskgraph.ccr import scale_to_ccr
from repro.taskgraph.generators import random_layered_dag
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


#: The contention engines under cut-through, a hop delay and store-and-forward.
_ENGINES = [
    (cls, comm)
    for cls in (BAScheduler, OIHSAScheduler, BBSAScheduler)
    for comm in (CUT_THROUGH, CommModel(hop_delay=0.5), STORE_AND_FORWARD)
]


def _validated_schedules(graph, net):
    """Every engine's schedule of ``graph`` on ``net``, each validated."""
    schedules = []
    for cls, comm in _ENGINES:
        schedule = cls(comm=comm).schedule(graph, net)
        validate_schedule(schedule)
        schedules.append(schedule)
    return schedules


class TestDegenerateWorkloads:
    def test_zero_weight_tasks_schedule(self, net2):
        g = TaskGraph()
        g.add_task(0, 0.0)
        g.add_task(1, 0.0)
        g.add_edge(0, 1, 5.0)
        _validated_schedules(g, net2)

    def test_all_zero_cost_edges(self, net4):
        g = TaskGraph()
        for i in range(4):
            g.add_task(i, 2.0)
        for i in range(3):
            g.add_edge(i, i + 1, 0.0)
        _validated_schedules(g, net4)

    def test_single_task_single_processor(self):
        g = TaskGraph()
        g.add_task(0, 3.0)
        net = fully_connected(1)
        for s in _validated_schedules(g, net):
            assert s.makespan == 3.0

    def test_wide_independent_tasks(self, net4):
        g = TaskGraph()
        for i in range(12):
            g.add_task(i, 4.0)
        for s in _validated_schedules(g, net4):
            # Independent equal tasks spread over all 4 processors.
            assert len(s.processors_used()) == 4

    def test_high_ccr_on_searched_routes(self):
        # CCR 20 on a WAN with two to four processors a switch: most routes
        # cross the backbone, so OIHSA and BBSA search them, and with
        # communication twenty times the computation BBSA's hops wait on
        # busy links longest.
        g = scale_to_ccr(random_layered_dag(30, rng=3, density=0.3), 20.0)
        net = random_wan(16, rng=5, procs_per_switch=(2, 4), link_speed=(1, 10))
        schedules = _validated_schedules(g, net)
        bbsa = [s for s in schedules if s.bandwidth_state is not None]
        assert len(bbsa) == 3
        assert all(
            max(len(r) for r in s.bandwidth_state.routes().values()) >= 3 for s in bbsa
        )
