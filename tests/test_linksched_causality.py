"""Unit tests for repro.linksched.causality."""

import pytest

from repro.exceptions import TopologyError, ValidationError
from repro.linksched.causality import check_route_causality, check_route_connectivity
from repro.linksched.slots import TimeSlot
from repro.linksched.state import LinkScheduleState
from repro.network.builders import linear_array, shared_bus
from repro.network.io import topology_from_json, topology_to_json
from repro.network.routing import bfs_route
from repro.network.topology import NetworkTopology


def booked_state(net, route, *, shift_second=0.0):
    state = LinkScheduleState()
    state.record_route((0, 1), tuple(l.lid for l in route))
    state.insert(route[0].lid, 0, TimeSlot((0, 1), 1.0, 3.0))
    state.insert(route[1].lid, 0, TimeSlot((0, 1), 1.0 + shift_second, 3.0 + shift_second))
    return state


class TestRouteCausality:
    def _net(self):
        net = linear_array(3, link_speed=1.0)
        ps = [p.vid for p in net.processors()]
        return net, bfs_route(net, ps[0], ps[2])

    def test_valid_booking_passes(self):
        net, route = self._net()
        state = booked_state(net, route, shift_second=1.0)
        check_route_causality(state, net, (0, 1), 2.0, ready_time=1.0)

    def test_wrong_duration_rejected(self):
        net, route = self._net()
        state = booked_state(net, route)
        with pytest.raises(ValidationError, match="duration"):
            check_route_causality(state, net, (0, 1), 5.0)

    def test_start_regression_rejected(self):
        net, route = self._net()
        state = booked_state(net, route, shift_second=-0.5)
        with pytest.raises(ValidationError, match="causality bound"):
            check_route_causality(state, net, (0, 1), 2.0)

    def test_start_before_ready_rejected(self):
        net, route = self._net()
        state = booked_state(net, route)
        with pytest.raises(ValidationError, match="before"):
            check_route_causality(state, net, (0, 1), 2.0, ready_time=2.0)

    def test_empty_route_passes(self):
        net, _ = self._net()
        state = LinkScheduleState()
        state.record_route((0, 1), ())
        check_route_causality(state, net, (0, 1), 2.0, ready_time=0.0)


class TestRouteConnectivity:
    def test_empty_route_same_processor(self):
        net = linear_array(2)
        p = net.processors()[0].vid
        check_route_connectivity(net, (), p, p)

    def test_empty_route_distinct_rejected(self):
        net = linear_array(2)
        a, b = (p.vid for p in net.processors())
        with pytest.raises(ValidationError):
            check_route_connectivity(net, (), a, b)

    def test_valid_route(self):
        net = linear_array(3)
        ps = [p.vid for p in net.processors()]
        route = tuple(l.lid for l in bfs_route(net, ps[0], ps[2]))
        check_route_connectivity(net, route, ps[0], ps[2])

    def test_wrong_destination_rejected(self):
        net = linear_array(3)
        ps = [p.vid for p in net.processors()]
        route = tuple(l.lid for l in bfs_route(net, ps[0], ps[1]))
        with pytest.raises(ValidationError):
            check_route_connectivity(net, route, ps[0], ps[2])

    def test_unreachable_hop_rejected(self):
        net = linear_array(3)
        ps = [p.vid for p in net.processors()]
        far = tuple(l.lid for l in bfs_route(net, ps[1], ps[2]))
        with pytest.raises(ValidationError):
            check_route_connectivity(net, far, ps[0], ps[2])

    def test_bus_route(self):
        net = shared_bus(4)
        ps = [p.vid for p in net.processors()]
        (bus,) = list(net.links())
        check_route_connectivity(net, (bus.lid,), ps[0], ps[2])

    @staticmethod
    def _mixed():
        """P0 on a half-duplex cable, P1 on a full-duplex one, and P2, P3
        and the switch on a bus."""
        net = NetworkTopology("mixed")
        p = [net.add_processor().vid for _ in range(4)]
        s = net.add_switch().vid
        (half,) = net.connect(p[0], s, duplex="half")
        up, down = net.connect(p[1], s)
        bus = net.add_bus([p[2], p[3], s])
        return net, p, (half.lid, up.lid, down.lid, bus.lid)

    @pytest.mark.parametrize("loaded", [False, True])
    def test_half_duplex_cable_and_bus(self, loaded):
        net, p, (half, up, down, bus) = self._mixed()
        if loaded:
            net = topology_from_json(topology_to_json(net))
        check_route_connectivity(net, (half, down), p[0], p[1])
        check_route_connectivity(net, (up, half), p[1], p[0])
        check_route_connectivity(net, (half, bus), p[0], p[3])
        # Past a bus every member the next link leaves from is a candidate.
        check_route_connectivity(net, (bus, down), p[2], p[1])
        check_route_connectivity(net, (bus, bus), p[2], p[3])
        with pytest.raises(ValidationError) as info:
            check_route_connectivity(net, (bus, half), p[2], p[1])
        assert str(info.value) == (
            f"route ({bus}, {half}) from {p[2]} ends at [{p[0]}], "
            f"not at destination {p[1]}"
        )
        with pytest.raises(ValidationError) as info:
            check_route_connectivity(net, (half, up), p[0], p[1])
        assert str(info.value) == (
            f"route of {p[0]}->{p[1]}: link {up} (hop 1) does not leave any "
            f"reachable vertex [{net.switches()[0].vid}]"
        )

    def test_mutation_drops_the_heads_table(self):
        net = linear_array(2)
        a, b = (p.vid for p in net.processors())
        route = tuple(l.lid for l in bfs_route(net, a, b))
        check_route_connectivity(net, route, a, b)
        c = net.add_processor().vid
        (link, _) = net.connect(b, c)
        check_route_connectivity(net, route + (link.lid,), a, c)

    def test_unknown_link_or_vertex_is_a_topology_error(self):
        net = linear_array(2)
        a, b = (p.vid for p in net.processors())
        route = tuple(l.lid for l in bfs_route(net, a, b))
        with pytest.raises(TopologyError):
            check_route_connectivity(net, (999,), a, b)
        with pytest.raises(TopologyError):
            check_route_connectivity(net, route, 999, b)
