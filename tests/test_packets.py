"""Tests for the packet-switched link engine and PacketBAScheduler."""

import pytest

from repro.core.ba import BAScheduler
from repro.core.packetba import PacketBAScheduler
from repro.core.validate import validate_schedule
from repro.exceptions import SchedulingError
from repro.linksched.commmodel import STORE_AND_FORWARD
from repro.linksched.insertion import schedule_edge_basic
from repro.linksched.packets import PacketLinkState
from repro.linksched.slots import find_gap
from repro.linksched.state import LinkScheduleState
from repro.network.builders import linear_array, random_wan
from repro.network.routing import bfs_route
from repro.taskgraph.ccr import scale_to_ccr
from repro.taskgraph.kernels import fork_join


def route3(speed=1.0):
    net = linear_array(3, link_speed=speed)
    ps = [p.vid for p in net.processors()]
    return net, bfs_route(net, ps[0], ps[2])


class TestPacketEngine:
    def test_one_packet_equals_store_and_forward(self):
        net, route = route3()
        packets = PacketLinkState()
        a_pkt = packets.schedule_edge((0, 1), route, 10.0, 0.0, n_packets=1)
        slots = LinkScheduleState()
        a_sf = schedule_edge_basic(slots, (0, 1), route, 10.0, 0.0, STORE_AND_FORWARD)
        assert a_pkt == a_sf == 20.0

    def test_more_packets_pipeline(self):
        net, route = route3()
        arrivals = []
        for k in (1, 2, 5, 20):
            state = PacketLinkState()
            arrivals.append(state.schedule_edge((0, 1), route, 10.0, 0.0, n_packets=k))
        assert arrivals == sorted(arrivals, reverse=True)
        # k packets: arrival = 10 + 10/k (last packet crosses last hop after
        # the full message crossed hop 1).
        assert arrivals[1] == pytest.approx(15.0)
        assert arrivals[-1] == pytest.approx(10.5)

    def test_converges_to_cut_through_limit(self):
        net, route = route3()
        state = PacketLinkState()
        arrival = state.schedule_edge((0, 1), route, 10.0, 0.0, n_packets=1000)
        # Cut-through limit for this route is 10.0.
        assert arrival == pytest.approx(10.0, abs=0.05)

    def test_fifo_within_edge(self):
        net, route = route3()
        state = PacketLinkState()
        state.schedule_edge((0, 1), route, 10.0, 0.0, n_packets=4)
        for link in route:
            slots = state.slots_of((0, 1), link.lid)
            for a, b in zip(slots, slots[1:]):
                assert b.start >= a.finish - 1e-9

    def test_contention_between_edges(self):
        net, route = route3()
        state = PacketLinkState()
        a1 = state.schedule_edge((0, 1), [route[0]], 10.0, 0.0, n_packets=2)
        a2 = state.schedule_edge((2, 3), [route[0]], 10.0, 0.0, n_packets=2)
        assert a2 >= a1  # shared link serializes the packets overall

    def test_small_packets_interleave_into_gaps(self):
        net, route = route3()
        state = PacketLinkState()
        # Big transfer leaves inter-packet gaps on link 2; a later small
        # transfer on link 2 only may use them.
        state.schedule_edge((0, 1), route, 12.0, 0.0, n_packets=3)
        a = state.schedule_edge((2, 3), [route[1]], 2.0, 0.0, n_packets=1)
        assert a <= 6.0  # fits into the first idle window on link 2

    def test_later_packets_fill_earlier_gaps_like_find_gap(self):
        net, route = route3()
        link = route[0]
        state = PacketLinkState()
        # Earlier bookings leave idle windows [2, 5) and [7, 12) on the link.
        for edge, ready in (((0, 1), 0.0), ((2, 3), 5.0), ((4, 5), 12.0)):
            state.schedule_edge(edge, [link], 2.0, ready, n_packets=1)
        queue = list(state.slots(link.lid))
        late = (6, 7)
        state.schedule_edge(late, [link], 6.0, 1.0, n_packets=4)
        # The slot engine's linear scan, packet by packet on the same queue.
        est = 1.0
        for slot in state.slots_of(late, link.lid):
            index, start, finish = find_gap(queue, 1.5, est)
            assert (slot.start, slot.finish) == (start, finish)
            queue.insert(index, slot)
            est = finish
        assert state.slots(link.lid) == queue
        assert [s.edge for s in queue] == [
            (0, 1), late, late, (2, 3), late, late, (4, 5)
        ]

    def test_hop_delay(self):
        net, route = route3()
        state = PacketLinkState()
        arrival = state.schedule_edge((0, 1), route, 10.0, 0.0, n_packets=2, hop_delay=3.0)
        assert arrival == pytest.approx(18.0)  # 15 + one hop delay

    def test_zero_cost_and_empty_route(self):
        state = PacketLinkState()
        assert state.schedule_edge((0, 1), [], 5.0, 2.0, n_packets=4) == 2.0
        net, route = route3()
        assert state.schedule_edge((2, 3), route, 0.0, 2.0, n_packets=4) == 2.0

    def test_bad_args(self):
        net, route = route3()
        state = PacketLinkState()
        with pytest.raises(SchedulingError):
            state.schedule_edge((0, 1), route, 1.0, 0.0, n_packets=0)
        with pytest.raises(SchedulingError):
            state.schedule_edge((0, 1), route, 1.0, -1.0, n_packets=1)
        state.schedule_edge((0, 1), route, 1.0, 0.0, n_packets=1)
        with pytest.raises(SchedulingError):
            state.schedule_edge((0, 1), route, 1.0, 0.0, n_packets=1)


class TestPacketBAScheduler:
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_validates(self, k, fork8, wan16):
        s = PacketBAScheduler(n_packets=k).schedule(scale_to_ccr(fork8, 2.0), wan16)
        validate_schedule(s)
        assert s.packet_state is not None

    def test_more_packets_never_hurt_much(self):
        g = scale_to_ccr(fork_join(6, rng=1), 2.0)
        net = random_wan(8, rng=3)
        m1 = PacketBAScheduler(n_packets=1).schedule(g, net).makespan
        m8 = PacketBAScheduler(n_packets=8).schedule(g, net).makespan
        assert m8 <= m1 * 1.05

    def test_many_packets_approach_ba_cut_through(self):
        g = scale_to_ccr(fork_join(6, rng=1), 2.0)
        net = random_wan(8, rng=3)
        ba_ct = BAScheduler(shared_ready_time=False).schedule(g, net).makespan
        pkt = PacketBAScheduler(n_packets=64).schedule(g, net).makespan
        assert pkt <= ba_ct * 1.25

    def test_bad_params(self):
        with pytest.raises(SchedulingError):
            PacketBAScheduler(n_packets=0)

    def test_corrupted_packets_detected(self, fork8, wan16):
        from repro.exceptions import ValidationError
        from repro.linksched.packets import PacketSlot

        s = PacketBAScheduler(n_packets=2).schedule(scale_to_ccr(fork8, 2.0), wan16)
        state = s.packet_state
        lid = state.used_links()[0]
        slot = state.slots(lid)[0]
        # Shift one packet to overlap its neighbour.
        state._queues[lid][0] = PacketSlot(
            slot.edge, slot.packet, slot.start, slot.finish + 1e6
        )
        with pytest.raises(ValidationError):
            validate_schedule(s)


class TestPacketIntegration:
    def test_round_trip_serialization(self, fork8, wan16):
        from repro.core.io import schedule_from_json, schedule_to_json

        s = PacketBAScheduler(n_packets=3).schedule(scale_to_ccr(fork8, 2.0), wan16)
        back = schedule_from_json(schedule_to_json(s))
        validate_schedule(back)
        assert back.makespan == s.makespan
        assert back.packet_state is not None
        routed = next(k for k, v in back.packet_state.routes().items() if v)
        assert back.packet_state.packets_of(routed) == 3

    def test_link_gantt_shows_packets(self, fork8, wan16):
        from repro.viz.gantt import link_gantt

        s = PacketBAScheduler(n_packets=2).schedule(scale_to_ccr(fork8, 2.0), wan16)
        out = link_gantt(s)
        assert ".0" in out or ".1" in out  # packet suffix in the labels

    def test_link_utilization_and_report(self, fork8, wan16):
        from repro.core.metrics import comm_to_comp_time, link_utilization
        from repro.viz.report import schedule_report

        s = PacketBAScheduler(n_packets=2).schedule(scale_to_ccr(fork8, 2.0), wan16)
        util = link_utilization(s)
        assert util and all(0 <= u <= 1 + 1e-9 for u in util.values())
        assert comm_to_comp_time(s) > 0
        assert "comm/comp" in schedule_report(s, gantt=False)

    def test_resimulates(self, fork8, wan16):
        from repro.core.eventsim import resimulate

        s = PacketBAScheduler(n_packets=4).schedule(scale_to_ccr(fork8, 2.0), wan16)
        assert resimulate(s).makespan == pytest.approx(s.makespan)
