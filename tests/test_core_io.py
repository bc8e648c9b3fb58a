"""Tests for repro.core.io (schedule serialization round trips)."""

import json

import pytest

from repro.core.ba import BAScheduler
from repro.core.bbsa import BBSAScheduler
from repro.core.classic import ClassicScheduler
from repro.core.io import schedule_from_json, schedule_to_json
from repro.core.oihsa import OIHSAScheduler
from repro.core.validate import validate_schedule
from repro.exceptions import SerializationError
from repro.linksched.commmodel import CUT_THROUGH, STORE_AND_FORWARD, CommModel


@pytest.mark.parametrize(
    "cls", [ClassicScheduler, BAScheduler, OIHSAScheduler, BBSAScheduler]
)
class TestRoundTrip:
    def test_round_trip_validates(self, cls, diamond4, wan16):
        original = cls().schedule(diamond4, wan16)
        back = schedule_from_json(schedule_to_json(original))
        validate_schedule(back)

    def test_round_trip_preserves_core_fields(self, cls, diamond4, wan16):
        original = cls().schedule(diamond4, wan16)
        back = schedule_from_json(schedule_to_json(original))
        assert back.algorithm == original.algorithm
        assert back.makespan == original.makespan
        assert back.edge_arrivals == original.edge_arrivals
        for tid, pl in original.placements.items():
            bpl = back.placements[tid]
            assert (bpl.processor, bpl.start, bpl.finish) == (
                pl.processor, pl.start, pl.finish,
            )

    def test_round_trip_preserves_routes(self, cls, diamond4, wan16):
        original = cls().schedule(diamond4, wan16)
        back = schedule_from_json(schedule_to_json(original))
        if original.link_state is None and original.bandwidth_state is None:
            return
        for e in diamond4.edges():
            assert back.edge_route(e.key) == original.edge_route(e.key)


class TestCommAndErrors:
    def test_comm_model_round_trips(self, diamond4, wan16):
        comm = CommModel("store-and-forward", 3.5)
        original = OIHSAScheduler(comm=comm).schedule(diamond4, wan16)
        back = schedule_from_json(schedule_to_json(original))
        assert back.comm == comm
        validate_schedule(back)

    def test_fork_contention_round_trips(self, fork8, wan16):
        original = BBSAScheduler().schedule(fork8, wan16)
        back = schedule_from_json(schedule_to_json(original))
        validate_schedule(back)

    @pytest.mark.parametrize(
        "comm", [CUT_THROUGH, CommModel(hop_delay=0.5), STORE_AND_FORWARD]
    )
    def test_bbsa_round_trip_keeps_every_curve(self, fork8, wan16, comm):
        original = BBSAScheduler(comm=comm).schedule(fork8, wan16)
        back = schedule_from_json(schedule_to_json(original))
        hops = 0
        for e in fork8.edges():
            old = original.bandwidth_state.bookings_of(e.key)
            new = back.bandwidth_state.bookings_of(e.key)
            assert [b.lid for b in new] == [b.lid for b in old]
            for a, b in zip(old, new):
                assert repr(b.arrival.points) == repr(a.arrival.points)
                assert repr(b.departure.points) == repr(a.departure.points)
                assert repr(b.usage) == repr(a.usage)
                hops += 1
        assert hops > fork8.num_edges // 2
        # Replaying the usage in booking order rebuilds every link profile.
        lids = {
            b.lid
            for e in fork8.edges()
            for b in original.bandwidth_state.bookings_of(e.key)
        }
        for lid in lids:
            assert repr(back.bandwidth_state.profile(lid).segments) == repr(
                original.bandwidth_state.profile(lid).segments
            )

    @pytest.mark.parametrize(
        "comm", [CUT_THROUGH, CommModel(hop_delay=0.5), STORE_AND_FORWARD]
    )
    def test_old_bbsa_export_with_waiting_points_validates(self, fork8, wan16, comm):
        # A departure once kept a breakpoint at every link boundary its hop
        # crossed while waiting for data: an extra point inside a flat piece,
        # carried into the next hop's arrival.  Such an export still loads
        # and validates, and a fresh export still round-trips as text.
        text = schedule_to_json(BBSAScheduler(comm=comm).schedule(fork8, wan16))
        assert schedule_to_json(schedule_from_json(text)) == text
        doc = json.loads(text)
        added = 0
        for booking in doc["bandwidth_state"]["bookings"]:
            for hop in booking["hops"]:
                for key in ("arrival", "departure"):
                    points = hop[key][:1]
                    for (t0, v0), (t1, v1) in zip(hop[key], hop[key][1:]):
                        if v1 == v0 and t1 > t0:
                            points.append([(t0 + t1) / 2, v0])
                            added += 1
                        points.append([t1, v1])
                    hop[key] = points
        assert added
        validate_schedule(schedule_from_json(json.dumps(doc)))

    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            schedule_from_json("nope{")

    def test_wrong_format(self):
        with pytest.raises(SerializationError):
            schedule_from_json(json.dumps({"format": "other"}))

    def test_missing_fields(self):
        with pytest.raises(SerializationError):
            schedule_from_json(json.dumps({"format": "repro.schedule/v1"}))

    def test_document_is_stable(self, diamond4, net4):
        s = BAScheduler().schedule(diamond4, net4)
        assert schedule_to_json(s) == schedule_to_json(s)
