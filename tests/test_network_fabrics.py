"""Property-based invariants for the datacenter fabric generators.

For Hypothesis-generated fat-tree / leaf-spine / torus instances:

- every route ``bfs_route`` returns is a valid connected path over links
  that exist in the topology;
- path lengths match the fabric's closed form (2/4/6 hops in a fat-tree,
  2/4 in a leaf-spine, wrap-Manhattan + 2 in a torus);
- degree / port counts match the spec (via ``validate_fabric``), and
  ``validate_fabric`` rejects topologies that are not intact fabrics;
- generation is byte-identical across two calls with the same parameters,
  and pinned digests keep the cable order — hence link ids, routes and
  makespans — from drifting between versions.
"""

import hashlib

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import TopologyError
from repro.linksched.causality import check_route_connectivity
from repro.network.builders import random_wan
from repro.network.fabrics import (
    FatTreePlan,
    LeafSpinePlan,
    TorusPlan,
    fabric_for_procs,
    kary_fat_tree,
    leaf_spine,
    torus_fabric,
    validate_fabric,
)
from repro.network.io import topology_to_json
from repro.network.routing import bfs_route

import pytest

FABRIC = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# -- strategies --------------------------------------------------------------

fat_tree_params = st.builds(
    dict,
    k=st.sampled_from([2, 4, 6]),
    hosts_per_edge=st.integers(1, 3),
    cap_frac=st.floats(0.1, 1.0),
)

leaf_spine_params = st.builds(
    dict,
    leaves=st.integers(1, 5),
    spines=st.integers(1, 4),
    hosts_per_leaf=st.integers(1, 4),
    cap_frac=st.floats(0.1, 1.0),
)

torus_params = st.builds(
    dict,
    dims=st.one_of(
        st.tuples(st.integers(2, 4), st.integers(2, 4)),
        st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(2, 3)),
    ),
    hosts_per_node=st.integers(1, 2),
    cap_frac=st.floats(0.1, 1.0),
)


def _cap(total: int, frac: float) -> int:
    return max(1, min(total, round(total * frac)))


def _build_fat_tree(params):
    total = params["k"] * (params["k"] // 2) * params["hosts_per_edge"]
    return kary_fat_tree(
        params["k"],
        hosts_per_edge=params["hosts_per_edge"],
        n_procs=_cap(total, params["cap_frac"]),
    )


def _build_leaf_spine(params):
    total = params["leaves"] * params["hosts_per_leaf"]
    return leaf_spine(
        params["leaves"],
        params["spines"],
        params["hosts_per_leaf"],
        n_procs=_cap(total, params["cap_frac"]),
    )


def _build_torus(params):
    nodes = 1
    for size in params["dims"]:
        nodes *= size
    total = nodes * params["hosts_per_node"]
    return torus_fabric(
        params["dims"],
        hosts_per_node=params["hosts_per_node"],
        n_procs=_cap(total, params["cap_frac"]),
    )


def _pairs(net, limit=60):
    """A deterministic sample of distinct processor pairs."""
    procs = [p.vid for p in net.processors()]
    pairs = [(s, d) for s in procs for d in procs if s != d]
    step = max(1, len(pairs) // limit)
    return pairs[::step]


def _check_fabric(net, expected_hops):
    """The shared invariant bundle: structure and routes."""
    validate_fabric(net)
    plan = net.fabric_plan
    for s, d in _pairs(net):
        route = bfs_route(net, s, d)
        # Valid connected path over links registered in the topology.
        check_route_connectivity(net, tuple(l.lid for l in route), s, d)
        for link in route:
            assert net.link(link.lid) is link
        assert len(route) == expected_hops(plan, s, d)


def _fat_tree_hops(plan, s, d):
    ps, es, _ = plan.host_loc[s]
    pd, ed, _ = plan.host_loc[d]
    if (ps, es) == (pd, ed):
        return 2
    return 4 if ps == pd else 6


def _leaf_spine_hops(plan, s, d):
    return 2 if plan.host_loc[s][0] == plan.host_loc[d][0] else 4


class TestFatTreeProperties:
    @FABRIC
    @given(params=fat_tree_params)
    def test_invariants(self, params):
        net = _build_fat_tree(params)
        plan = net.fabric_plan
        assert isinstance(plan, FatTreePlan)
        _check_fabric(net, _fat_tree_hops)
        assert plan.expected_counts().diameter == 6

    @FABRIC
    @given(params=fat_tree_params)
    def test_byte_identical_generation(self, params):
        assert topology_to_json(_build_fat_tree(params)) == topology_to_json(
            _build_fat_tree(params)
        )

    def test_cross_pod_route_climbs_through_the_first_agg_and_core(self):
        # Uplinks are cabled lowest index first, so their link ids — and
        # with them the BFS tie-break — favour aggregation switch 0 and
        # core 0, and the way down is forced.
        net = kary_fat_tree(4)
        plan = net.fabric_plan
        procs = [p.vid for p in net.processors()]
        s = next(p for p in procs if plan.host_loc[p][0] == 0)
        d = next(p for p in procs if plan.host_loc[p][0] == 1)
        hops = [l.dst for l in bfs_route(net, s, d)]
        assert hops == [
            plan.edge_sw[0][0], plan.agg_sw[0][0], plan.core_sw[0],
            plan.agg_sw[1][0], plan.edge_sw[1][0], d,
        ]

    def test_port_counts(self):
        net = kary_fat_tree(4)
        plan = net.fabric_plan
        k = 4
        for row in plan.edge_sw:
            for sw in row:
                assert len(net.out_links(sw)) == k  # k/2 hosts + k/2 aggs
        for row in plan.agg_sw:
            for sw in row:
                assert len(net.out_links(sw)) == k  # k/2 edges + k/2 cores
        for sw in plan.core_sw:
            assert len(net.out_links(sw)) == k  # one per pod... times k


class TestLeafSpineProperties:
    @FABRIC
    @given(params=leaf_spine_params)
    def test_invariants(self, params):
        net = _build_leaf_spine(params)
        assert isinstance(net.fabric_plan, LeafSpinePlan)
        _check_fabric(net, _leaf_spine_hops)

    @FABRIC
    @given(params=leaf_spine_params)
    def test_byte_identical_generation(self, params):
        assert topology_to_json(_build_leaf_spine(params)) == topology_to_json(
            _build_leaf_spine(params)
        )

    def test_cross_leaf_route_climbs_spine_zero(self):
        # Each leaf's uplinks are cabled in spine order, so spine 0 wins
        # the BFS tie-break for every cross-leaf pair.
        net = leaf_spine(3, 4, 2)
        plan = net.fabric_plan
        procs = [p.vid for p in net.processors()]
        for s in procs:
            for d in procs:
                if plan.host_loc[s][0] != plan.host_loc[d][0]:
                    assert bfs_route(net, s, d)[1].dst == plan.spine_sw[0]

    def test_port_counts(self):
        net = leaf_spine(3, 2, 4)
        plan = net.fabric_plan
        for sw in plan.leaf_sw:
            assert len(net.out_links(sw)) == 4 + 2
        for sw in plan.spine_sw:
            assert len(net.out_links(sw)) == 3


class TestTorusProperties:
    @FABRIC
    @given(params=torus_params)
    def test_invariants(self, params):
        net = _build_torus(params)
        assert isinstance(net.fabric_plan, TorusPlan)
        _check_fabric(net, lambda p, s, d: p.min_hops(s, d))

    @FABRIC
    @given(params=torus_params)
    def test_byte_identical_generation(self, params):
        assert topology_to_json(_build_torus(params)) == topology_to_json(
            _build_torus(params)
        )

    def test_wrap_links_present(self):
        net = torus_fabric((4, 3))
        plan = net.fabric_plan
        # (0, y) and (3, y) are wrap neighbours: 1 switch hop, 3 total.
        procs = [p.vid for p in net.processors()]
        s = next(p for p in procs if plan.host_loc[p][0] == (0, 0))
        d = next(p for p in procs if plan.host_loc[p][0] == (3, 0))
        assert len(bfs_route(net, s, d)) == 3
        assert plan.min_hops(s, d) == 3

    def test_size_two_dim_has_single_cable(self):
        # Both "directions" around a size-2 ring are the same cable, so
        # only one is laid.
        net = torus_fabric((2, 3))
        plan = net.fabric_plan
        a = plan.node_sw[plan.node_index((0, 0))]
        b = plan.node_sw[plan.node_index((1, 0))]
        assert [v for _, v in net.out_links(a)].count(b) == 1
        procs = [p.vid for p in net.processors()]
        s = next(p for p in procs if plan.host_loc[p][0] == (0, 0))
        d = next(p for p in procs if plan.host_loc[p][0] == (1, 0))
        assert len(bfs_route(net, s, d)) == plan.min_hops(s, d) == 3


class TestSizedFabrics:
    @FABRIC
    @given(
        kind=st.sampled_from(["fat_tree", "leaf_spine", "torus"]),
        n_procs=st.integers(1, 70),
    )
    def test_exact_processor_count(self, kind, n_procs):
        net = fabric_for_procs(kind, n_procs)
        assert len(net.processors()) == n_procs
        validate_fabric(net)

    def test_registered_in_topology_builders(self):
        from repro.network.builders import TOPOLOGY_BUILDERS

        for kind in ("fat_tree", "leaf_spine", "torus"):
            builder = TOPOLOGY_BUILDERS[f"fabric_{kind}"]
            net = builder(9, rng=3)
            assert len(net.processors()) == 9
            assert net.fabric_plan is not None


class TestParameterValidation:
    def test_fat_tree_rejects_odd_arity(self):
        with pytest.raises(TopologyError):
            kary_fat_tree(3)

    def test_fat_tree_rejects_oversized_cap(self):
        with pytest.raises(TopologyError):
            kary_fat_tree(4, n_procs=17)

    def test_leaf_spine_rejects_empty_tiers(self):
        with pytest.raises(TopologyError):
            leaf_spine(0, 2, 4)

    def test_torus_rejects_one_dimension(self):
        with pytest.raises(TopologyError):
            torus_fabric((8,))

    def test_torus_rejects_single_node(self):
        with pytest.raises(TopologyError):
            torus_fabric((1, 1))

    def test_heterogeneous_speeds_are_seed_deterministic(self):
        a = leaf_spine(2, 2, 3, proc_speed=(1, 10), link_speed=(1, 10), rng=7)
        b = leaf_spine(2, 2, 3, proc_speed=(1, 10), link_speed=(1, 10), rng=7)
        assert topology_to_json(a) == topology_to_json(b)


class TestValidateFabricRejects:
    """``validate_fabric`` accepts only an intact fabric."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda net, procs: net.connect(procs[0], procs[-1]),
            lambda net, procs: net.add_processor(),
            lambda net, procs: net.add_switch(),
            lambda net, procs: net.add_bus(procs),
        ],
        ids=["connect", "add_processor", "add_switch", "add_bus"],
    )
    def test_mutated_fabric(self, mutate):
        net = leaf_spine(2, 2, 3)
        validate_fabric(net)
        mutate(net, [p.vid for p in net.processors()])
        assert net.fabric_plan is None
        with pytest.raises(TopologyError, match="no fabric plan"):
            validate_fabric(net)

    def test_plan_catches_an_extra_cable(self):
        net = kary_fat_tree(4)
        plan = net.fabric_plan
        net.connect(plan.core_sw[0], plan.core_sw[1])
        net.fabric_plan = plan  # put it back: the closed forms must object
        with pytest.raises(TopologyError, match="directed links"):
            validate_fabric(net)

    def test_random_wan(self):
        with pytest.raises(TopologyError, match="no fabric plan"):
            validate_fabric(random_wan(8, rng=1))


_HETERO = {"proc_speed": (1, 10), "link_speed": (1, 10)}

#: sha256 of ``topology_to_json`` per build.  A builder must lay vertices
#: and cables, and draw speeds, in exactly this order: cable order fixes
#: the link ids, and with them every route and every makespan.
PINNED_DIGESTS = [
    ("fat_tree_k4", lambda: kary_fat_tree(4),
     "10019c3cc2bbda3a9e78f681081b75d07ef3236dcebdfda72764b4c232cd4203"),
    ("fat_tree_k6_capped_hetero",
     lambda: kary_fat_tree(6, hosts_per_edge=2, n_procs=31, rng=7, **_HETERO),
     "f09e9dbdee9932c91bb267d7b8a7460d34054d0b52b9f92756e3a66d60ccd5eb"),
    ("leaf_spine_4x3", lambda: leaf_spine(4, 3, 4),
     "41fc42f7b01822a465c1cd97fd26285f4e70f274cd88b5f80d599cc2165a9a40"),
    ("leaf_spine_hetero",
     lambda: leaf_spine(3, 2, 5, n_procs=13, spine_factor=2.5, rng=11, **_HETERO),
     "81d6658b6b56c160a8edc5cf4f28432784a104b42fa7bc8c0e0d5eff72c0cab0"),
    ("torus_3x4", lambda: torus_fabric((3, 4), hosts_per_node=2),
     "f2b9ede1cc33108b3256b2fe90f71d924fa2c0f7e02b0df2dbf558af4ab62a65"),
    ("torus_2x3x2_hetero",
     lambda: torus_fabric((2, 3, 2), n_procs=10, rng=3, **_HETERO),
     "8e1849f4c49095b0c8ab66a47878d09603ab2c69c9488342634ad137a75e6cff"),
    ("sized_leaf_spine_128", lambda: fabric_for_procs("leaf_spine", 128),
     "6fefb0023df1f5ee179482e7ca92c93998e343fa9531315faa94799380de3673"),
    ("sized_fat_tree_50_hetero", lambda: fabric_for_procs("fat_tree", 50, 5, **_HETERO),
     "3d82185fa7ff0d7c776e14d0b710b268360aeffdf2ce1c5790c3cd536281d13b"),
    ("sized_torus_40_hetero", lambda: fabric_for_procs("torus", 40, 9, **_HETERO),
     "35e55c3344a1294a98084038e364a92ae9dfbf068558db53631b4b11464ba572"),
]


@pytest.mark.parametrize(
    "build,digest", [c[1:] for c in PINNED_DIGESTS], ids=[c[0] for c in PINNED_DIGESTS]
)
def test_topology_json_digest_is_pinned(build, digest):
    assert hashlib.sha256(topology_to_json(build()).encode()).hexdigest() == digest
