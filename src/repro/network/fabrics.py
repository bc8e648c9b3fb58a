"""Datacenter fabric generators: k-ary fat-tree, leaf-spine, 2D/3D torus.

The paper evaluates on random WAN-like switch graphs; these builders add
the *regular* fabrics clusters run on.  Each emits an ordinary
:class:`~repro.network.topology.NetworkTopology` (switch + processor
vertices, full-duplex point-to-point cables) and records a plan of its
structure — tier switch ids, host locations — in the topology's
``fabric_plan`` field, which :func:`validate_fabric` checks against closed
forms.  Routing sees a plain topology: BA's minimal routes come from the
same :func:`~repro.network.routing.bfs_route` memo as on any other network.

Cable order is part of each builder's output: it fixes the link ids, and
with them every BFS tie-break, every route and every makespan.  Builders
lay cables hosts-before-uplinks per switch and pod-major across tiers.

Determinism: with scalar speeds a builder is a pure function of its
parameters — two calls yield byte-identical
:func:`~repro.network.io.topology_to_json` documents.  Heterogeneous
speeds come from a seeded RNG, like every other builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.exceptions import TopologyError
from repro.network.builders import FABRIC_KINDS, SpeedSpec, _speed_sampler
from repro.network.topology import NetworkTopology, Vertex
from repro.network.validate import validate_topology
from repro.types import VertexId
from repro.utils.rng import as_rng

__all__ = [
    "FABRIC_KINDS",
    "FabricCounts",
    "FatTreePlan",
    "LeafSpinePlan",
    "TorusPlan",
    "kary_fat_tree",
    "leaf_spine",
    "torus_fabric",
    "validate_fabric",
    "fabric_for_procs",
]


@dataclass(frozen=True)
class FabricCounts:
    """Closed-form structural expectations of a fabric instance.

    ``diameter`` is the minimal-route hop bound between any two distinct
    processors of the *uncapped* fabric.
    """

    processors: int
    switches: int
    cables: int
    diameter: int


def _check_degree(
    net: NetworkTopology, vid: VertexId, expected: int, role: str
) -> None:
    actual = len(net.out_links(vid))
    if actual != expected:
        raise TopologyError(
            f"{role} {vid} has {actual} cable(s), expected {expected}"
        )


# ---------------------------------------------------------------------------
# k-ary fat-tree
# ---------------------------------------------------------------------------


class FatTreePlan:
    """Structure of a k-ary fat-tree (Clos): k pods, 3 switch tiers.

    Pod ``p`` holds ``k/2`` edge and ``k/2`` aggregation switches; edge
    switch ``e`` hosts up to ``hosts_per_edge`` processors; aggregation
    switch ``a`` uplinks to cores ``a*(k/2) .. (a+1)*(k/2)-1``, so every
    core reaches exactly one aggregation switch per pod.
    """

    kind = "fat_tree"

    def __init__(
        self,
        k: int,
        hosts_per_edge: int,
        host_loc: dict[VertexId, tuple[int, int, int]],
        edge_sw: list[list[VertexId]],
        agg_sw: list[list[VertexId]],
        core_sw: list[VertexId],
    ) -> None:
        self.k = k
        self.hosts_per_edge = hosts_per_edge
        self.host_loc = host_loc
        self.edge_sw = edge_sw
        self.agg_sw = agg_sw
        self.core_sw = core_sw

    def expected_counts(self) -> FabricCounts:
        k = self.k
        half = k // 2
        n_procs = len(self.host_loc)
        return FabricCounts(
            processors=n_procs,
            switches=k * k + half * half,
            cables=n_procs + k * half * half + k * half * half,
            diameter=6 if k >= 2 else 0,
        )

    def describe(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "k": self.k,
            "pods": self.k,
            "edge_switches_per_pod": self.k // 2,
            "agg_switches_per_pod": self.k // 2,
            "core_switches": (self.k // 2) ** 2,
            "hosts_per_edge": self.hosts_per_edge,
            "hosts": len(self.host_loc),
        }

    def validate(self, net: NetworkTopology) -> None:
        """Fabric-specific structural invariants (raises TopologyError)."""
        validate_topology(net)
        k, half = self.k, self.k // 2
        counts = self.expected_counts()
        if len(net.processors()) != counts.processors:
            raise TopologyError(
                f"fat-tree has {len(net.processors())} processors, "
                f"expected {counts.processors}"
            )
        if len(net.switches()) != counts.switches:
            raise TopologyError(
                f"fat-tree has {len(net.switches())} switches, "
                f"expected {counts.switches}"
            )
        if net.num_links != 2 * counts.cables:
            raise TopologyError(
                f"fat-tree has {net.num_links} directed links, "
                f"expected {2 * counts.cables}"
            )
        hosts_on_edge: dict[tuple[int, int], int] = {}
        for vid, (pod, edge, _) in self.host_loc.items():
            if not net.vertex(vid).is_processor:
                raise TopologyError(f"host {vid} is not a processor")
            _check_degree(net, vid, 1, "fat-tree host")
            hosts_on_edge[(pod, edge)] = hosts_on_edge.get((pod, edge), 0) + 1
        for pod in range(k):
            for i in range(half):
                n_hosts = hosts_on_edge.get((pod, i), 0)
                _check_degree(
                    net, self.edge_sw[pod][i], n_hosts + half,
                    f"edge switch p{pod}e{i}",
                )
                _check_degree(
                    net, self.agg_sw[pod][i], half + half,
                    f"aggregation switch p{pod}a{i}",
                )
        for c_idx, core in enumerate(self.core_sw):
            _check_degree(net, core, k, f"core switch c{c_idx}")


def kary_fat_tree(
    k: int,
    *,
    hosts_per_edge: int | None = None,
    n_procs: int | None = None,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
) -> NetworkTopology:
    """Build a k-ary fat-tree fabric (k pods, full Clos core).

    ``hosts_per_edge`` defaults to the canonical ``k/2`` (so the full
    fabric hosts ``k^3/4`` processors); ``n_procs`` caps the total host
    count, filling pods in order — trailing edge switches may end up
    empty, which only trims leaves off the structure.
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError(f"fat-tree arity must be even and >= 2, got {k}")
    half = k // 2
    hpe = half if hosts_per_edge is None else hosts_per_edge
    if hpe < 1:
        raise TopologyError(f"hosts_per_edge must be >= 1, got {hpe}")
    total = k * half * hpe
    cap = total if n_procs is None else n_procs
    if not 1 <= cap <= total:
        raise TopologyError(
            f"n_procs must be in [1, {total}] for k={k}, "
            f"hosts_per_edge={hpe}; got {n_procs}"
        )
    gen = as_rng(rng)
    net = NetworkTopology(name=f"fat_tree-k{k}-{cap}p")
    pspeed = _speed_sampler(proc_speed, gen)
    lspeed = _speed_sampler(link_speed, gen)

    # Tier order matters: hosts, then edge/agg/core switches, then cables
    # hosts-before-uplinks and pod-major — the link ids, and so every route,
    # hang off this ordering.
    host_loc: dict[VertexId, tuple[int, int, int]] = {}
    hosts: dict[tuple[int, int], list[Vertex]] = {}
    remaining = cap
    for pod in range(k):
        for edge in range(half):
            take = min(hpe, remaining)
            remaining -= take
            row = [net.add_processor(pspeed()) for _ in range(take)]
            hosts[(pod, edge)] = row
            for slot, p in enumerate(row):
                host_loc[p.vid] = (pod, edge, slot)
    edge_sw = [
        [net.add_switch(f"p{pod}e{i}") for i in range(half)] for pod in range(k)
    ]
    agg_sw = [
        [net.add_switch(f"p{pod}a{i}") for i in range(half)] for pod in range(k)
    ]
    core_sw = [net.add_switch(f"c{j}") for j in range(half * half)]

    for pod in range(k):
        for edge in range(half):
            sw = edge_sw[pod][edge]
            for p in hosts[(pod, edge)]:
                net.connect(p, sw, lspeed())
            for agg in agg_sw[pod]:
                net.connect(sw, agg, lspeed())
    for pod in range(k):
        for a, agg in enumerate(agg_sw[pod]):
            for j in range(half):
                net.connect(agg, core_sw[a * half + j], lspeed())

    net.fabric_plan = FatTreePlan(
        k=k,
        hosts_per_edge=hpe,
        host_loc=host_loc,
        edge_sw=[[sw.vid for sw in row] for row in edge_sw],
        agg_sw=[[sw.vid for sw in row] for row in agg_sw],
        core_sw=[sw.vid for sw in core_sw],
    )
    return net


# ---------------------------------------------------------------------------
# leaf-spine
# ---------------------------------------------------------------------------


class LeafSpinePlan:
    """Structure of a two-tier leaf-spine fabric.

    Every leaf switch cables to every spine switch; processors hang off
    leaves.
    """

    kind = "leaf_spine"

    def __init__(
        self,
        leaves: int,
        spines: int,
        hosts_per_leaf: int,
        host_loc: dict[VertexId, tuple[int, int]],
        leaf_sw: list[VertexId],
        spine_sw: list[VertexId],
    ) -> None:
        self.leaves = leaves
        self.spines = spines
        self.hosts_per_leaf = hosts_per_leaf
        self.host_loc = host_loc
        self.leaf_sw = leaf_sw
        self.spine_sw = spine_sw

    def expected_counts(self) -> FabricCounts:
        n_procs = len(self.host_loc)
        multi_leaf = self.leaves > 1
        return FabricCounts(
            processors=n_procs,
            switches=self.leaves + self.spines,
            cables=n_procs + self.leaves * self.spines,
            diameter=4 if multi_leaf else 2,
        )

    def describe(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "leaves": self.leaves,
            "spines": self.spines,
            "hosts_per_leaf": self.hosts_per_leaf,
            "hosts": len(self.host_loc),
        }

    def validate(self, net: NetworkTopology) -> None:
        validate_topology(net)
        counts = self.expected_counts()
        if len(net.processors()) != counts.processors:
            raise TopologyError(
                f"leaf-spine has {len(net.processors())} processors, "
                f"expected {counts.processors}"
            )
        if len(net.switches()) != counts.switches:
            raise TopologyError(
                f"leaf-spine has {len(net.switches())} switches, "
                f"expected {counts.switches}"
            )
        if net.num_links != 2 * counts.cables:
            raise TopologyError(
                f"leaf-spine has {net.num_links} directed links, "
                f"expected {2 * counts.cables}"
            )
        hosts_on_leaf: dict[int, int] = {}
        for vid, (leaf, _) in self.host_loc.items():
            if not net.vertex(vid).is_processor:
                raise TopologyError(f"host {vid} is not a processor")
            _check_degree(net, vid, 1, "leaf-spine host")
            hosts_on_leaf[leaf] = hosts_on_leaf.get(leaf, 0) + 1
        for i, leaf in enumerate(self.leaf_sw):
            _check_degree(
                net, leaf, hosts_on_leaf.get(i, 0) + self.spines,
                f"leaf switch l{i}",
            )
        for i, spine in enumerate(self.spine_sw):
            _check_degree(net, spine, self.leaves, f"spine switch s{i}")


def leaf_spine(
    leaves: int,
    spines: int,
    hosts_per_leaf: int,
    *,
    n_procs: int | None = None,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    spine_factor: float = 1.0,
    rng: int | np.random.Generator | None = None,
) -> NetworkTopology:
    """Build a two-tier leaf-spine fabric.

    ``spine_factor`` scales the leaf-spine uplink speed relative to the
    host links (oversubscribed fabrics use > 1).  ``n_procs`` caps the
    host count, filling leaves in order.
    """
    if leaves < 1 or spines < 1 or hosts_per_leaf < 1:
        raise TopologyError(
            f"leaf-spine needs leaves >= 1, spines >= 1, hosts_per_leaf >= 1; "
            f"got ({leaves}, {spines}, {hosts_per_leaf})"
        )
    if spine_factor <= 0:
        raise TopologyError(f"spine_factor must be positive, got {spine_factor}")
    total = leaves * hosts_per_leaf
    cap = total if n_procs is None else n_procs
    if not 1 <= cap <= total:
        raise TopologyError(
            f"n_procs must be in [1, {total}] for {leaves} leaves x "
            f"{hosts_per_leaf} hosts; got {n_procs}"
        )
    gen = as_rng(rng)
    net = NetworkTopology(name=f"leaf_spine-{leaves}x{spines}-{cap}p")
    pspeed = _speed_sampler(proc_speed, gen)
    lspeed = _speed_sampler(link_speed, gen)

    host_loc: dict[VertexId, tuple[int, int]] = {}
    hosts: dict[int, list[Vertex]] = {}
    remaining = cap
    for leaf in range(leaves):
        take = min(hosts_per_leaf, remaining)
        remaining -= take
        row = [net.add_processor(pspeed()) for _ in range(take)]
        hosts[leaf] = row
        for slot, p in enumerate(row):
            host_loc[p.vid] = (leaf, slot)
    leaf_sw = [net.add_switch(f"l{i}") for i in range(leaves)]
    spine_sw = [net.add_switch(f"s{i}") for i in range(spines)]

    for leaf in range(leaves):
        sw = leaf_sw[leaf]
        for p in hosts[leaf]:
            net.connect(p, sw, lspeed())
        for spine in spine_sw:
            net.connect(sw, spine, lspeed() * spine_factor)

    net.fabric_plan = LeafSpinePlan(
        leaves=leaves,
        spines=spines,
        hosts_per_leaf=hosts_per_leaf,
        host_loc=host_loc,
        leaf_sw=[sw.vid for sw in leaf_sw],
        spine_sw=[sw.vid for sw in spine_sw],
    )
    return net


# ---------------------------------------------------------------------------
# 2D / 3D torus
# ---------------------------------------------------------------------------


def _wrap_distance(a: int, b: int, size: int) -> int:
    d = abs(a - b)
    return min(d, size - d)


class TorusPlan:
    """Structure of a wrap-around 2D/3D switch torus with attached hosts.

    Each grid node is one switch with up to ``hosts_per_node`` processors.
    """

    kind = "torus"

    def __init__(
        self,
        dims: tuple[int, ...],
        hosts_per_node: int,
        host_loc: dict[VertexId, tuple[tuple[int, ...], int]],
        node_sw: list[VertexId],
    ) -> None:
        self.dims = dims
        self.hosts_per_node = hosts_per_node
        self.host_loc = host_loc
        self.node_sw = node_sw

    def node_index(self, coords: tuple[int, ...]) -> int:
        idx = 0
        for size, c in zip(self.dims, coords):
            idx = idx * size + c
        return idx

    def min_hops(self, src: VertexId, dst: VertexId) -> int:
        """Closed-form minimal route length between two hosts."""
        (cs, _), (cd, _) = self.host_loc[src], self.host_loc[dst]
        if cs == cd:
            return 2 if src != dst else 0
        manhattan = sum(
            _wrap_distance(a, b, size)
            for a, b, size in zip(cs, cd, self.dims)
        )
        return manhattan + 2

    def expected_counts(self) -> FabricCounts:
        nodes = 1
        for size in self.dims:
            nodes *= size
        cables = len(self.host_loc)
        for size in self.dims:
            lines = nodes // size
            if size >= 3:
                cables += lines * size
            elif size == 2:
                cables += lines
        return FabricCounts(
            processors=len(self.host_loc),
            switches=nodes,
            cables=cables,
            diameter=sum(size // 2 for size in self.dims) + 2,
        )

    def describe(self) -> dict[str, object]:
        return {
            "kind": self.kind,
            "dims": list(self.dims),
            "nodes": len(self.node_sw),
            "hosts_per_node": self.hosts_per_node,
            "hosts": len(self.host_loc),
        }

    def validate(self, net: NetworkTopology) -> None:
        validate_topology(net)
        counts = self.expected_counts()
        if len(net.processors()) != counts.processors:
            raise TopologyError(
                f"torus has {len(net.processors())} processors, "
                f"expected {counts.processors}"
            )
        if len(net.switches()) != counts.switches:
            raise TopologyError(
                f"torus has {len(net.switches())} switches, "
                f"expected {counts.switches}"
            )
        if net.num_links != 2 * counts.cables:
            raise TopologyError(
                f"torus has {net.num_links} directed links, "
                f"expected {2 * counts.cables}"
            )
        hosts_on_node: dict[int, int] = {}
        for vid, (coords, _) in self.host_loc.items():
            if not net.vertex(vid).is_processor:
                raise TopologyError(f"host {vid} is not a processor")
            _check_degree(net, vid, 1, "torus host")
            idx = self.node_index(coords)
            hosts_on_node[idx] = hosts_on_node.get(idx, 0) + 1
        mesh_degree = sum(
            2 if size >= 3 else (1 if size == 2 else 0) for size in self.dims
        )
        for idx, sw in enumerate(self.node_sw):
            _check_degree(
                net, sw, hosts_on_node.get(idx, 0) + mesh_degree,
                f"torus switch n{idx}",
            )


def torus_fabric(
    dims: tuple[int, ...],
    *,
    hosts_per_node: int = 1,
    n_procs: int | None = None,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
) -> NetworkTopology:
    """Build a 2D or 3D wrap-around switch torus with attached hosts."""
    if len(dims) not in (2, 3):
        raise TopologyError(f"torus dims must be 2D or 3D, got {dims}")
    if any(size < 1 for size in dims):
        raise TopologyError(f"torus dims must be positive, got {dims}")
    if hosts_per_node < 1:
        raise TopologyError(f"hosts_per_node must be >= 1, got {hosts_per_node}")
    nodes = 1
    for size in dims:
        nodes *= size
    if nodes < 2:
        raise TopologyError(f"torus needs at least 2 nodes, got dims {dims}")
    total = nodes * hosts_per_node
    cap = total if n_procs is None else n_procs
    if not 1 <= cap <= total:
        raise TopologyError(
            f"n_procs must be in [1, {total}] for dims {dims}; got {n_procs}"
        )
    gen = as_rng(rng)
    shape = "x".join(str(size) for size in dims)
    net = NetworkTopology(name=f"torus-{shape}-{cap}p")
    pspeed = _speed_sampler(proc_speed, gen)
    lspeed = _speed_sampler(link_speed, gen)

    def coords_iter() -> Iterator[tuple[int, ...]]:
        if len(dims) == 2:
            for x in range(dims[0]):
                for y in range(dims[1]):
                    yield (x, y)
        else:
            for x in range(dims[0]):
                for y in range(dims[1]):
                    for z in range(dims[2]):
                        yield (x, y, z)

    host_loc: dict[VertexId, tuple[tuple[int, ...], int]] = {}
    hosts: dict[tuple[int, ...], list[Vertex]] = {}
    remaining = cap
    for coords in coords_iter():
        take = min(hosts_per_node, remaining)
        remaining -= take
        row = [net.add_processor(pspeed()) for _ in range(take)]
        hosts[coords] = row
        for slot, p in enumerate(row):
            host_loc[p.vid] = (coords, slot)
    switches: dict[tuple[int, ...], Vertex] = {
        coords: net.add_switch("n" + "-".join(str(c) for c in coords))
        for coords in coords_iter()
    }

    for coords in coords_iter():
        sw = switches[coords]
        for p in hosts[coords]:
            net.connect(p, sw, lspeed())
        for d, size in enumerate(dims):
            if size < 2:
                continue
            if coords[d] == size - 1 and size == 2:
                continue  # the +1 neighbour wraps onto an existing cable
            nbr = list(coords)
            nbr[d] = (coords[d] + 1) % size
            net.connect(sw, switches[tuple(nbr)], lspeed())

    net.fabric_plan = TorusPlan(
        dims=tuple(dims),
        hosts_per_node=hosts_per_node,
        host_loc=host_loc,
        node_sw=[switches[coords].vid for coords in coords_iter()],
    )
    return net


# ---------------------------------------------------------------------------
# registry + helpers
# ---------------------------------------------------------------------------


def validate_fabric(net: NetworkTopology) -> None:
    """Validate a fabric topology against its own structural plan.

    Raises :class:`TopologyError` when the topology has no plan (it was
    mutated after construction, or never was a fabric) or when any
    closed-form invariant — tier counts, cable counts, port/degree per
    switch role, connectivity — fails.
    """
    plan = net.fabric_plan
    if plan is None:
        raise TopologyError(
            f"topology {net.name!r} has no fabric plan "
            "(not fabric-built, or mutated since construction)"
        )
    plan.validate(net)


def fabric_for_procs(
    kind: str,
    n_procs: int,
    rng: int | np.random.Generator | None = None,
    *,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
) -> NetworkTopology:
    """Size a fabric deterministically for an exact processor count.

    The paper sweeps ask for *P processors*, not fabric parameters; this
    picks the smallest canonical instance reaching ``P`` and caps the host
    fill at exactly ``P`` so sweep results stay comparable with the random
    WAN baseline at the same processor count.
    """
    if n_procs < 1:
        raise TopologyError(f"need at least one processor, got {n_procs}")
    if kind == "fat_tree":
        k = 2
        while k * k * k // 4 < n_procs:
            k += 2
        return kary_fat_tree(
            k, n_procs=n_procs, proc_speed=proc_speed, link_speed=link_speed,
            rng=rng,
        )
    if kind == "leaf_spine":
        hosts_per_leaf = 16
        leaves = max(1, -(-n_procs // hosts_per_leaf))
        spines = max(1, (leaves + 1) // 2)
        return leaf_spine(
            leaves, spines, hosts_per_leaf, n_procs=n_procs,
            proc_speed=proc_speed, link_speed=link_speed, rng=rng,
        )
    if kind == "torus":
        rows = max(1, math.isqrt(n_procs))
        cols = max(1, -(-n_procs // rows))
        if rows * cols < 2:
            rows, cols = 1, 2  # a 1x2 torus is the smallest valid grid
        return torus_fabric(
            (rows, cols), n_procs=n_procs,
            proc_speed=proc_speed, link_speed=link_speed, rng=rng,
        )
    raise TopologyError(f"unknown fabric {kind!r}; known: {list(FABRIC_KINDS)}")
