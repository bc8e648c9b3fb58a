"""Topology builders: classic interconnects plus the paper's random WAN.

All builders accept either a scalar processor/link speed (homogeneous) or a
callable/range drawn from a seeded RNG (heterogeneous, the paper's U(1, 10)).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import TopologyError
from repro.network.topology import NetworkTopology, Vertex
from repro.utils.rng import as_rng

SpeedSpec = float | tuple[float, float] | Callable[[], float]


def _speed_sampler(spec: SpeedSpec, rng: np.random.Generator) -> Callable[[], float]:
    """Normalize a speed spec: scalar, (lo, hi) integer-uniform, or callable."""
    if callable(spec):
        return spec
    if isinstance(spec, tuple):
        lo, hi = spec
        if lo <= 0 or hi < lo:
            raise TopologyError(f"invalid speed range {spec}")
        return lambda: float(rng.integers(int(lo), int(hi) + 1))
    value = float(spec)
    if value <= 0:
        raise TopologyError(f"invalid speed {spec}")
    return lambda: value


def _add_processors(
    net: NetworkTopology, n: int, speed: SpeedSpec, rng: np.random.Generator
) -> list[Vertex]:
    if n < 1:
        raise TopologyError(f"need at least one processor, got {n}")
    sample = _speed_sampler(speed, rng)
    return [net.add_processor(sample()) for _ in range(n)]


def fully_connected(
    n_procs: int,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
) -> NetworkTopology:
    """Every processor pair directly cabled (the classic-model topology)."""
    gen = as_rng(rng)
    net = NetworkTopology(name=f"fully_connected-{n_procs}")
    procs = _add_processors(net, n_procs, proc_speed, gen)
    lspeed = _speed_sampler(link_speed, gen)
    for i in range(n_procs):
        for j in range(i + 1, n_procs):
            net.connect(procs[i], procs[j], lspeed())
    return net


def switched_cluster(
    n_procs: int,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
) -> NetworkTopology:
    """A star: one central switch, every processor cabled to it."""
    gen = as_rng(rng)
    net = NetworkTopology(name=f"switched_cluster-{n_procs}")
    procs = _add_processors(net, n_procs, proc_speed, gen)
    switch = net.add_switch("hub")
    lspeed = _speed_sampler(link_speed, gen)
    for p in procs:
        net.connect(p, switch, lspeed())
    return net


def linear_array(
    n_procs: int,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
) -> NetworkTopology:
    """Processors in a line, neighbours cabled."""
    gen = as_rng(rng)
    net = NetworkTopology(name=f"linear-{n_procs}")
    procs = _add_processors(net, n_procs, proc_speed, gen)
    lspeed = _speed_sampler(link_speed, gen)
    for a, b in zip(procs, procs[1:]):
        net.connect(a, b, lspeed())
    return net


def ring(
    n_procs: int,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
) -> NetworkTopology:
    """Processors in a cycle."""
    if n_procs < 3:
        raise TopologyError(f"a ring needs at least 3 processors, got {n_procs}")
    gen = as_rng(rng)
    net = NetworkTopology(name=f"ring-{n_procs}")
    procs = _add_processors(net, n_procs, proc_speed, gen)
    lspeed = _speed_sampler(link_speed, gen)
    for a, b in zip(procs, procs[1:]):
        net.connect(a, b, lspeed())
    net.connect(procs[-1], procs[0], lspeed())
    return net


def mesh2d(
    rows: int,
    cols: int,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
    *,
    wrap: bool = False,
) -> NetworkTopology:
    """A rows x cols processor mesh; ``wrap=True`` makes it a torus."""
    if rows < 1 or cols < 1:
        raise TopologyError(f"mesh needs positive dimensions, got {rows}x{cols}")
    gen = as_rng(rng)
    kind = "torus2d" if wrap else "mesh2d"
    net = NetworkTopology(name=f"{kind}-{rows}x{cols}")
    procs = _add_processors(net, rows * cols, proc_speed, gen)
    lspeed = _speed_sampler(link_speed, gen)

    def at(r: int, c: int) -> Vertex:
        return procs[r * cols + c]

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                net.connect(at(r, c), at(r, c + 1), lspeed())
            elif wrap and cols > 2:
                net.connect(at(r, c), at(r, 0), lspeed())
            if r + 1 < rows:
                net.connect(at(r, c), at(r + 1, c), lspeed())
            elif wrap and rows > 2:
                net.connect(at(r, c), at(0, c), lspeed())
    return net


def torus2d(
    rows: int,
    cols: int,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
) -> NetworkTopology:
    """A rows x cols wrap-around mesh."""
    return mesh2d(rows, cols, proc_speed, link_speed, rng, wrap=True)


def hypercube(
    dim: int,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
) -> NetworkTopology:
    """A ``dim``-dimensional binary hypercube of 2**dim processors."""
    if dim < 1:
        raise TopologyError(f"hypercube dimension must be >= 1, got {dim}")
    gen = as_rng(rng)
    net = NetworkTopology(name=f"hypercube-{dim}")
    procs = _add_processors(net, 2**dim, proc_speed, gen)
    lspeed = _speed_sampler(link_speed, gen)
    for i in range(2**dim):
        for d in range(dim):
            j = i ^ (1 << d)
            if j > i:
                net.connect(procs[i], procs[j], lspeed())
    return net


def fat_tree(
    n_procs: int,
    procs_per_leaf: int = 4,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
    *,
    uplink_factor: float = 2.0,
) -> NetworkTopology:
    """Two-level switch tree; uplinks are ``uplink_factor`` x faster ("fatter")."""
    if procs_per_leaf < 1:
        raise TopologyError(f"procs_per_leaf must be >= 1, got {procs_per_leaf}")
    gen = as_rng(rng)
    net = NetworkTopology(name=f"fat_tree-{n_procs}")
    procs = _add_processors(net, n_procs, proc_speed, gen)
    lspeed = _speed_sampler(link_speed, gen)
    root = net.add_switch("root")
    for base in range(0, n_procs, procs_per_leaf):
        leaf = net.add_switch(f"leaf{base // procs_per_leaf}")
        edge_speed = lspeed()
        for p in procs[base : base + procs_per_leaf]:
            net.connect(p, leaf, edge_speed)
        net.connect(leaf, root, edge_speed * uplink_factor)
    return net


def shared_bus(
    n_procs: int,
    proc_speed: SpeedSpec = 1.0,
    bus_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
) -> NetworkTopology:
    """All processors on one half-duplex bus (maximum contention)."""
    if n_procs < 2:
        raise TopologyError(f"a bus needs at least 2 processors, got {n_procs}")
    gen = as_rng(rng)
    net = NetworkTopology(name=f"bus-{n_procs}")
    procs = _add_processors(net, n_procs, proc_speed, gen)
    sample = _speed_sampler(bus_speed, gen)
    net.add_bus(procs, sample())
    return net


def random_wan(
    n_procs: int,
    rng: int | np.random.Generator | None = None,
    *,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    procs_per_switch: tuple[int, int] = (4, 16),
    extra_backbone_density: float = 0.3,
) -> NetworkTopology:
    """The paper's Section 6 topology.

    Each switch connects ``U(4, 16)`` processors; switches form a random
    connected backbone ("there exists a path between any pair of switches;
    the switches are connected randomly").  The backbone is a random spanning
    tree plus extra random switch-switch cables with the given density.
    """
    if n_procs < 1:
        raise TopologyError(f"need at least one processor, got {n_procs}")
    lo, hi = procs_per_switch
    if lo < 1 or hi < lo:
        raise TopologyError(f"invalid procs_per_switch range {procs_per_switch}")
    gen = as_rng(rng)
    net = NetworkTopology(name=f"random_wan-{n_procs}")
    procs = _add_processors(net, n_procs, proc_speed, gen)
    lspeed = _speed_sampler(link_speed, gen)

    # Partition processors among switches, U(lo, hi) per switch.
    switches: list[Vertex] = []
    i = 0
    while i < n_procs:
        take = int(gen.integers(lo, hi + 1))
        switch = net.add_switch()
        switches.append(switch)
        for p in procs[i : i + take]:
            net.connect(p, switch, lspeed())
        i += take

    # Random connected backbone: random-order spanning tree, then extras.
    if len(switches) > 1:
        order = list(gen.permutation(len(switches)))
        for idx in range(1, len(order)):
            a = switches[order[idx]]
            b = switches[order[int(gen.integers(0, idx))]]
            net.connect(a, b, lspeed())
        for x in range(len(switches)):
            for y in range(x + 1, len(switches)):
                if gen.random() < extra_backbone_density:
                    net.connect(switches[x], switches[y], lspeed())
    return net


TOPOLOGY_BUILDERS: dict[str, Callable[..., NetworkTopology]] = {
    "fully_connected": fully_connected,
    "switched_cluster": switched_cluster,
    "linear_array": linear_array,
    "ring": ring,
    "mesh2d": mesh2d,
    "torus2d": torus2d,
    "hypercube": hypercube,
    "fat_tree": fat_tree,
    "shared_bus": shared_bus,
    "random_wan": random_wan,
}


def torus3d(
    dims: tuple[int, int, int],
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
) -> NetworkTopology:
    """A 3-D wrap-around mesh (the classic HPC torus), ``x*y*z`` processors."""
    x, y, z = dims
    if min(x, y, z) < 1:
        raise TopologyError(f"torus3d needs positive dimensions, got {dims}")
    gen = as_rng(rng)
    net = NetworkTopology(name=f"torus3d-{x}x{y}x{z}")
    procs = _add_processors(net, x * y * z, proc_speed, gen)
    lspeed = _speed_sampler(link_speed, gen)

    def at(i: int, j: int, k: int) -> Vertex:
        return procs[(i * y + j) * z + k]

    for i in range(x):
        for j in range(y):
            for k in range(z):
                for d, n in ((x, (i + 1, j, k)), (y, (i, j + 1, k)), (z, (i, j, k + 1))):
                    ii, jj, kk = n
                    if (ii < x and jj < y and kk < z):
                        net.connect(at(i, j, k), at(ii, jj, kk), lspeed())
                    elif d > 2:  # wrap, avoiding duplicate cables on dims <= 2
                        net.connect(at(i, j, k), at(ii % x, jj % y, kk % z), lspeed())
    return net


def dragonfly(
    groups: int = 4,
    routers_per_group: int = 4,
    procs_per_router: int = 2,
    proc_speed: SpeedSpec = 1.0,
    link_speed: SpeedSpec = 1.0,
    rng: int | np.random.Generator | None = None,
    *,
    global_factor: float = 2.0,
) -> NetworkTopology:
    """A dragonfly: all-to-all routers inside each group, one global link
    between every group pair; global links are ``global_factor`` x faster."""
    if groups < 2 or routers_per_group < 1 or procs_per_router < 1:
        raise TopologyError(
            f"dragonfly needs groups >= 2, routers >= 1, procs >= 1, got "
            f"({groups}, {routers_per_group}, {procs_per_router})"
        )
    gen = as_rng(rng)
    net = NetworkTopology(name=f"dragonfly-{groups}x{routers_per_group}x{procs_per_router}")
    lspeed = _speed_sampler(link_speed, gen)
    pspeed = _speed_sampler(proc_speed, gen)
    routers: list[list[Vertex]] = []
    for g in range(groups):
        group_routers = [net.add_switch(f"g{g}r{r}") for r in range(routers_per_group)]
        for r in group_routers:
            for _ in range(procs_per_router):
                net.connect(net.add_processor(pspeed()), r, lspeed())
        for a in range(routers_per_group):
            for b in range(a + 1, routers_per_group):
                net.connect(group_routers[a], group_routers[b], lspeed())
        routers.append(group_routers)
    for ga in range(groups):
        for gb in range(ga + 1, groups):
            # One global link per group pair, spread across routers.
            a = routers[ga][gb % routers_per_group]
            b = routers[gb][ga % routers_per_group]
            net.connect(a, b, lspeed() * global_factor)
    return net

TOPOLOGY_BUILDERS["torus3d"] = torus3d
TOPOLOGY_BUILDERS["dragonfly"] = dragonfly

#: the fabric families, as ``fabric_for_procs`` and ``repro topo`` name them
FABRIC_KINDS = ("fat_tree", "leaf_spine", "torus")


def _sized_fabric(kind: str) -> Callable[..., NetworkTopology]:
    """The ``fabric_<kind>`` builder: a ``kind`` fabric sized to ``n_procs``.

    :mod:`repro.network.fabrics` imports this module, so it is imported
    when the builder is first called rather than here.
    """

    def sized(
        n_procs: int,
        proc_speed: SpeedSpec = 1.0,
        link_speed: SpeedSpec = 1.0,
        rng: int | np.random.Generator | None = None,
    ) -> NetworkTopology:
        from repro.network.fabrics import fabric_for_procs

        return fabric_for_procs(
            kind, n_procs, rng, proc_speed=proc_speed, link_speed=link_speed
        )

    sized.__name__ = f"{kind}_fabric_for_procs"
    return sized


# ``repro schedule --topology`` and the sweep configs name the fabrics
# exactly like the classic builders.
for _kind in FABRIC_KINDS:
    TOPOLOGY_BUILDERS[f"fabric_{_kind}"] = _sized_fabric(_kind)
