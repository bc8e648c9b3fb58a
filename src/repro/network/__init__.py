"""Network topology model: processors, switches, links and routing.

Implements the paper's ``TG = {N, P, D, H}`` (Section 2.2): network vertices
``N`` are processors ``P`` plus switches, ``D`` are directed point-to-point
links and ``H`` are hyperedges (buses).  Links are the schedulable resources
edge scheduling operates on.
"""

from repro.network.topology import Vertex, Link, NetworkTopology, Route
from repro.network.builders import (
    fully_connected,
    switched_cluster,
    linear_array,
    ring,
    mesh2d,
    torus2d,
    hypercube,
    fat_tree,
    shared_bus,
    random_wan,
    torus3d,
    dragonfly,
)
from repro.network.routing import bfs_route
from repro.network.fabrics import (
    FabricCounts,
    fabric_for_procs,
    kary_fat_tree,
    leaf_spine,
    torus_fabric,
    validate_fabric,
)
from repro.network.validate import validate_topology
from repro.network.io import topology_to_json, topology_from_json, topology_to_dot

__all__ = [
    "Vertex",
    "Link",
    "NetworkTopology",
    "Route",
    "fully_connected",
    "switched_cluster",
    "linear_array",
    "ring",
    "mesh2d",
    "torus2d",
    "hypercube",
    "fat_tree",
    "shared_bus",
    "random_wan",
    "torus3d",
    "dragonfly",
    "bfs_route",
    "FabricCounts",
    "fabric_for_procs",
    "kary_fat_tree",
    "leaf_spine",
    "torus_fabric",
    "validate_fabric",
    "validate_topology",
    "topology_to_json",
    "topology_from_json",
    "topology_to_dot",
]
