"""Network topology model: processors, switches, links and routing.

Implements the paper's ``TG = {N, P, D, H}`` (Section 2.2): network vertices
``N`` are processors ``P`` plus switches, ``D`` are directed point-to-point
links and ``H`` are hyperedges (buses).  Links are the schedulable resources
edge scheduling operates on.

Each public name is imported from its submodule on first access (see
:mod:`repro._lazy`).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "Vertex": "topology",
    "Link": "topology",
    "NetworkTopology": "topology",
    "Route": "topology",
    "fully_connected": "builders",
    "switched_cluster": "builders",
    "linear_array": "builders",
    "ring": "builders",
    "mesh2d": "builders",
    "torus2d": "builders",
    "hypercube": "builders",
    "fat_tree": "builders",
    "shared_bus": "builders",
    "random_wan": "builders",
    "torus3d": "builders",
    "dragonfly": "builders",
    "bfs_route": "routing",
    "FabricCounts": "fabrics",
    "fabric_for_procs": "fabrics",
    "kary_fat_tree": "fabrics",
    "leaf_spine": "fabrics",
    "torus_fabric": "fabrics",
    "validate_fabric": "fabrics",
    "validate_topology": "validate",
    "topology_to_json": "io",
    "topology_from_json": "io",
    "topology_to_dot": "io",
})
