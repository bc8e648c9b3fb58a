"""repro — contention-aware edge scheduling for task DAGs.

Reproduction of Han & Wang, *Edge Scheduling Algorithms in Parallel and
Distributed Systems* (ICPP 2006): the OIHSA and BBSA contention-aware list
schedulers, Sinnen & Sousa's BA baseline, the classic contention-free
baseline, and the full simulation substrate they run on (task graphs,
network topologies, link/time-slot scheduling, fluid bandwidth model).

Quickstart::

    from repro import kernels, random_wan, OIHSAScheduler, validate_schedule

    graph = kernels.gaussian_elimination(6, rng=1)
    net = random_wan(16, rng=2)
    schedule = OIHSAScheduler().schedule(graph, net)
    validate_schedule(schedule)
    print(schedule.summary())
"""

from repro import _lazy

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    # errors
    "ReproError": "exceptions",
    "GraphError": "exceptions",
    "CycleError": "exceptions",
    "TopologyError": "exceptions",
    "RoutingError": "exceptions",
    "SchedulingError": "exceptions",
    "ValidationError": "exceptions",
    "SerializationError": "exceptions",
    # task graphs
    "Task": "taskgraph",
    "CommEdge": "taskgraph",
    "TaskGraph": "taskgraph",
    "bottom_levels": "taskgraph",
    "top_levels": "taskgraph",
    "critical_path": "taskgraph",
    "critical_path_length": "taskgraph",
    "priority_list": "taskgraph",
    "ccr_of": "taskgraph",
    "scale_to_ccr": "taskgraph",
    "random_layered_dag": "taskgraph",
    "random_fan_dag": "taskgraph",
    "kernels": "taskgraph",
    "graph_to_json": "taskgraph",
    "graph_from_json": "taskgraph",
    "graph_to_dot": "taskgraph",
    "validate_graph": "taskgraph",
    # networks
    "Vertex": "network",
    "Link": "network",
    "NetworkTopology": "network",
    "Route": "network",
    "fully_connected": "network",
    "switched_cluster": "network",
    "linear_array": "network",
    "ring": "network",
    "mesh2d": "network",
    "torus2d": "network",
    "hypercube": "network",
    "fat_tree": "network",
    "shared_bus": "network",
    "random_wan": "network",
    "torus3d": "network",
    "dragonfly": "network",
    "bfs_route": "network",
    "validate_topology": "network",
    "topology_to_json": "network",
    "topology_from_json": "network",
    "topology_to_dot": "network",
    # communication model
    "CommModel": "linksched",
    "CUT_THROUGH": "linksched",
    "STORE_AND_FORWARD": "linksched",
    # schedulers
    "Schedule": "core",
    "ContentionScheduler": "core",
    "ClassicScheduler": "core",
    "BAScheduler": "core",
    "OIHSAScheduler": "core",
    "BBSAScheduler": "core",
    "HEFTScheduler": "core",
    "CPOPScheduler": "core",
    "AnnealingScheduler": "core",
    "GeneticScheduler": "core",
    "PacketBAScheduler": "core",
    "SCHEDULERS": "core",
    "processor_breakdown": "core",
    "schedule_critical_chain": "core",
    "contention_hotspots": "core",
    "simulate_mapping": "core",
    "resimulate": "core",
    "schedule_to_json": "core",
    "schedule_from_json": "core",
    "replay_under_contention": "core",
    "contention_penalty": "core",
    "validate_schedule": "core",
    "makespan": "core",
    "speedup": "core",
    "efficiency": "core",
    "schedule_length_ratio": "core",
    "link_utilization": "core",
    "improvement_ratio": "core",
})
__all__.append("__version__")
