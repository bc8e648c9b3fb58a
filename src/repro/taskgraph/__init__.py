"""Task-graph (DAG) model: the workload side of edge scheduling.

A :class:`TaskGraph` is a directed acyclic graph whose nodes carry computation
costs and whose edges carry communication costs, exactly the ``G = (V, E, w,
c)`` of the paper's Section 2.1.

Each public name is imported from its submodule on first access (see
:mod:`repro._lazy`); ``kernels`` is a submodule.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "Task": "graph",
    "CommEdge": "graph",
    "TaskGraph": "graph",
    "bottom_levels": "priorities",
    "top_levels": "priorities",
    "critical_path": "priorities",
    "critical_path_length": "priorities",
    "priority_list": "priorities",
    "ccr_of": "ccr",
    "scale_to_ccr": "ccr",
    "random_layered_dag": "generators",
    "random_fan_dag": "generators",
    "kernels": None,
    "graph_to_json": "io",
    "graph_from_json": "io",
    "graph_to_dot": "io",
    "validate_graph": "validate",
})
