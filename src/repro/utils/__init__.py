"""Small self-contained helpers shared across the library.

Each public name is imported from its submodule on first access (see
:mod:`repro._lazy`).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "as_rng": "rng",
    "spawn_rng": "rng",
    "format_table": "tables",
    "format_series": "tables",
})
