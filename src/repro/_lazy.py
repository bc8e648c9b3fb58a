"""Package facades that import a public name's submodule on first access.

Every re-exporting package ``__init__`` hands :func:`attach` one table,
public name -> submodule that defines it, and gets back its PEP 562
``__getattr__`` and ``__dir__`` plus ``__all__``.  Importing the package
then runs none of its submodules: ``repro.TaskGraph`` imports
:mod:`repro.taskgraph.graph` when it is first read, and the package keeps
the class, so later reads are plain attribute lookups.  A process pays only
for the modules it uses, which matters because every ``python -m repro``
call and every spawn- or forkserver-started pool worker imports the package
afresh.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Any, Callable, Mapping

#: Module attribute holding a facade's table (read by ``_Facade``).
_TABLE = "_lazy_exports"


class _Facade(ModuleType):
    """A package module whose public names win over same-named submodules.

    The import system binds every submodule it loads on its package
    (``setattr(package, "explain", <module>)``).  Where a public name is
    also the name of the submodule defining it -- ``repro.core.explain``,
    the function in the module of that name -- the package keeps the
    function, whichever of the two is imported first.
    """

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, ModuleType) and self.__dict__[_TABLE].get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


def attach(
    package: str, exports: Mapping[str, str | None]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` of the package named ``package``.

    ``exports`` maps each public name, in ``__all__`` order, to the
    submodule (relative to ``package``) whose attribute of that name it is;
    a name mapped to ``None`` is itself a submodule of the package.  Names
    not in ``exports`` raise ``AttributeError``, so ``from package import
    submodule`` still falls back to importing the submodule.
    """
    module = sys.modules[package]

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        if submodule is None:
            return importlib.import_module(f"{package}.{name}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        module.__dict__[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(module.__dict__) | set(exports))

    module.__dict__[_TABLE] = exports
    module.__class__ = _Facade
    return __getattr__, __dir__, list(exports)
