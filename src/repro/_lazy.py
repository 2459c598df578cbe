"""PEP 562 lazy exports for the package ``__init__`` modules.

A package names each public attribute once, under the submodule that
defines it, and binds what :func:`lazy_exports` returns as its module
``__getattr__`` and ``__dir__``.  Importing the package then loads none
of its submodules; the first access to a name imports the one submodule
that defines it and caches the object in the package namespace, so
later accesses are plain attribute lookups.  ``from pkg import name``
and ``from pkg import *`` go through the same ``__getattr__``.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: dict, submodules: Mapping[str, Sequence[str]]
) -> Tuple[Dict[str, str], Callable[[str], object], Callable[[], List[str]]]:
    """Return ``(origin, __getattr__, __dir__)`` for a package.

    ``namespace`` is the package's ``globals()``; ``submodules`` maps a
    relative submodule name (``".engine"``) to the public names it
    defines.  ``origin`` is the flat name -> submodule table the
    package derives its ``__all__`` from.
    """
    package = namespace["__name__"]
    origin = {name: sub for sub, names in submodules.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            submodule = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(submodule, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *origin})

    return origin, __getattr__, __dir__
