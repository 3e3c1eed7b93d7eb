"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists its public names by submodule; the submodule is imported
the first time one of its names is read, and the value is then kept in the
package's namespace so later reads are plain attribute hits.  ``from
repro.shard import ShardedService`` therefore loads ``repro.shard.service``
and what it imports, not every sibling module of the package.  See DESIGN
§4 for the layering this keeps.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for ``package``.

    ``exports`` maps a relative submodule (``".service"``) to the names it
    provides; ``"SERVICE_NAME as ORACLE_SERVICE_NAME"`` exports a renamed
    attribute.  An unknown name raises :class:`AttributeError`, so ``from
    package import submodule`` still falls back to importing the submodule.
    """
    table: dict[str, tuple[str, str]] = {}
    for module, names in exports.items():
        for item in names:
            attr, _, public = item.partition(" as ")
            table[public or attr] = (module, attr)

    def __getattr__(name: str) -> Any:
        try:
            module, attr = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), attr)
        setattr(sys.modules[package], name, value)
        return value

    return list(table), __getattr__
