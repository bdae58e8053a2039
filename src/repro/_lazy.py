"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package ``__init__`` that only re-exports names declares one table, from
each submodule to the names it provides, and :func:`lazy_exports` turns
that table into the package's ``__getattr__``, ``__dir__`` and
``__all__``.  Nothing is imported until a name is first read; the value
is then stored in the package namespace, so later reads are plain
attribute lookups.

The point is start-up time: ``import repro`` and each console script load
only the modules they use, not every subsystem and its third-party
dependencies (see "Start-up path" in ``docs/performance.md``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Iterator, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` serving ``table`` for ``package``.

    ``table`` maps a module name (a relative one such as ``".csr"``
    resolves against ``package``) to the names it exports.  A name equal
    to the module's own last component, as in ``{".io": ("io",)}``,
    exports the module itself.  ``__all__`` lists every name in table
    order.
    """
    origin: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        loaded = importlib.import_module(module, package)
        if loaded.__name__.endswith("." + name):
            value = loaded
        else:
            value = getattr(loaded, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)


class LazyRegistry(Mapping[str, Any]):
    """A read-only mapping whose values are imported on first lookup.

    ``refs`` maps each key to ``"module:attribute"`` (relative modules
    resolve against ``package``).  Keys, membership and length need no
    import, so listing a registry stays cheap.
    """

    def __init__(self, package: str, refs: Mapping[str, str]) -> None:
        self._package = package
        self._refs = dict(refs)
        self._loaded: Dict[str, Any] = {}

    def __getitem__(self, key: str) -> Any:
        try:
            return self._loaded[key]
        except KeyError:
            module, _, attr = self._refs[key].partition(":")
        loaded = importlib.import_module(module, self._package)
        value = self._loaded[key] = getattr(loaded, attr)
        return value

    def __iter__(self) -> Iterator[str]:
        return iter(self._refs)

    def __len__(self) -> int:
        return len(self._refs)
