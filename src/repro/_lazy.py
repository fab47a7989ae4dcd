"""Lazy package exports (PEP 562): a package loads what is asked of it.

A package ``__init__`` holds one table, ``name -> module``, in the order
its ``__all__`` lists the names; a module starting with ``.`` is
relative to the package. ``from repro.core import DavFile`` then imports
``repro.core.file`` and nothing else of ``repro.core``, so a client
process never pays for a sibling (a simulator, a storage server) it
cannot use. See DESIGN.md §3 for the import rule this serves.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Tuple


def exports(
    package: str, table: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of ``package`` for ``table``.

    A name resolves on first access and is then cached on the package
    module, so later accesses are plain attribute hits. The import lock
    makes two threads resolving one name agree on the object.
    """

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
