"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists each public name once, under the submodule
that defines it; the submodule is imported the first time the name is
read.  Importing a package therefore costs nothing until one of its
names is used, and a process loads only the layers it runs.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]],
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*, whose public
    names are *table*: submodule → the names it defines."""
    home = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{home[name]}"), name)
        # Bind it: the next read is a plain module-dict hit.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, sorted(home)
