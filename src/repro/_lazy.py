"""PEP 562 lazy exports for the package ``__init__`` modules.

A package lists its public names in one ``name -> module`` table and
installs the pair returned by :func:`lazy_exports` as its module-level
``__getattr__`` and ``__dir__``.  A name's defining module is imported on
first access, so importing a package -- or one light submodule of it --
never loads the rest: a process that never solves never imports numpy,
networkx or :mod:`repro.api`.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, str]):
    """``(__getattr__, __dir__)`` serving ``exports`` for ``package``.

    ``exports[name]`` names the module that defines ``name``; a name whose
    module is ``f"{package}.{name}"`` is that submodule itself.  A resolved
    value is stored in the package namespace, so the lookup runs once per
    name.
    """

    def __getattr__(name: str) -> Any:
        try:
            module_name = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(module_name)
        value = (module if module_name == f"{package}.{name}"
                 else getattr(module, name))
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
