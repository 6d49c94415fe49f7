"""Modules that load on first use.

Digit maps, orbits, Lyapunov sums, ? and jimm are exact integer work;
only the float side (transfer operators, spectra, power sums) needs
numpy.  Modules bind numpy through `lazy_import`, so a process that never
touches the float side never loads it.  Importing cfdyn runs no numpy
call.
"""

from __future__ import annotations

import importlib.util
import sys
import types


def lazy_import(name: str) -> types.ModuleType:
    """The module `name`, executed on its first attribute access.

    The `importlib.util.LazyLoader` recipe ("Implementing lazy imports"
    in the importlib documentation): the module is put in `sys.modules`
    at once, so a later `import name` anywhere returns the same object,
    and it runs its body when an attribute is first read.  A module
    already in `sys.modules`, loaded or still lazy, is returned as it is.
    The 3.11 loader is not thread-safe during that first access; cfdyn
    runs no threads."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
