"""Game-theoretic power control for the two-transmitter interference channel.

Layers: physical channel (network), finite on/off games (finite), the
continuous energy-efficiency game and its equilibria (continuous),
efficiency analysis on the utility plane and its frontier (efficiency),
grim-trigger repeated play (repeated), the bracketed root of the
efficiency search (numerics), and a JSON-configured CLI (config, cli).  The
package re-exports every module's ``__all__`` except the CLI's, each name
from the one module that lists it.  It loads modules on first use (PEP 562):
asking for a module loads that module, and asking for any other name loads
modules in turn, each after the modules it imports, until one lists it.  So
``import icpower`` loads no module, ``icpower.NetworkModel`` loads only
``network``, and a CLI command loads only the solver modules it runs.  No
module imports numpy at import time: efficiency imports it inside the
functions that build the utility plane.  No module imports ``dataclasses``:
the record types are ``__slots__`` classes on ``network._Record``, which
keeps start-up short.
"""
import sys

__version__ = "0.1.0"

# each module after every module it imports, so that a name's lookup stops at
# its own module before it loads any module that imports that one
_MODULES = ("network", "config", "numerics", "continuous", "efficiency", "finite", "repeated")


def _load(module: str):
    name = f"{__name__}.{module}"
    __import__(name)
    return sys.modules[name]


def __getattr__(name: str):
    # nothing is cached here, so the package always hands out the module's
    # current attribute
    if name in _MODULES:
        return _load(name)
    if name == "__all__":
        return sorted([*(n for m in _MODULES for n in _load(m).__all__), "__version__"])
    for module in map(_load, _MODULES):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
