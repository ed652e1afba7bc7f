"""Game-theoretic power control for the two-transmitter interference channel.

Layers: physical channel (network), finite on/off games (finite), the
continuous energy-efficiency game and its equilibria (continuous),
efficiency analysis on the utility plane and its frontier (efficiency),
grim-trigger repeated play (repeated), bisection and bracketed roots
(numerics), and a JSON-configured CLI (config, cli).  The package
re-exports every module's ``__all__`` except the CLI's.  No module imports
numpy at import time: efficiency imports it inside the functions that build
the utility plane.  No module imports ``dataclasses``: the record types are
``__slots__`` classes on ``network._Record``, which keeps start-up short.
"""
from . import config, continuous, efficiency, finite, network, numerics, repeated
from .config import *
from .continuous import *
from .efficiency import *
from .finite import *
from .network import *
from .numerics import *
from .repeated import *

__version__ = "0.1.0"

__all__ = [*config.__all__, *continuous.__all__, *efficiency.__all__, *finite.__all__,
           *network.__all__, *numerics.__all__, *repeated.__all__, "__version__"]
