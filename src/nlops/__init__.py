"""Nonlocal orthogonal product-state families and their certificates.

Build the four cyclic families of mutually orthogonal product states on
multipartite systems (equal or mixed local dimensions), and certify that the
only single-party measurement preserving their orthogonality is proportional
to the identity, i.e. that the set cannot be told apart by local operations
and classical communication.
"""

from . import certifier, constructions, oracles, serialize, tensor_core
from .certifier import *
from .constructions import *
from .oracles import *
from .serialize import *
from .tensor_core import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (certifier, constructions, oracles, serialize, tensor_core)
    for name in module.__all__
]
