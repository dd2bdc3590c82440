"""Integer additive set-labelings and set-indexers of finite simple graphs.

A vertex labeling assigns each vertex a non-empty finite set of
non-negative integers; each edge receives the sum set of its endpoint
labels.  The package provides the exact arithmetic, a graph toolbox
with a strict graph6 codec, labeling classification, deterministic
constructions with verify-then-repair, bounded exact search, a registry
of exhaustive claim checks, and a command line binding all of it.
"""

from . import cli, construct, graph, graph6, intset, labeling, oracle, search
from .intset import *
from .graph6 import *
from .graph import *
from .labeling import *
from .construct import *
from .search import *
from .oracle import *
from .cli import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (intset, graph6, graph, labeling, construct, search, oracle, cli)
    for name in module.__all__
] + ["__version__"]
