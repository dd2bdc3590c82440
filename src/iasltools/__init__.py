"""Integer additive set-labelings and set-indexers of finite simple graphs.

A vertex labeling assigns each vertex a non-empty finite set of
non-negative integers; each edge receives the sum set of its endpoint
labels.  The package provides the exact arithmetic, a graph toolbox
with a strict graph6 codec, labeling classification, deterministic
constructions with verify-then-repair, bounded exact search, a registry
of exhaustive claim checks, and a command line binding all of it.
"""

from importlib import import_module as _import_module

from . import construct, graph, graph6, intset, labeling, oracle, search
from .intset import *
from .graph6 import *
from .graph import *
from .labeling import *
from .construct import *
from .search import *
from .oracle import *

__version__ = "0.1.0"

# cli is imported on first use, not here: `python -m iasltools.cli` imports
# the package and then runs cli.py as __main__, which would run it twice.
# These are cli.__all__, which test_api checks them against.
_CLI_NAMES = ("main", "console_main")

__all__ = [
    name
    for module in (intset, graph6, graph, labeling, construct, search, oracle)
    for name in module.__all__
] + list(_CLI_NAMES) + ["__version__"]


def __getattr__(name):
    if name == "cli" or name in _CLI_NAMES:
        cli = _import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
