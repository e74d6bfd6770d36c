"""Succinct choice dictionaries and the word-parallel kernels beneath them.

The package provides constant-time-initializable set and semipartition
structures at (near-)information-theoretic space, plus a space-audited
breadth-first search built on the 3-color dictionary.
"""

from .words import BitString, FieldView
from .uncolored import UncoloredDict
from .colored import ColoredDict
from .bfs import ForestRecord, Graph, bfs_forest, load_graph, verify_forest

__all__ = ["BitString", "FieldView", "UncoloredDict", "ColoredDict",
           "Graph", "ForestRecord", "bfs_forest", "load_graph",
           "verify_forest"]
