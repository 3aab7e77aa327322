"""Crepant: quivers with superpotentials, crystal counting, and the vertex.

The layer modules are the API (``crepant.quiver``, ``crepant.crystal``,
``crepant.vertex``, ...); the package re-exports nothing.
"""

# perfbench/sweep.py reads sys.modules["crepant.reps"] after a bare
# ``import crepant``, so the package loads that one layer
from . import reps  # noqa: F401
