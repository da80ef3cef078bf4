"""Exact enumeration of the finite-sheeted coverings of the Hantzsche-Wendt
manifold: normal-form arithmetic in its fundamental group, constructive
subgroup descriptors for all three isomorphism types, closed-form counting,
exact Dirichlet-series coefficients, and an independent brute-force
coset-table oracle cross-checking every number.

The top level holds the names that the README and the demos import from it.
Everything else lives in the submodules: ``group``, ``lattice``, ``arith``,
``catalog``, ``oracle`` and ``cli``.
"""

from .catalog import (
    class_count,
    contains,
    count_s,
    enumerate_g2,
    enumerate_g6,
    enumerate_z3,
    generators,
    index_of,
)
from .group import Element, GENERATORS, IDENTITY, eval_word
from .oracle import cross_check, descriptor_to_table

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
