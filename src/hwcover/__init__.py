"""Exact enumeration of the finite-sheeted coverings of the Hantzsche-Wendt
manifold: normal-form arithmetic in its fundamental group, constructive
subgroup descriptors for all three isomorphism types, closed-form counting,
exact Dirichlet-series coefficients, and an independent brute-force
coset-table oracle cross-checking every number.
"""

from .arith import (
    convolve,
    d3,
    d3_alternating,
    gf_coeffs,
    omega,
    sigma0,
    sigma1,
    sigma2,
    zeta_coeffs,
    zeta_product,
)
from .catalog import (
    Descriptor,
    G2Descriptor,
    G6Descriptor,
    Z3Descriptor,
    class_count,
    conjugacy_classes,
    conjugate_descriptor,
    contains,
    count_c,
    count_s,
    enumerate_g2,
    enumerate_g6,
    enumerate_index,
    enumerate_iso,
    enumerate_z3,
    generators,
    index_of,
    iter_classes,
    iter_g2,
    iter_g6,
    iter_index,
    iter_iso,
    iter_z3,
    normal_counts,
    series_report,
)
from .group import AffineIso, Element, GENERATORS, IDENTITY, eval_word, parse_word
from .lattice import Hnf2, Hnf3, hnf2_all, hnf2_of, hnf3_all, hnf3_of, iter_hnf3
from .oracle import (
    CosetTable,
    canonical_table,
    classes_of,
    cross_check,
    descriptor_to_table,
    low_index,
    stabilizer_type,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
