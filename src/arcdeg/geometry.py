"""Dimension formulas for the strata of same-type objects and for the
orbits of embeddings with both Jordan types fixed.

The stratum of an object is the sum of three orbit dimensions: of the
subspace operator, |alpha|^2 - aut_degree(alpha); of the ambient
operator, |beta|^2 - aut_degree(beta); and of the embedding,
hall_degree + aut_degree(alpha) - x, with x the crossings of its
diagram.  aut_degree(alpha) cancels, and with aut_degree = |.| + 2 n(.)
and hall_degree = n(beta) - n(alpha) - n(gamma) both dimensions are
closed forms in the weights |.| and moments n(.) of the three types:

    stratum = |alpha|^2 + |beta|^2 - |beta| - n(alpha) - n(beta) - n(gamma) - x
    orbit   = n(beta) + n(alpha) - n(gamma) + |alpha| - x

All quantities are exact integers; Python's arbitrary-precision ints
rule out overflow.
"""

from __future__ import annotations

from .objects import S2Object, alpha_of, crossings, diagram_of_object, object_type
from .partitions import Partition


def stratum_dim(obj: S2Object) -> int:
    """Dimension of the stratum of all representations isomorphic to the
    object, inside the variety of embeddings with ambient type beta and
    quotient type gamma: the sum of the orbit dimensions of the subspace
    operator (type alpha), the ambient operator and the embedding,

        |alpha|^2 - aut_degree(alpha) + |beta|^2 - aut_degree(beta) + subspace_orbit_dim
    """
    beta, gamma = object_type(obj)
    return _stratum_dim_less_crossings(alpha_of(obj), beta, gamma) - crossings(diagram_of_object(obj))


def _stratum_dim_less_crossings(alpha: Partition, beta: Partition, gamma: Partition) -> int:
    """The stratum dimension plus the crossings: the part fixed by the
    three Jordan types alone.  In the sum of the three orbit dimensions
    aut_degree(alpha) cancels, leaving

        |alpha|^2 + |beta|^2 - |beta| - n(alpha) - n(beta) - n(gamma)
    """
    a, b = alpha.weight(), beta.weight()
    return a * a + b * b - b - alpha.moment() - beta.moment() - gamma.moment()


def hall_degree(alpha: Partition, beta: Partition, gamma: Partition) -> int:
    """Degree of the Hall polynomial counting subobjects of the given
    types: n(beta) - n(alpha) - n(gamma)."""
    return beta.moment() - alpha.moment() - gamma.moment()


def aut_degree(alpha: Partition) -> int:
    """Degree of the polynomial counting automorphisms of a nilpotent
    operator of type alpha over a finite field: |alpha| + 2 n(alpha)."""
    return alpha.weight() + 2 * alpha.moment()


def subspace_orbit_dim(obj: S2Object) -> int:
    """Dimension of the orbit of the embedding under the automorphism
    groups of subspace and ambient space, with all three types fixed:
    hall_degree + aut_degree(alpha) - crossings."""
    beta, gamma = object_type(obj)
    return _orbit_dim(alpha_of(obj), beta, gamma, crossings(diagram_of_object(obj)))


def _orbit_dim(alpha: Partition, beta: Partition, gamma: Partition, x: int) -> int:
    """hall_degree + aut_degree(alpha) - x, where -n(alpha) + 2 n(alpha)
    leaves n(beta) + n(alpha) - n(gamma) + |alpha| - x."""
    return beta.moment() + alpha.moment() - gamma.moment() + alpha.weight() - x
