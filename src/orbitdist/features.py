"""Canonical flattened feature vectors used by databases and the CLI.

``feature_vector`` is the single entry point that search structures and
file formats rely on, so a database built by one code path can always be
queried by another.  For the euclidean action on planar triangles (2x3
real inputs) it returns the three triangle coordinates, which carry the
same pairwise distances as the generic euclidean feature in the same
number of dimensions.
"""
from __future__ import annotations

import numpy as np

from .embeddings import _at_scale, _block, _flatten
from .errors import FeatureMapMismatchError
from .linalg import _finite
from .metrics import GroupAction, _configuration
from .reduction import ReducerBasis, _check_reducer, _reduced_stack
from .triangles import _triangle_coords

FULL = "full"
REDUCED = "reduced"


def feature_vector(
    group: GroupAction,
    a,
    feature_map: str = FULL,
    reducer: ReducerBasis | None = None,
) -> np.ndarray:
    """Flattened invariant feature of a configuration.

    A ``reducer``, if given with the reduced map, must be
    :func:`reducer_for` the group and shape.  NonFiniteError when the
    feature overflows float64, as for a database record."""
    m = _configuration(group, a, "A")
    if feature_map == REDUCED:
        _check_reducer(group, *m.shape, reducer)
    return _feature(group, m, feature_map, "A")


def _feature(group: GroupAction, m: np.ndarray, feature_map: str, name: str) -> np.ndarray:
    """:func:`feature_vector` of a validated configuration; messages name
    it ``name``."""
    if feature_map not in (FULL, REDUCED):
        raise FeatureMapMismatchError(f"unknown feature map {feature_map!r}")
    return _finite(_feature_stack(group, m, feature_map), name)


def _is_triangle(group: GroupAction, x: np.ndarray) -> bool:
    return group is GroupAction.EUCLIDEAN and x.shape[-2:] == (2, 3) and not np.iscomplexobj(x)


def _feature_stack(group: GroupAction, x: np.ndarray, feature_map: str) -> np.ndarray:
    """:func:`feature_vector` of each configuration in a validated
    ``(..., n, l)`` stack, one row each (a single ``(n, l)`` configuration
    gives one vector)."""
    if feature_map == REDUCED:
        return _reduced_stack(group, x)
    if _is_triangle(group, x):
        return _triangle_coords(x)
    b, c = _block(group, x)
    return _at_scale(_flatten(b, hermitian=group.is_complex), c)
