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
from .errors import FeatureMapMismatchError, ShapeMismatchError, _shown
from .linalg import _finite
from .metrics import GroupAction, _configuration
from .reduction import ReducerBasis, _reduced_stack, reduced_embedding
from .triangles import _triangle_coords

FULL = "full"
REDUCED = "reduced"
# the name reports give the full feature of a planar triangle under E
# (:func:`_is_triangle`), its three triangle coordinates
MAP_TRIANGLE = "triangle_embedding"


def feature_vector(
    group: GroupAction,
    a,
    feature_map: str = FULL,
    reducer: ReducerBasis | None = None,
) -> np.ndarray:
    """Flattened invariant feature of a configuration.

    The reduced map is :func:`reduced_embedding`, which checks a
    ``reducer`` given with it; the full map takes none, and refuses one
    with ShapeMismatchError.  NonFiniteError when the feature overflows
    float64, as for a database record."""
    if feature_map == REDUCED:
        return reduced_embedding(group, a, reducer)
    if feature_map == FULL and reducer is not None:
        raise ShapeMismatchError(f"the full feature map takes no reducer, got {_shown(reducer)}")
    return _feature(group, _configuration(group, a, "A"), feature_map, "A")


def _check_map(feature_map) -> None:
    """FeatureMapMismatchError unless ``feature_map`` names a feature map."""
    if feature_map not in (FULL, REDUCED):
        raise FeatureMapMismatchError(f"unknown feature map {_shown(feature_map)}")


def _feature(group: GroupAction, m: np.ndarray, feature_map: str, name: str) -> np.ndarray:
    """:func:`feature_vector` of a validated configuration; messages name
    it ``name``."""
    _check_map(feature_map)
    return _finite(_feature_stack(group, m, feature_map), name)


def _feature_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distance between the features ``a`` and ``b`` along their last
    axis, broadcast over the others: the bits of
    ``np.linalg.norm(a - b, axis=-1)``, with one temporary."""
    d = a - b
    d *= d
    return np.sqrt(np.add.reduce(d, axis=-1))


def _is_triangle(group: GroupAction, x: np.ndarray) -> bool:
    return group is GroupAction.EUCLIDEAN and x.shape[-2:] == (2, 3)


def _feature_stack(group: GroupAction, x: np.ndarray, feature_map: str) -> np.ndarray:
    """:func:`feature_vector` of each configuration in a validated
    ``(..., n, l)`` stack, one row each (a single ``(n, l)`` configuration
    gives one vector)."""
    if feature_map == REDUCED:
        return _reduced_stack(group, x)
    if _is_triangle(group, x):
        return _triangle_coords(x)
    b, c = _block(group, x)
    return _at_scale(_flatten(b), c)
