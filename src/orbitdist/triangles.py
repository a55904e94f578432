"""Planar triangles modulo rigid motions.

A triangle is a 2-by-3 real matrix whose columns are the vertices;
degenerate (collinear or coincident) triangles are allowed everywhere.
Two invariant descriptions are provided:

- :func:`side_lengths` -- the classical triple of edge lengths.  It
  separates orbits and is Lipschitz with constant sqrt(3), but it is not
  bi-Lipschitz: :func:`side_lengths_counterexample` produces pairs whose
  side-length distance is quadratically small in their orbit distance.
- :func:`triangle_embedding` -- three coordinates read off the PSD square
  root of a 2x2 Gram matrix of centered edge combinations.  Distances
  between these coordinate triples equal distances between the general
  euclidean features exactly, so the sqrt(2) sandwich holds.  Its image is
  the round cone z >= 0, x^2 + y^2 <= z^2, and :func:`triangle_from_coords`
  inverts it.
"""
from __future__ import annotations

import numpy as np

from .errors import OutOfRangeError, ShapeMismatchError
from .linalg import as_matrix, psd_sqrt
from .metrics import dist_euclidean

_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)
_SQRT6 = np.sqrt(6.0)
# Vertices (a1, a2, a3) -> edge combinations (a2 - a1, 2 a3 - a1 - a2), and
# the norms that make them orthonormal.
_EDGE_COMBINATIONS = np.array([[-1.0, -1.0], [1.0, -1.0], [0.0, 2.0]])
_EDGE_NORMS = np.array([_SQRT2, _SQRT6])
# Root entries (r1, r3/sqrt(2), r3/sqrt(2), r2) -> triangle coordinates.
_ROOT_TO_COORDS = np.array(
    [
        [1 / _SQRT2, 0.0, 1 / _SQRT2],
        [0.0, _SQRT2, 0.0],
        [0.0, 0.0, 0.0],
        [-1 / _SQRT2, 0.0, 1 / _SQRT2],
    ]
)


def _as_triangle(t) -> np.ndarray:
    m = as_matrix(t, name="triangle")
    if np.iscomplexobj(m):
        raise ShapeMismatchError("a triangle must be real")
    if m.shape != (2, 3):
        raise ShapeMismatchError(f"a triangle is a 2x3 matrix of vertices, got {m.shape}")
    return m


def side_lengths(t) -> np.ndarray:
    """Edge lengths (|a2 - a3|, |a3 - a1|, |a1 - a2|) of a triangle."""
    m = _as_triangle(t)
    a1, a2, a3 = m.T
    return np.array(
        [np.linalg.norm(a2 - a3), np.linalg.norm(a3 - a1), np.linalg.norm(a1 - a2)]
    )


def _edge_grams(x: np.ndarray) -> np.ndarray:
    e = (x @ _EDGE_COMBINATIONS) / _EDGE_NORMS
    return e.swapaxes(-1, -2) @ e


def edge_gram(t) -> np.ndarray:
    """2x2 Gram matrix of the orthonormalized centered edge combinations
    (a2 - a1)/sqrt(2) and (2 a3 - a1 - a2)/sqrt(6)."""
    return _edge_grams(_as_triangle(t))


def _triangle_coords(x: np.ndarray) -> np.ndarray:
    """:func:`triangle_embedding` of every triangle in a validated
    ``(..., 2, 3)`` stack."""
    root = psd_sqrt(_edge_grams(x))
    return root.reshape(root.shape[:-2] + (4,)) @ _ROOT_TO_COORDS


def triangle_embedding(t) -> np.ndarray:
    """Three-coordinate bi-Lipschitz invariant of a triangle.

    With the PSD square root of :func:`edge_gram` written as
    ``[[r1, r3/sqrt(2)], [r3/sqrt(2), r2]]`` the coordinates are
    ``((r1 - r2)/sqrt(2), r3, (r1 + r2)/sqrt(2))``; euclidean distances
    between such triples coincide with Frobenius distances between the
    full euclidean features.
    """
    return _triangle_coords(_as_triangle(t))


def triangle_from_coords(coords) -> np.ndarray:
    """A triangle mapping to the given coordinates under
    :func:`triangle_embedding`.

    The coordinates must lie in the image cone z >= 0, x^2 + y^2 <= z^2
    (OutOfRangeError otherwise).  The first vertex is pinned at the origin.
    """
    p, q, z = (float(c) for c in np.asarray(coords, dtype=float))
    if z < 0 or p * p + q * q > z * z * (1 + 1e-12) + 1e-12:
        raise OutOfRangeError("coordinates outside the image cone z >= 0, x^2+y^2 <= z^2")
    root = np.array(
        [[(z + p) / _SQRT2, q / _SQRT2], [q / _SQRT2, (z - p) / _SQRT2]]
    )
    # the root itself is a valid pair of edge combinations: columns u, v
    u = root[:, 0]
    v = root[:, 1]
    a1 = np.zeros(2)
    a2 = a1 + _SQRT2 * u
    a3 = a1 + (_SQRT2 * u + _SQRT6 * v) / 2.0
    return np.column_stack([a1, a2, a3])


def side_lengths_counterexample(eps: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Pair of triangles witnessing that the side-length map has no lower
    Lipschitz bound.

    Returns (A, B, ratio) where ratio is the side-length distance divided
    by the euclidean orbit distance; the ratio behaves like
    ``9 sqrt(2) / (2 sqrt(6)) * eps`` for small eps, so it vanishes as
    eps -> 0.  Requires 0 < eps < 0.1.
    """
    if not (0.0 < eps < 0.1):
        raise OutOfRangeError(f"eps must lie in (0, 0.1), got {eps}")
    a = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, -1.0], [-eps, 2.0 * eps, -eps]])
    d_orbit, _ = dist_euclidean(a, b)
    d_sides = float(np.linalg.norm(side_lengths(a) - side_lengths(b)))
    return a, b, d_sides / d_orbit
