"""Planar triangles modulo rigid motions.

A triangle is a 2-by-3 real matrix whose columns are the vertices;
degenerate (collinear or coincident) triangles are allowed everywhere.
Two invariant descriptions are provided, each computed by one kernel
that also maps a validated ``(..., 2, 3)`` stack at once:

- :func:`side_lengths` -- the classical triple of edge lengths.  It
  separates orbits and is Lipschitz with constant sqrt(3), but it is not
  bi-Lipschitz: :func:`side_lengths_counterexample` produces pairs whose
  side-length distance is quadratically small in their orbit distance.
- :func:`triangle_embedding` -- three coordinates read off the PSD square
  root of the Gram matrix of the edge matrix ``E = [u v]``, with
  ``u = (a2 - a1)/sqrt(2)`` and ``v = (2 a3 - a1 - a2)/sqrt(6)``.  The root
  has the 2x2 closed form ``(E^T E + |det E| I) / sqrt(tr E^T E + 2 |det E|)``
  (Higham, Functions of Matrices, 2008), with ``|det E|`` read off ``E``
  itself rather than as the square root of the cancelling ``det E^T E``,
  so the coordinates keep full relative precision however close the
  triangle is to collinear.  Distances between these coordinate triples
  equal distances between the general euclidean features exactly, so the
  sqrt(2) sandwich ``d <= |f(A) - f(B)| <= sqrt(2) d`` holds.  Its image
  is the round cone z >= 0, x^2 + y^2 <= z^2, and
  :func:`triangle_from_coords` inverts it.
"""
from __future__ import annotations

import numpy as np

from .errors import OutOfRangeError, ShapeMismatchError, _shown
from .linalg import _finite, _pow2_scale, _unscaled, as_matrix
from .metrics import GroupAction, _configuration, dist_euclidean

_SQRT2 = np.sqrt(2.0)
_SQRT6 = np.sqrt(6.0)


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each triangle of a validated ``(..., 2, 3)`` stack at the power of two
    c (:func:`linalg._pow2_scale`) of its largest |entry|, and c with a
    trailing axis: the kernels run on the scaled triangles and divide their
    results, which scale linearly, by c."""
    a = np.abs(x)
    # the largest |entry| of each row, then of each triangle, by elementwise
    # maxima: a reduction over the tiny trailing axes is 5x slower on a stack
    rows = np.maximum(np.maximum(a[..., 0], a[..., 1]), a[..., 2])
    c = _pow2_scale(np.maximum(rows[..., 0], rows[..., 1]))
    return x * c[..., None, None], c[..., None]


def _side_lengths(x: np.ndarray) -> np.ndarray:
    """:func:`side_lengths` of every triangle in a validated ``(..., 2, 3)``
    stack."""
    x, c = _unit_scaled(x)
    return _unscaled(np.linalg.norm(x[..., :, [1, 2, 0]] - x[..., :, [2, 0, 1]], axis=-2), c)


def side_lengths(t) -> np.ndarray:
    """Edge lengths (|a2 - a3|, |a3 - a1|, |a1 - a2|) of a triangle;
    NonFiniteError when one exceeds float64."""
    return _finite(
        _side_lengths(_configuration(GroupAction.EUCLIDEAN, t, "triangle", (2, 3))), "triangle"
    )


def _triangle_coords(x: np.ndarray) -> np.ndarray:
    """:func:`triangle_embedding` of every triangle in a validated
    ``(..., 2, 3)`` stack, coordinates outermost in memory as in
    :func:`_side_lengths`: a norm over them runs as whole-array adds."""
    x, c = _unit_scaled(x)
    u = (x[..., 1] - x[..., 0]) / _SQRT2
    v = (2.0 * x[..., 2] - x[..., 0] - x[..., 1]) / _SQRT6
    g11, g22, g12 = (u * u).sum(axis=-1), (v * v).sum(axis=-1), (u * v).sum(axis=-1)
    s = np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    t = np.sqrt(g11 + g22 + 2.0 * s)
    # t = 0 only for coincident vertices, where every numerator is 0 too
    t = np.where(t > 0.0, t, 1.0)
    r = _SQRT2 * t
    coords = np.stack([(g11 - g22) / r, _SQRT2 * g12 / t, (g11 + g22 + 2.0 * s) / r])
    return _unscaled(np.moveaxis(coords, 0, -1), c)


def triangle_embedding(t) -> np.ndarray:
    """Three-coordinate bi-Lipschitz invariant of a triangle.

    With the edge Gram entries ``g11 = |u|^2``, ``g22 = |v|^2``,
    ``g12 = <u, v>``, ``s = |det [u v]|`` and ``t = sqrt(g11 + g22 + 2 s)``
    (see the module docstring) the coordinates are
    ``((g11 - g22)/(sqrt(2) t), sqrt(2) g12/t, (g11 + g22 + 2 s)/(sqrt(2) t))``,
    and 0 when ``t = 0``.  Writing the PSD root of the Gram matrix as
    ``[[r1, r3/sqrt(2)], [r3/sqrt(2), r2]]`` these are
    ``((r1 - r2)/sqrt(2), r3, (r1 + r2)/sqrt(2))``; euclidean distances
    between such triples coincide with Frobenius distances between the
    full euclidean features.  NonFiniteError when a coordinate exceeds
    float64.
    """
    return _finite(
        _triangle_coords(_configuration(GroupAction.EUCLIDEAN, t, "triangle", (2, 3))), "triangle"
    )


def triangle_from_coords(coords) -> np.ndarray:
    """A triangle mapping to the given coordinates under
    :func:`triangle_embedding`.

    The coordinates must be three finite reals (ShapeMismatchError or
    NonFiniteError otherwise) in the image cone z >= 0, x^2 + y^2 <= z^2
    (OutOfRangeError otherwise).  The first vertex is pinned at the origin.
    """
    c = np.asarray(coords)
    if c.shape != (3,) or np.iscomplexobj(c):
        raise ShapeMismatchError(f"coordinates must be three reals, got {c.dtype} of shape {c.shape}")
    p, q, z = as_matrix(c[None], name="coordinates")[0].tolist()
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
        raise OutOfRangeError(f"eps must lie in (0, 0.1), got {_shown(eps)}")
    a = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
    b = np.array([[1.0, 0.0, -1.0], [-eps, 2.0 * eps, -eps]])
    d_orbit, _ = dist_euclidean(a, b)
    d_sides = float(np.linalg.norm(side_lengths(a) - side_lengths(b)))
    return a, b, d_sides / d_orbit
