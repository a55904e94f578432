"""Exact orbit distances between point configurations.

A configuration of l points in dimension n is an n-by-l matrix whose
columns are the points.  For each supported group action the distance
between the orbits of A and B is computed in closed form together with a
group element that realizes the minimum:

- orthogonal / unitary: rotations acting by left multiplication.  The
  minimizing rotation comes from the SVD of ``A @ B*`` and the squared
  distance is ``||A||^2 + ||B||^2 - 2 ||A B*||_nuc`` (the classical
  orthogonal Procrustes solution and its unitary analogue).
- euclidean / complex-euclidean: rotations combined with translations.
  Centering each configuration on its column mean removes the translation
  exactly, reducing to the rotation-only problem.

The distance is homogeneous, d(cA, cB) = c d(A, B), so each pair is solved
at a power of two under the float64-range rule of :mod:`orbitdist.linalg`;
a distance or translation beyond float64 raises NonFiniteError.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .linalg import (
    _adjoint,
    _as_array,
    _finite,
    _frobenius_norms,
    _in_range,
    _parts,
    _pow2_scale,
    _unscaled,
    as_matrix,
    svd,
)


class GroupAction(enum.Enum):
    """The group whose action is quotiented out.

    Orthogonal and euclidean act on real configurations; unitary and
    complex-euclidean act on complex ones (real inputs are promoted).
    The two euclidean flavours additionally quotient translations.  Each
    member carries both facts as plain ``bool`` attributes, ``is_complex``
    and ``quotients_translations``, set once when the class is made.
    """

    ORTHOGONAL = "O"
    EUCLIDEAN = "E"
    UNITARY = "U"
    COMPLEX_EUCLIDEAN = "F"

    def __init__(self, value: str):
        self.is_complex = value in ("U", "F")
        self.quotients_translations = value in ("E", "F")


@dataclass(frozen=True)
class Alignment:
    """A group element ``x -> rotation @ x + translation`` realizing the
    orbit distance, together with the distance it achieves."""

    rotation: np.ndarray
    translation: np.ndarray
    achieved_distance: float

    def apply(self, a: np.ndarray) -> np.ndarray:
        """Apply the group element to every column of a configuration,
        near the float64 limit at the power of two of
        :func:`linalg._in_range`, which is exact; ShapeMismatchError unless
        its points have the rotation's dimension, NonFiniteError on NaN/Inf
        entries or an image beyond float64."""
        a = as_matrix(a)
        if a.shape[0] != self.rotation.shape[1]:
            raise ShapeMismatchError(
                f"configuration has points of dimension {a.shape[0]}, "
                f"the aligner acts on dimension {self.rotation.shape[1]}"
            )
        y, c = _in_range(a)
        return _finite(_unscaled(self.rotation @ y + c * self.translation[:, None], c), "A", "an image")


def center(a) -> np.ndarray:
    """Subtract the column mean from every column.

    The result sums to zero across columns; configurations that differ by a
    pure translation center to the same matrix.  Near the float64 limit the
    configuration is centred at a power of two (:func:`linalg._in_range`),
    which is exact; NonFiniteError when the centred result itself exceeds
    float64.
    """
    m = as_matrix(a)
    if m.shape[1] < 1:
        raise ShapeMismatchError("configuration needs at least one column")
    y, c = _in_range(m)
    # E centres and keeps the field: a complex matrix stays complex
    return _finite(_unscaled(_prepared(GroupAction.EUCLIDEAN, y), c), "A", "a centred configuration")


def _configuration(
    group: GroupAction, a, name: str, shape: tuple[int, int] | None = None, *, stacked: bool = False
) -> np.ndarray:
    """``a`` as a validated configuration that ``group`` acts on, or, when
    ``stacked``, as a validated ``(..., n, l)`` stack of them.

    The one input check of every entry point: NonFiniteError on NaN/Inf
    entries, ShapeMismatchError when ``a`` is not 2-D (at least 2-D when
    ``stacked``), is not of ``shape`` (when given), has no column under a
    translation quotient, or is complex under a real group.  Messages name
    the input ``name``.
    """
    m = _as_array(a, name, stacked=True) if stacked else as_matrix(a, name=name)
    if shape is not None and m.shape != shape:
        raise ShapeMismatchError(f"{name} has shape {m.shape}, expected {shape}")
    if m.shape[-1] < 1 and group.quotients_translations:
        raise ShapeMismatchError(f"{name} has shape {m.shape}; a configuration needs at least one column")
    if m.dtype.kind == "c" and not group.is_complex:
        raise ShapeMismatchError(
            f"{name} is complex; group {group.value} acts on real configurations"
        )
    return m


def _prepared(group: GroupAction, x: np.ndarray) -> np.ndarray:
    """A validated ``(..., n, l)`` stack as ``group`` acts on it: promoted
    to complex for the unitary actions, centred when translations are
    quotiented."""
    if group.is_complex:
        x = x.astype(np.complex128, copy=False)
    if group.quotients_translations:
        # the column mean as np.mean forms it (one sum, one division), to
        # the bit, without the Python overhead of np.mean
        x = x - np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]
    return x


def _procrustes(
    group: GroupAction, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | float]:
    """Orbit distances and minimizing rotations over a leading batch axis.

    ``a`` and ``b`` are validated ``(..., n, l)`` stacks that broadcast
    against each other (one query against a block of records, or pairs).
    Returns distances of the broadcast batch shape, rotations of shape
    ``(..., n, n)`` and the scales c below (a float for one pair).

    Each pair is solved at c, the power of two that brings max(|A|, |B|)
    into [1/2, 1), so no entry of A @ B* exceeds 4l; where a complex
    modulus overflows to inf, though both parts are finite, c brings the
    largest part instead (:func:`linalg._parts`), every modulus is below
    sqrt(2) and no entry exceeds 8l.  Only the distance is divided by c.

    W = V @ U* from the SVD of A @ B* makes ``W A B*`` PSD Hermitian, which
    is exactly the optimality condition for min over rotations of
    ||W A - B||.  The distance is evaluated as ||W A - B|| directly rather
    than through ``||A||^2 + ||B||^2 - 2 sum(s)``: the two agree to
    round-off, but the subtraction cancels catastrophically at orbit
    coincidence while the direct norm stays exact.
    """
    m = np.maximum.reduce(np.maximum(np.abs(a), np.abs(b)), axis=(-2, -1), initial=0.0)
    pair = m.ndim == 0  # one pair: its scale and distance as Python floats
    if (m if pair else m.max()) == np.inf:  # a complex modulus beyond float64
        # both complex, so that their float64 views broadcast
        a, b = a.astype(np.complex128, copy=False), b.astype(np.complex128, copy=False)
        m = np.maximum(np.abs(_parts(a)), np.abs(_parts(b))).max(axis=(-2, -1), initial=0.0)
    c = _pow2_scale(float(m) if pair else m)
    s = c if pair else c[..., None, None]
    a, b = _prepared(group, a * s), _prepared(group, b * s)
    u, _, v = svd(a @ _adjoint(b))
    w = v @ _adjoint(u)
    d = _frobenius_norms(w @ a - b)
    # a Python float divides without a warning, an overflow giving inf
    d = float(d) / c if pair else _unscaled(d, c)
    return _finite(d, "the pair", "a distance"), w, c


def orbit_distance(group: GroupAction, a, b) -> tuple[float, Alignment]:
    """Distance between the ``group`` orbits of A and B, and its aligner."""
    ma = _configuration(group, a, "A")
    mb = _configuration(group, b, "B", ma.shape)
    d, w, c = _procrustes(group, ma, mb)
    if group.quotients_translations:
        # from the means at the scale c, where |entries| <= 1: no column sum
        # overflows, |t c| <= 1 + sqrt(n), and t overflows only if c < 2^-1000
        l = ma.shape[1]
        t = (c * mb).sum(axis=1) / l - w @ ((c * ma).sum(axis=1) / l)
        t = t / c if c >= 2.0**-1000 else _finite(_unscaled(t, c), "the pair", "a translation")
    else:
        t = np.zeros(ma.shape[0], dtype=w.dtype)
    d = float(d)
    return d, Alignment(w, t, d)


def dist_unitary(a, b) -> tuple[float, Alignment]:
    """Distance between the unitary orbits of two complex configurations."""
    return orbit_distance(GroupAction.UNITARY, a, b)


def dist_orthogonal(a, b) -> tuple[float, Alignment]:
    """Distance between the orthogonal orbits of two real configurations.

    Coincides with the unitary distance of the same matrices viewed as
    complex; the real SVD keeps the aligner real orthogonal.
    """
    return orbit_distance(GroupAction.ORTHOGONAL, a, b)


def dist_euclidean(a, b) -> tuple[float, Alignment]:
    """Distance between the euclidean (rotation + translation) orbits."""
    return orbit_distance(GroupAction.EUCLIDEAN, a, b)


def dist_complex_euclidean(a, b) -> tuple[float, Alignment]:
    """Complex analogue of :func:`dist_euclidean` (unitary + translation)."""
    return orbit_distance(GroupAction.COMPLEX_EUCLIDEAN, a, b)
