"""Invariant feature maps with distortion at most sqrt(2).

Each map sends a configuration to the positive semi-definite square root
of its Gram matrix of pairwise inner products.  The Gram matrix is a
complete invariant of the rotation orbit, and taking its PSD square root
restores Lipschitz behaviour: euclidean distances between features
sandwich the orbit distance within a factor of sqrt(2).  The euclidean
variants read the centred configuration in O(l) Helmert coordinates of the
sum-zero subspace (:func:`_helmert`), where E and F become O and U.

Matrix-valued features are flattened to real coordinate vectors by an
isometry (off-diagonal entries picking up a sqrt(2) weight), so vector
distances equal Frobenius distances exactly.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .linalg import _adjoint, _finite, _in_range, _unscaled, svd
from .metrics import GroupAction, _configuration, _prepared

_SQRT2 = np.sqrt(2.0)


def _gram_root(x: np.ndarray) -> np.ndarray:
    """PSD square root of the Gram matrix ``A* A`` of each configuration.

    Computed from the thin SVD of A itself (A = U S V* gives the root
    V S V*) rather than by eigendecomposing the formed Gram: squaring A
    first would halve the attainable precision whenever the Gram is
    rank-deficient, i.e. whenever there are more points than dimensions.
    """
    _, s, v = svd(x)
    r = (v * s[..., None, :]) @ _adjoint(v)
    r += _adjoint(r)
    r *= 0.5
    return r


@lru_cache(maxsize=None)
def _gather(l: int, hermitian: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices and weights of :func:`_flatten` for l-by-l matrices.

    The indices pick, from a matrix's row-major entries, the diagonal and
    then the strict upper triangle; in the Hermitian case they index the
    float64 view of the complex entries (real part at ``2k``, imaginary at
    ``2k + 1``): the real diagonal, then the real and then the imaginary
    parts of the upper triangle.  The weights are 1 on the diagonal and
    sqrt(2) off it.
    """
    i, j = np.triu_indices(l, k=1)
    diag = np.arange(l) * (l + 1)
    upper = i * l + j
    if hermitian:
        index = np.concatenate([2 * diag, 2 * upper, 2 * upper + 1])
    else:
        index = np.concatenate([diag, upper])
    weight = np.full(index.size, _SQRT2)
    weight[:l] = 1.0
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


def _flatten(a: np.ndarray, hermitian: bool) -> np.ndarray:
    """Isometric coordinates of each matrix in a ``(..., l, l)`` stack
    (complex128 when ``hermitian``), by one gather and one multiply: the
    diagonal times 1.0, which is exact, then the upper triangle times
    sqrt(2)."""
    index, weight = _gather(a.shape[-1], hermitian)
    flat = np.ascontiguousarray(a)
    if hermitian:
        flat = flat.view(np.float64)
    flat = flat.reshape(flat.shape[:-2] + (flat.shape[-2] * flat.shape[-1],))
    return np.take(flat, index, axis=-1) * weight


@lru_cache(maxsize=None)
def _helmert_weights(l: int) -> tuple[np.ndarray, np.ndarray]:
    """``l - k - 1`` and ``a_k`` of :func:`_helmert` for k < l - 1."""
    m = l - 1.0 - np.arange(l - 1.0)
    return m, np.sqrt(m / (m + 1.0))


def _helmert(x: np.ndarray) -> np.ndarray:
    """``x W'`` for each row of a ``(..., l)`` stack, in O(l) per row.

    Entry k is ``a_k (x_k - T_k/(l-k-1))`` with ``a_k = sqrt((l-k-1)/(l-k))``
    and ``T_k = sum_{j>k} x_j`` from one reverse cumulative sum, which is
    elementwise and sequential: no BLAS thread count or batch changes it.
    """
    m, a = _helmert_weights(x.shape[-1])
    t = np.add.accumulate(x[..., :0:-1], axis=-1)[..., ::-1]
    return a * (x[..., :-1] - t / m)


def _coordinates(group: GroupAction, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Each configuration of a validated ``(..., n, l)`` stack as the
    feature maps read it: as ``group`` acts on it, and under a translation
    quotient centred and read in W', the l - 1 coordinates of the sum-zero
    subspace.  Returns them with the power of two they are at: 1.0, or,
    near the float64 limit, each configuration's
    :func:`linalg._pow2_scale`, of shape ``(..., 1, 1)`` (see
    :func:`_at_scale`).

    One max-magnitude reduction keeps every group within float64: the Gram
    root's entries are at most ``sqrt(n l) max|x|``, and the centring sum
    and the reverse cumulative sum of :func:`_helmert` add at most l
    entries of magnitude at most ``2 max|x|``.  Both stay within 2**1023
    while ``max|x| <= 2**1022 / max(n, l)``; only a stack beyond it runs
    scaled (:func:`linalg._in_range`).
    """
    x, c = _in_range(x)
    x = _prepared(group, x)
    return (_helmert(x) if group.quotients_translations else x), c


def _at_scale(f: np.ndarray, c: np.ndarray | float) -> np.ndarray:
    """``f``, one row of features per configuration computed from
    :func:`_coordinates` at scale ``c``, unscaled: an entry beyond float64
    as inf, without a warning."""
    return f if type(c) is float else _unscaled(f, c[..., 0])


def _block(group: GroupAction, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Matrix feature that the flattened features read, of each
    configuration in a validated ``(..., n, l)`` stack: the Gram root of
    its :func:`_coordinates`, at their scale, which it returns too."""
    y, c = _coordinates(group, x)
    return _gram_root(y), c


def embedding_for(group: GroupAction, a) -> tuple[np.ndarray, np.ndarray]:
    """Matrix feature and flattened coordinates for ``group``; under a
    translation quotient the matrix is the Gram root of the centred
    configuration X_c, which is ``W' B W'^T`` for the flattened block B
    (as ``X_c = X_c W' W'^T``), to the bit the O/U matrix of ``center(a)``.
    NonFiniteError when either output overflows float64, as for
    :func:`feature_vector`."""
    x = _configuration(group, a, "A")
    b, c = _block(group, x)
    m = _gram_root(_prepared(group, x * c)) if group.quotients_translations else b
    # unscaled in its float64 view: a complex division by a subnormal c
    # forms 1/c, which overflows
    m = _unscaled(m.view(np.float64), c).view(m.dtype)
    f = _at_scale(_flatten(b, hermitian=group.is_complex), c)
    return _finite(m, "A"), _finite(f, "A")


def feature_dim(group: GroupAction, l: int) -> int:
    """Length of the flattened feature vector for an l-point configuration."""
    if group is GroupAction.ORTHOGONAL:
        return l * (l + 1) // 2
    if group is GroupAction.EUCLIDEAN:
        return l * (l - 1) // 2
    if group is GroupAction.UNITARY:
        return l * l
    return (l - 1) ** 2
