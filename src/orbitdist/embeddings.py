"""Invariant feature maps with distortion at most sqrt(2).

Each map sends a configuration to the positive semi-definite square root
of its Gram matrix of pairwise inner products.  The Gram matrix is a
complete invariant of the rotation orbit, and taking its PSD square root
restores Lipschitz behaviour: euclidean distances between features
sandwich the orbit distance within a factor of sqrt(2).  The euclidean
variants read the centred configuration in O(l) Helmert coordinates of the
sum-zero subspace (:func:`mean_last_basis`), where E and F become O and U.

Matrix-valued features are flattened to real coordinate vectors by an
isometry (off-diagonal entries picking up a sqrt(2) weight), so vector
distances equal Frobenius distances exactly.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import OutOfRangeError
from .linalg import _adjoint, as_matrix, svd
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


def sym_flatten(m) -> np.ndarray:
    """Isometric coordinates of a real symmetric matrix.

    Diagonal entries as-is, strict upper triangle scaled by sqrt(2);
    length l(l+1)/2.  Euclidean distance between two flattenings equals
    the Frobenius distance between the matrices.
    """
    return _flatten(as_matrix(m), hermitian=False)


def herm_flatten(m) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix.

    Real diagonal, then sqrt(2)-scaled real and imaginary parts of the
    strict upper triangle; length l^2.  A real matrix reads as complex.
    """
    return _flatten(as_matrix(m).astype(np.complex128, copy=False), hermitian=True)


def mean_last_basis(l: int) -> np.ndarray:
    """Fixed orthogonal l-by-l matrix whose last column is the normalized
    all-ones vector (OutOfRangeError unless l is an integer >= 1).

    The reverse Helmert basis: the Gram-Schmidt orthonormalization of
    (ones/sqrt(l), e_0, ..., e_{l-2}) with the ones-column moved last.  Its
    first l - 1 columns W' are those that :func:`_helmert` applies.
    """
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool) or l < 1:
        raise OutOfRangeError(f"l must be an integer >= 1, got {l!r}")
    return np.column_stack([_helmert(np.eye(l)), np.full(l, 1.0 / np.sqrt(l))])


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


def _coordinates(group: GroupAction, x: np.ndarray) -> np.ndarray:
    """Each configuration of a validated ``(..., n, l)`` stack as the
    feature maps read it: as ``group`` acts on it, and under a translation
    quotient centred and read in W', the l - 1 coordinates of the sum-zero
    subspace."""
    x = _prepared(group, x)
    return _helmert(x) if group.quotients_translations else x


def _block(group: GroupAction, x: np.ndarray) -> np.ndarray:
    """Matrix feature that the flattened features read, of each
    configuration in a validated ``(..., n, l)`` stack: the Gram root of
    its :func:`_coordinates`."""
    return _gram_root(_coordinates(group, x))


def embedding_for(group: GroupAction, a) -> tuple[np.ndarray, np.ndarray]:
    """Matrix feature and flattened coordinates for ``group``; under a
    translation quotient the matrix is the Gram root of the centred
    configuration X_c, which is ``W' B W'^T`` for the flattened block B
    (as ``X_c = X_c W' W'^T``), to the bit the O/U matrix of ``center(a)``."""
    x = _configuration(group, a, "A")
    b = _block(group, x)
    m = _gram_root(_prepared(group, x)) if group.quotients_translations else b
    return m, _flatten(b, hermitian=group.is_complex)


def orthogonal_embedding(a) -> tuple[np.ndarray, np.ndarray]:
    """Feature of a real configuration under the orthogonal action.

    Returns the PSD square root of the l-by-l Gram matrix together with
    its isometric flattening (length l(l+1)/2).
    """
    return embedding_for(GroupAction.ORTHOGONAL, a)


def euclidean_embedding(a) -> tuple[np.ndarray, np.ndarray]:
    """Feature under the euclidean action: embed the centered configuration.

    The matrix is the Gram root of the centred configuration, the flattening
    that of its l - 1 Helmert coordinates (:func:`_helmert`; length l(l-1)/2).
    """
    return embedding_for(GroupAction.EUCLIDEAN, a)


def unitary_embedding(a) -> tuple[np.ndarray, np.ndarray]:
    """Feature of a complex configuration under the unitary action.

    Returns the Hermitian PSD square root of the Gram matrix ``A* A`` and
    its real isometric flattening (length l^2).
    """
    return embedding_for(GroupAction.UNITARY, a)


def complex_euclidean_embedding(a) -> tuple[np.ndarray, np.ndarray]:
    """Feature under the complex-euclidean action (length (l-1)^2)."""
    return embedding_for(GroupAction.COMPLEX_EUCLIDEAN, a)


def feature_dim(group: GroupAction, l: int) -> int:
    """Length of the flattened feature vector for an l-point configuration."""
    if group is GroupAction.ORTHOGONAL:
        return l * (l + 1) // 2
    if group is GroupAction.EUCLIDEAN:
        return l * (l - 1) // 2
    if group is GroupAction.UNITARY:
        return l * l
    return (l - 1) ** 2
