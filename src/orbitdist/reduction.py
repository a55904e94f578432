"""Dimension reduction of the matrix-valued features.

The square-root features of rank-n configurations live on the variety of
low-rank matrices, which admits a linear projection that stays injective
(with positive lower Lipschitz constant) onto a much smaller subspace.
The subspace W removed is spanned by coefficient matrices of the bivariate
polynomials ``(x - y)^r x^i y^j`` under the identification that places the
coefficient of ``x^a y^b`` at entry (a, b): a Wronskian argument shows this
span meets the rank-<=r matrices only at zero, so projecting onto its
orthogonal complement never collapses a difference of two features.

The complement has a closed form.  A polynomial is divisible by
``(x - y)^r`` exactly when its first r y-derivatives vanish on the
diagonal, and each of those derivatives reads one antidiagonal a + b = s
of the coefficient matrix.  So W-perp splits by antidiagonal: on
antidiagonal s it is spanned by the polynomials in the column index of
degree below min(r, length of s).  The reducer holds their orthonormal
versions (discrete orthogonal polynomials, built by a short recurrence on
each antidiagonal).  Symmetric matrices have palindromic antidiagonals,
which only the even-degree polynomials see; the imaginary part of a
Hermitian matrix is anti-palindromic and only the odd-degree ones see it.

Each output coordinate reads one antidiagonal, so the reducer is a sparse
operator on the real coordinates of the matrix that holds about
n * size^2 non-zeros (2n * size^2 Hermitian).  Its columns index the
matrix's row-major float64 view: entry k is column k when symmetric, and
when Hermitian the real part of entry k is column 2k and its imaginary
part 2k + 1, the layout :func:`embeddings._flatten` reads too.  Projecting
is one sparse product and is non-expansive.

At n = 1 no operator is needed.  The root of a single row y is rank one,
``R = y* y / ||y||``, and the reducer keeps the degree-0 moment of each
antidiagonal (plus the degree-1 moment of ``Im R`` when Hermitian), so a
reduced coordinate is a self-correlation of y, computed for a whole stack
by FFT in O(l log l) without the l-by-l root (:func:`_rank_one_stack`).

A reducer is the value ``(rank, size, ambient)``, checked once when made;
the feature stacks look it up by shape with the memoized :func:`reducer_for`.

The operator's arrays are built with numpy.  A product of at most
``_NUMPY_PRODUCTS`` multiplications (stack size times non-zeros), which
covers a single feature up to about 2 x 16 real points, runs in numpy
(one gather, one multiply, one ``np.bincount``).  A larger one uses the
CSR container of ``scipy.sparse``, ``ReducerBasis.basis``, built on the
same arrays the first time it is needed.  So importing this module,
building a reducer, every n = 1 feature and the small n >= 2 features
load only numpy.
"""
from __future__ import annotations

import enum
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    AmbientMismatchError,
    DimensionHypothesisError,
    InvalidRankError,
    ShapeMismatchError,
    _shown,
)
from .linalg import HERM_TOL, _check_hermitian, _finite, _pow2_scale, _unscaled, as_matrix
from .metrics import GroupAction, _configuration
from . import embeddings

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# The most multiplications (stack size times the operator's non-zeros) that
# _project makes in numpy; above it scipy's CSR product is as fast or
# faster.  One pinned CPU: at O 2 x 5 (44 non-zeros) numpy takes 3.7 us
# against 6.2 us for the CSR call, at O 2 x 16 (506) 9.5 against 11.3 us,
# and at O 2 x 20 (794) the two are even.
_NUMPY_PRODUCTS = 512


class Ambient(enum.Enum):
    """Real matrix space the reducer operates on."""

    SYMMETRIC = "symmetric"
    HERMITIAN = "hermitian"


def separating_subspace_basis(size: int, rank: int) -> list[np.ndarray]:
    """Coefficient matrices of ``(x - y)^rank x^i y^j``, 0 <= i, j < size - rank.

    Returns (size - rank)^2 linearly independent size-by-size matrices whose
    span intersects the matrices of rank <= rank only at zero.
    """
    if rank <= 0 or rank > size:
        raise InvalidRankError(
            f"rank must satisfy 0 < rank <= size, got rank={_shown(rank)}, size={_shown(size)}"
        )
    signed = [(-1) ** k * math.comb(rank, k) for k in range(rank + 1)]
    out = []
    for i in range(size - rank):
        for j in range(size - rank):
            m = np.zeros((size, size))
            # (x-y)^rank = sum_k (-1)^k C(rank,k) x^(rank-k) y^k, shifted by x^i y^j
            for k in range(rank + 1):
                m[rank - k + i, k + j] = signed[k]
            out.append(m)
    return out


@dataclass(frozen=True)
class ReducerBasis:
    """Orthonormal basis of the reduced feature space.

    ``(rank, size, ambient)`` determine it and alone decide equality.
    Construction refuses a rank that is not an even integer >= 2
    (InvalidRankError) and a size that is not an integer >= rank
    (DimensionHypothesisError): the reduced map is injective only for
    size >= rank = 2n.  ``basis`` is the sparse operator as a read-only
    scipy ``csr_array``, one row per output coordinate, whose columns
    index the float64 view of a matrix (interleaved real and imaginary
    parts when Hermitian; see the module docstring); it wraps the numpy
    arrays that the projection itself reads, without a copy, and both are
    built on first use.  ``dim`` counts its rows and ``intersection_dim``
    the ambient dimensions removed.
    """

    rank: int
    size: int
    ambient: Ambient

    def __post_init__(self):
        r, size = self.rank, self.size  # a bool is below 2 or odd: refused too
        if not isinstance(r, numbers.Integral) or r < 2 or r % 2:
            raise InvalidRankError(f"reducer rank must be an even integer >= 2, got {_shown(r)}")
        if not isinstance(size, numbers.Integral) or size < r:
            raise DimensionHypothesisError(
                f"need an integer size >= rank {_shown(r)}, got {_shown(size)}"
            )

    @cached_property
    def _arrays(self) -> _Operator:
        return _operator(self.rank, self.size, self.ambient)

    @cached_property
    def basis(self) -> csr_array:
        from scipy.sparse import csr_array

        op = self._arrays
        width = self.size * self.size * (2 if self.ambient is Ambient.HERMITIAN else 1)
        return csr_array((op.value, op.column, op.indptr), shape=(self.dim, width), copy=False)

    @cached_property
    def _rows(self) -> np.ndarray:
        """Read-only output row of each non-zero, for the numpy product of
        :func:`_project`; only small operators build it."""
        rows = np.repeat(np.arange(self.dim), np.diff(self._arrays.indptr))
        rows.flags.writeable = False
        return rows

    @property
    def dim(self) -> int:
        r, size = self.rank, self.size
        if self.ambient is Ambient.SYMMETRIC:
            return r * (2 * size - r + 1) // 2
        return r * (2 * size - r)

    @property
    def intersection_dim(self) -> int:
        m = self.size - self.rank
        return m * (m + 1) // 2 if self.ambient is Ambient.SYMMETRIC else m * m

    def project(self, m) -> np.ndarray:
        """Coordinates of the projection of an ambient-space matrix.

        Non-expansive: the coordinate norm never exceeds the Frobenius
        norm of the input.  The matrix is checked and projected at the
        power of two of :func:`linalg._check_hermitian`, which is exact.
        Raises AmbientMismatchError when the matrix is not (numerically) in
        the declared ambient space, and NonFiniteError on NaN/Inf entries
        or a coordinate beyond float64.
        """
        a = as_matrix(m)
        if a.shape != (self.size, self.size):
            raise ShapeMismatchError(f"expected {self.size}x{self.size} matrix, got {a.shape}")
        y, c, norm = _check_hermitian(a, AmbientMismatchError)
        if self.ambient is Ambient.SYMMETRIC and np.abs(y.imag).max() > HERM_TOL * max(c, norm):
            raise AmbientMismatchError("symmetric ambient requires a real matrix")
        return _finite(_unscaled(_project(self, y), c), "matrix", "a coordinate")

    def to_json(self) -> str:
        """Serialize the parameters that determine the basis."""
        payload = {
            "rank": self.rank,
            "size": self.size,
            "ambient": self.ambient.value,
            "dim": self.dim,
            "intersection_dim": self.intersection_dim,
        }
        return json.dumps(payload, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ReducerBasis":
        """Rebuild the reducer from its parameters; a stored ``basis`` is ignored."""
        d = json.loads(text)
        return ReducerBasis(d["rank"], d["size"], Ambient(d["ambient"]))


def _orthonormal_polynomials(t: np.ndarray, degree: int) -> np.ndarray:
    """Columns k < degree: the orthonormal polynomials of degree k on the
    points ``t``.

    Built by the Arnoldi recurrence (multiply the last column by t,
    orthogonalize twice), which stays accurate at degrees where a monomial
    Vandermonde is too ill-conditioned.  On a grid symmetric about 0,
    column k has the parity of k.
    """
    q = np.empty((t.size, degree))
    q[:, 0] = 1.0 / np.sqrt(t.size)
    for k in range(1, degree):
        v = t * q[:, k - 1]
        for _ in range(2):
            v -= q[:, :k] @ (q[:, :k].T @ v)
        q[:, k] = v / np.linalg.norm(v)
    return q


@lru_cache(maxsize=None, typed=True)
def build_reducer(n: int, size: int, ambient: Ambient) -> ReducerBasis:
    """Orthonormal reducer for rank parameter 2n on size-by-size matrices.

    Requires size >= 2n.  The output dimension is n(2*size - 2n + 1) for
    the symmetric ambient and 4n(size - n) for the Hermitian one.  The
    sparse operator is built on its first use.
    """
    return ReducerBasis(2 * n, size, ambient)


class _Operator(NamedTuple):
    """The CSR arrays of a reducer, read-only: the non-zeros row by row,
    each row's columns sorted, and where each row starts."""

    column: np.ndarray
    value: np.ndarray
    indptr: np.ndarray


def _operator(rank: int, size: int, ambient: Ambient) -> _Operator:
    """The operator of :class:`ReducerBasis`, assembled from the
    orthonormal polynomials of each antidiagonal."""
    hermitian = ambient is Ambient.HERMITIAN
    cells, values = [], []  # of each output coordinate, in row order
    for s in range(2 * size - 1):
        cols = np.arange(max(0, s - size + 1), min(s, size - 1) + 1)
        q = _orthonormal_polynomials(cols - s / 2, min(rank, cols.size))
        # the flat index (s - c) * size + c falls as c rises: reverse both,
        # so that each row's column indices are sorted
        flat = ((s - cols) * size + cols)[::-1]
        for k in range(0, q.shape[1], 1 if hermitian else 2):
            # a Hermitian row reads the real (even k) or imaginary parts
            cells.append(2 * flat + k % 2 if hermitian else flat)
            values.append(q[::-1, k])
    op = _Operator(
        np.concatenate(cells),
        np.concatenate(values),
        np.cumsum([0] + [c.size for c in cells]),
    )
    for part in op:
        part.flags.writeable = False
    return op


@lru_cache(maxsize=None, typed=True)
def reducer_for(group: GroupAction, n: int, l: int) -> ReducerBasis:
    """Reducer matching the feature map of ``group`` on n-by-l inputs."""
    size = embeddings._block_size(group, l)
    if size < 2 * n:
        raise DimensionHypothesisError(
            f"group {group.value} with l={_shown(l)} admits reduction only for l >= "
            f"{_shown(2 * n + (1 if group.quotients_translations else 0))} at n={_shown(n)}"
        )
    return build_reducer(n, size, Ambient.HERMITIAN if group.is_complex else Ambient.SYMMETRIC)


def reduced_feature_dim(group: GroupAction, n: int, l: int) -> int:
    """Output length of :func:`reduced_embedding` for each group action;
    raises as :func:`reducer_for` does for a shape that admits no reducer."""
    return reducer_for(group, n, l).dim


def _check_reducer(group: GroupAction, n: int, l: int, reducer: ReducerBasis | None) -> None:
    """Raise as :func:`reducer_for` does, and unless ``reducer`` is None
    or the reducer it returns for ``group`` on n-by-l inputs."""
    expected = reducer_for(group, n, l)
    if reducer is not None and reducer.ambient is not expected.ambient:
        # a symmetric reducer would silently drop the imaginary part
        raise AmbientMismatchError(
            f"group {group.value} needs a {expected.ambient.value} reducer, "
            f"got a {reducer.ambient.value} one"
        )
    if reducer is not None and reducer != expected:
        raise ShapeMismatchError(
            f"reducer built for rank {reducer.rank}, size {reducer.size} does not match "
            f"a {n}x{l} input under group {group.value}"
        )


def reduced_embedding(group: GroupAction, a, reducer: ReducerBasis | None = None) -> np.ndarray:
    """Lower-dimensional invariant feature: project the matrix feature of
    ``group`` onto the separating complement.

    Output length is n(2l-2n+1) / n(2l-2n-1) / 4n(l-n) / 4n(l-n-1) for the
    orthogonal / euclidean / unitary / complex-euclidean actions;
    NonFiniteError when the feature overflows float64.  A ``reducer``, if
    given, must be :func:`reducer_for` the group and shape.
    """
    m = _configuration(group, a, "A")
    _check_reducer(group, *m.shape, reducer)
    return _finite(_reduced_stack(group, m), "A")


def _reduced_stack(group: GroupAction, x: np.ndarray) -> np.ndarray:
    """:func:`reduced_embedding` of each configuration in a validated
    ``(..., n, l)`` stack, one row each; raises as :func:`reducer_for`
    does for a shape that admits no reducer."""
    reducer = reducer_for(group, *x.shape[-2:])
    if x.shape[-2] == 1:
        return _rank_one_stack(group, x)
    b, c = embeddings._block(group, x)
    return embeddings._at_scale(_project(reducer, b), c)


def _rank_one_stack(group: GroupAction, x: np.ndarray) -> np.ndarray:
    """:func:`_reduced_stack` of a stack of 1-by-l configurations, by FFT.

    With y a row of :func:`embeddings._coordinates` (size m) and
    ``R = y* y / ||y||``, antidiagonal s holds ``conj(y_{s-c}) y_c / ||y||``
    at column c, over ``len_s`` cells.  Its degree-0 coordinate is
    ``sum_c conj(y_{s-c}) y_c / (||y|| sqrt(len_s))``.  The Hermitian
    degree-1 coordinate weighs ``Im`` of the same terms by ``c - s/2``, over
    ``||y|| ||t_s||`` with ``||t_s||^2 = len_s (len_s^2 - 1) / 12``; since
    ``sum_c Im(conj(y_{s-c}) y_c) = 0``, the weight may be ``c - o`` for
    any origin o, and o = (m - 1)/2 keeps the weighted row smallest.  Each
    row runs at the power of two of its largest entry, so no product over-
    or underflows.  A zero row gives zeros; FFTs transform each row alone,
    so a row has the same bits alone or in any batch.
    """
    y, c0 = embeddings._coordinates(group, x)
    y = y[..., 0, :]
    c = _pow2_scale(np.abs(y).max(axis=-1, keepdims=True, initial=0.0))
    y = y * c
    m = y.shape[-1]
    s = np.arange(2 * m - 1)
    cells = np.minimum(s, 2 * m - 2 - s) + 1.0
    norm = np.linalg.norm(y, axis=-1, keepdims=True)
    norm[norm == 0.0] = 1.0
    if not group.is_complex:
        p = np.fft.irfft(np.fft.rfft(y, 2 * m) ** 2, 2 * m)[..., :-1]
        return embeddings._at_scale(_unscaled(p / (norm * np.sqrt(cells)), c), c0)
    # named, not temporary: numpy reuses a large temporary operand as the
    # output and swaps the operands of the product, whose complex rounding
    # depends on their order, so a large batch would lose the bits of a row
    fc, fy = np.fft.fft(y.conj(), 2 * m), np.fft.fft(y, 2 * m)
    fw = np.fft.fft((np.arange(m) - (m - 1) / 2) * y, 2 * m)
    p = np.fft.ifft(fc * fy)[..., :-1].real / (norm * np.sqrt(cells))
    t = np.fft.ifft(fc * fw)[..., 1:-2].imag
    inner = cells[1:-1]
    out = np.empty(y.shape[:-1] + (4 * m - 4,))
    out[..., 0] = p[..., 0]  # the corner antidiagonals have no degree-1 row
    out[..., 1::2] = p[..., 1:]
    out[..., 2::2] = t / (norm * np.sqrt(inner * (inner * inner - 1.0) / 12.0))
    return embeddings._at_scale(_unscaled(out, c), c0)


def _project(reducer: ReducerBasis, mats: np.ndarray) -> np.ndarray:
    """Reducer coordinates of each matrix in a ``(..., size, size)`` stack.

    One sparse product over the stack's float64 views, one row per matrix.
    Up to ``_NUMPY_PRODUCTS`` products it runs in numpy: a gather of the
    coordinates each non-zero reads, one multiply by the values, and one
    ``np.bincount`` that adds each output entry's products.  Above it runs
    as scipy's CSR product.  Both start each entry at +0.0 and add its
    row's products in stored order, whatever the number of matrices, so a
    matrix gets the same bits from either route, alone or in any batch.
    """
    op = reducer._arrays
    batch = math.prod(mats.shape[:-2])
    if reducer.ambient is Ambient.HERMITIAN:
        x = np.ascontiguousarray(mats, dtype=np.complex128).view(np.float64)
    else:
        x = mats.real
    x = x.reshape(batch, x.shape[-2] * x.shape[-1])
    if batch * op.value.size <= _NUMPY_PRODUCTS:
        rows = reducer._rows
        if batch != 1:
            rows = rows + reducer.dim * np.arange(batch)[:, None]
        products = x[:, op.column] * op.value
        out = np.bincount(rows.ravel(), products.ravel(), batch * reducer.dim)
    else:
        out = (reducer.basis @ x.T).T
    return out.reshape(mats.shape[:-2] + (reducer.dim,))
