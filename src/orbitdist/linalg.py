"""Dense linear-algebra kernel used by the distance and embedding formulas.

Everything here works on plain numpy arrays: real or complex 2-D matrices
whose columns are the points of a configuration.  All functions are pure.
An array is checked once, where it enters: the entry points
(:func:`as_matrix`, :func:`psd_sqrt`) refuse NaN/Inf up front, so NaN/Inf
never propagate silently into a factorization, and the kernels such as
:func:`svd` take the validated arrays their callers build.  The
float64-range policy lives here too: a kernel that squares its input runs
at a power of two (:func:`_pow2_scale`), which is exact, divides its result
by it (:func:`_unscaled`) and refuses a result beyond float64
(:func:`_finite`).

:func:`svd` is the one SVD entry point.  It calls numpy 2's thin-SVD
gufunc ``_umath_linalg.svd_s`` itself, as ``np.linalg.svd`` does: the
distances and features make several SVDs of 2-by-5-sized blocks per call,
where numpy's wrapper costs about as much as LAPACK.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    ConvergenceFailureError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    ShapeMismatchError,
)

# Hermiticity tolerance (absolute, unit-scale matrices)
HERM_TOL = 1e-8
# Entries per block of every loop that feeds a stacked kernel (see _blocks)
_BLOCK_ENTRIES = 1 << 16


def _blocks(count: int, width: int) -> list[slice]:
    """``range(count)`` cut into slices of ``max(1, _BLOCK_ENTRIES // width)``
    items, for a loop whose items each take ``width`` entries (at least one)
    of a stacked kernel's working memory, so that a block's memory does not
    grow with ``count``; one empty slice when ``count`` is 0."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)] or [slice(0, 0)]


def _sum_last(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` by explicit adds, bit for bit for a trailing axis
    of 1 to 7 real or 1 to 3 complex entries: numpy too adds fewer than 8
    float64 values left to right onto +0, but its reduction over so short
    an axis costs about ten times as much."""
    s = x[..., 0] + 0.0  # so a sum of -0s is +0, as numpy's
    for j in range(1, x.shape[-1]):
        s += x[..., j]
    return s


def _as_array(m, name: str, *, stacked: bool) -> np.ndarray:
    a = np.asarray(m)
    if np.iscomplexobj(a):
        a = a.astype(np.complex128, copy=False)
    else:
        a = a.astype(np.float64, copy=False)
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        expected = "at least 2-D" if stacked else "2-D"
        raise ShapeMismatchError(f"{name} must be {expected}, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return a


def _pow2_scale(x):
    """The power of two that brings the magnitude ``x`` into [1/2, 1) (1 for
    0, at most 2**1023): by ``math`` for a Python float, elementwise for a
    numpy scalar or an array of magnitudes (one per matrix of a stack)."""
    if type(x) is float:
        return math.ldexp(1.0, min(-math.frexp(x)[1], 1023))
    return np.ldexp(1.0, np.minimum(-np.frexp(x)[1], 1023))


def _unscaled(f, c):
    """``f / c``, an entry beyond float64 as inf (or nan) without a warning.

    A Python float ``c >= 2**-1000`` is divided plainly: every caller that
    passes one divides a value at scale, with entries below 2**23, which
    such a ``c`` cannot take beyond float64.
    """
    if type(c) is float and c >= 2.0**-1000:
        return f / c
    with np.errstate(over="ignore", invalid="ignore"):
        return f / c


def _finite(f, name: str, what: str = "a feature"):
    """``f``, ``what`` of ``name``; NonFiniteError if it overflowed float64."""
    if not (math.isfinite(f) if type(f) is float else np.isfinite(f).all()):
        raise NonFiniteError(f"{name} has {what} too large for float64")
    return f


def _adjoint(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return x.swapaxes(-1, -2).conj()


def _frobenius_norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack, summed as one dot product
    per matrix (per real and imaginary part), just as ``np.linalg.norm``
    sums a single matrix, so a norm taken over a stack has the bits of the
    norm of each matrix taken alone."""
    v = x.reshape(x.shape[:-2] + (1, -1))
    sq = v.real @ v.real.swapaxes(-1, -2)
    if np.iscomplexobj(v):
        sq = sq + v.imag @ v.imag.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def as_matrix(m, *, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a 2-D float64/complex128 array.

    Raises NonFiniteError on NaN/Inf entries and ShapeMismatchError when
    the input is not two-dimensional.
    """
    return _as_array(m, name, stacked=False)


def _raise_nonconvergence(err, flag):
    raise ConvergenceFailureError("SVD did not converge")


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``(u, s, v)`` with ``A = u @ diag(s) @ v.conj().T``: ``u``
    is n-by-r and ``v`` l-by-r with orthonormal columns, r = min(n, l), and
    the singular values ``s`` are nonincreasing and nonnegative.

    ``a`` is a finite float64/complex128 array, or a stack ``(..., n, l)``
    of them, that the caller built from validated input; it is not checked
    again.  A stack is factored at once, with the factors stacked the same
    way.  Real input yields real factors.  ConvergenceFailureError if the
    backend does not converge on any matrix of the stack.

    The array goes straight to LAPACK's thin SVD (``_umath_linalg.svd_s``,
    gesdd) under the floating-point error state that ``np.linalg.svd``
    sets: the gufunc flags nonconvergence as "invalid", which raises, and
    LAPACK's harmless overflow, divide and underflow flags are ignored.
    The factors are those of ``np.linalg.svd(a, full_matrices=False)`` to
    the bit.

    It does not refuse a singular value beyond float64: a finite matrix
    such as ``np.full((2, 3), 1.7e308)`` gives ``s[0] = inf``.  Its callers
    keep to float64's range themselves: the Procrustes kernel and the
    Gram roots near the float64 limit run at a power of two.
    """
    signature = "D->DdD" if a.dtype == np.complex128 else "d->ddd"
    with np.errstate(
        call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        u, s, vh = _umath_linalg.svd_s(a, signature=signature)
    return u, s, _adjoint(vh)


def _check_hermitian(a: np.ndarray) -> None:
    scale = np.maximum(1.0, _frobenius_norms(a))
    defect = _frobenius_norms(a - _adjoint(a))
    if (defect > HERM_TOL * scale).any():
        raise NotHermitianError(
            f"matrix is not Hermitian: ||M - M*|| = {defect.max():.3e} exceeds tolerance"
        )


def psd_sqrt(m) -> np.ndarray:
    """Unique positive semi-definite square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-1e-9 ||M||_F, 0)`` are clamped to zero: Gram
    matrices of nearly rank-deficient configurations routinely produce
    tiny negative eigenvalues in floating point.  A stack ``(..., l, l)``
    gets one root per matrix, each clamped at its own Frobenius norm.

    Raises NotHermitianError/NotPSDError when the input is not a
    numerically PSD Hermitian matrix (checked to tolerance),
    ShapeMismatchError when it is not square and ConvergenceFailureError
    if the eigensolver does not converge.
    """
    a = _as_array(m, "matrix", stacked=True)
    if a.shape[-2] != a.shape[-1]:
        raise ShapeMismatchError(f"expected square matrix, got {a.shape}")
    _check_hermitian(a)
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    if w.size:
        lowest = w[..., 0]  # eigenvalues ascend
        tol = 1e-9 * _frobenius_norms(a)
        bad = lowest < -tol
        if bad.any():
            k = np.argmax(bad)
            raise NotPSDError(
                f"eigenvalue {np.ravel(lowest)[k]:.3e} below -1e-9 ||M||_F = {-np.ravel(tol)[k]:.3e}"
            )
    r = (q * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ _adjoint(q)
    if not np.iscomplexobj(a):
        return r.real
    # round-off can leave a tiny skew-Hermitian part; resymmetrize
    return 0.5 * (r + _adjoint(r))
