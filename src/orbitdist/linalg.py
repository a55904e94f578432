"""Dense linear-algebra kernel used by the distance and embedding formulas.

Everything here works on plain numpy arrays: real or complex 2-D matrices
whose columns are the points of a configuration.  All functions are pure.
An array is checked once, where it enters: the entry points
(:func:`as_matrix`, :func:`psd_sqrt`) refuse NaN/Inf up front, so NaN/Inf
never propagate silently into a factorization.  They refuse nested lists
of unequal lengths as ShapeMismatchError, and as NonFiniteError a Python
integer beyond float64 and an entry that is not a number: text is refused
whatever it reads as, ``"1.5"`` and ``b"nan"`` as much as ``"a"``, in an
array of text, in a list that mixes text and numbers, or among the
entries of an object array.
An array of Python objects that holds a complex number is read as
complex128, so a real group refuses it as complex.  The kernels such as
:func:`svd` take the validated arrays their callers build.

The float64-range rule lives here, once, and every public entry that
takes a matrix keeps it in three steps.  The distances and features are
homogeneous, so, first, one check returns the input at a power of two
drawn from its largest part (:func:`_scales`): :func:`_in_range`, the
Procrustes kernel's own scale of a pair, or :func:`_check_hermitian`, the
only symmetry check, whose power of four has a power of two for its
square root.  Second, the kernel sees only that scaled input.  Third, the
result leaves through :func:`_unscaled`, the only way back from a scale
where a plain division could err or warn (a complex result, or a scale
below 2**-1000), and through :func:`_finite`, which refuses a result
beyond float64 with NonFiniteError.  Scaling by a power of two is exact,
so a result in float64's normal range keeps its bits.

:func:`svd` is the one SVD entry point.  It calls numpy 2's thin-SVD
gufunc ``_umath_linalg.svd_s`` itself, as ``np.linalg.svd`` does: the
distances and features make several SVDs of 2-by-5-sized blocks per call,
where numpy's wrapper costs about as much as LAPACK.  For the same reason
its floating-point error state is built once, at import, with numpy 2's
``_make_extobj``, and each call sets it and resets it through a token of
the context variable ``_extobj_contextvar`` that ``np.errstate`` itself
uses: a context variable is per thread, so other threads never see it,
and the reset restores the caller's state, that of its own
``np.errstate`` block included.  The small-array kernels below
test ``x.dtype.kind`` and call a ufunc's ``reduce`` directly, for the
same bits as ``np.iscomplexobj`` and ``.all()`` / ``.max()`` without
their Python wrappers.
"""
from __future__ import annotations

import math

import numpy as np
from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
from numpy.linalg import _umath_linalg

from .errors import (
    ConvergenceFailureError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    ShapeMismatchError,
)

# Hermiticity tolerance, relative to max(1, ||M||) (see _check_hermitian)
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
    try:
        a = np.asarray(m)
    except ValueError:  # nested sequences of unequal lengths
        raise ShapeMismatchError(f"{name} is ragged: its rows differ in length") from None
    kind = a.dtype.kind
    # numpy casts numeric text such as "1.5" to a number: refuse text of
    # every kind, mixed lists (a str array) and objects that hold it
    if kind in "OSTU" and (kind != "O" or any(isinstance(e, (str, bytes)) for e in a.flat)):
        raise NonFiniteError(f"{name} has an entry that is not a number")
    try:
        try:
            a = a.astype(np.complex128 if kind == "c" else np.float64, copy=False)
        except TypeError:  # Python objects, a complex number among them
            a = a.astype(np.complex128)
    except OverflowError:  # a Python integer beyond float64
        raise NonFiniteError(f"{name} has an entry too large for float64") from None
    except (TypeError, ValueError):  # an object that is not a number
        raise NonFiniteError(f"{name} has an entry that is not a number") from None
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        expected = "at least 2-D" if stacked else "2-D"
        raise ShapeMismatchError(f"{name} must be {expected}, got ndim={a.ndim}")
    if a.size and not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return a


def _pow2_scale(x):
    """The power of two that brings the magnitude ``x`` into [1/2, 1) (1 for
    0, at most 2**1023): by ``math`` for a Python float, elementwise for a
    numpy scalar or an array of magnitudes (one per matrix of a stack)."""
    if type(x) is float:
        return math.ldexp(1.0, min(-math.frexp(x)[1], 1023))
    return np.ldexp(1.0, np.minimum(-np.frexp(x)[1], 1023))


def _parts(x: np.ndarray) -> np.ndarray:
    """``x`` as real numbers whose largest magnitude measures it: a real
    ``x`` itself, a complex one as its float64 view, the real and
    imaginary parts side by side on the last axis (of a C-ordered copy if
    ``x`` is not C-ordered).  So ``max|parts|`` measures each complex entry
    by its larger part, which is finite for every finite entry, where the
    modulus overflows to inf once both parts pass about 1.27e308; the
    modulus is at most sqrt(2) times that part."""
    if x.dtype.kind != "c":
        return x
    return np.ascontiguousarray(x).view(np.float64)


def _scales(x: np.ndarray) -> np.ndarray:
    """Each matrix's :func:`_pow2_scale` of its largest part (:func:`_parts`)."""
    return _pow2_scale(np.abs(_parts(x)).max(axis=(-2, -1), keepdims=True, initial=0.0))


def _in_range(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """``(x c, c)`` for a finite ``(..., n, l)`` stack: c is 1.0, or, when an
    entry's modulus exceeds ``2**1022 / max(n, l)`` (or overflows), its
    :func:`_scales`, at which every modulus is below sqrt(2) and a sum of at
    most max(n, l) entries of modulus at most ``2 max|x c|`` stays in float64."""
    if np.maximum.reduce(np.abs(x), axis=None, initial=0.0) <= 2.0**1022 / max(*x.shape[-2:], 1):
        return x, 1.0
    c = _scales(x)
    return x * c, c


def _unscaled(f, c):
    """``f / c``, an entry beyond float64 as inf (or nan) without a warning.

    A Python float ``c >= 2**-1000`` is divided plainly: every caller that
    passes one divides a value at scale, with entries below 2**23, which
    such a ``c`` cannot take beyond float64.  Any other complex ``f`` is
    divided in its float64 view, as numpy's ``1/c`` overflows for a
    subnormal ``c``.
    """
    if type(c) is float and c >= 2.0**-1000:
        return f / c
    with np.errstate(over="ignore", invalid="ignore"):
        if f.dtype.kind != "c":
            return f / c
        return (np.ascontiguousarray(f).view(np.float64) / c).view(f.dtype)


def _finite(f, name: str, what: str = "a feature"):
    """``f``, ``what`` of ``name``; NonFiniteError if it overflowed float64."""
    if not (math.isfinite(f) if type(f) is float else np.logical_and.reduce(np.isfinite(f), axis=None)):
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
    if v.dtype.kind == "c":
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


# the floating-point error state of every svd call (see svd), built once
_SVD_ERRSTATE = _make_extobj(
    call=_raise_nonconvergence, invalid="call", over="ignore", divide="ignore", under="ignore"
)


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
    That state is built once (``_SVD_ERRSTATE``) and set and reset per
    call through a context-variable token, so the caller's state, in its
    thread and in its own ``np.errstate`` block, holds again on return,
    also when the call raises.  It carries the buffer size in force at
    import, not the caller's ``bufsize``, which the SVD gufunc does not
    read.  The factors are those of ``np.linalg.svd(a, full_matrices=False)``
    to the bit.

    It does not refuse a singular value beyond float64: a finite matrix
    such as ``np.full((2, 3), 1.7e308)`` gives ``s[0] = inf``.  Its callers
    keep to float64's range themselves: the Procrustes kernel and the
    Gram roots near the float64 limit run at a power of two.
    """
    signature = "D->DdD" if a.dtype.kind == "c" else "d->ddd"
    token = _extobj_contextvar.set(_SVD_ERRSTATE)
    try:
        u, s, vh = _umath_linalg.svd_s(a, signature=signature)
    finally:
        _extobj_contextvar.reset(token)
    return u, s, _adjoint(vh)


def _check_hermitian(a: np.ndarray, error: type[Exception] = NotHermitianError):
    """``(a c, c, ||a c||)`` for a ``(..., l, l)`` stack ``a``, c of shape
    ``(...)`` the largest power of four at most each matrix's :func:`_scales`
    (so that sqrt(c) too is a power of two) and the Frobenius norms at c;
    ``error`` unless, at c, each matrix has
    ``||M - M*|| <= HERM_TOL max(1, ||M||)``."""
    c = _scales(a)
    c = np.ldexp(1.0, 2 * ((np.frexp(c)[1] - 1) // 2))
    a, c = a * c, c[..., 0, 0]
    norms = _frobenius_norms(a)
    defect = _frobenius_norms(a - _adjoint(a))
    if (defect > HERM_TOL * np.maximum(c, norms)).any():
        raise error(
            f"matrix is not Hermitian: ||M - M*|| = {_unscaled(defect, c).max():.3e} exceeds tolerance"
        )
    return a, c, norms


def psd_sqrt(m) -> np.ndarray:
    """Unique positive semi-definite square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-1e-9 ||M||_F, 0)`` are clamped to zero: Gram
    matrices of nearly rank-deficient configurations routinely produce
    tiny negative eigenvalues in floating point.  A stack ``(..., l, l)``
    gets one root per matrix, each clamped at its own Frobenius norm.
    Each matrix is factored at the power of four c of
    :func:`_check_hermitian` and its root divided by sqrt(c), so a matrix
    near the float64 limit or of subnormal entries has the root of its
    scaled copy, and a unit-scale one the same bits as unscaled.

    Raises NotHermitianError/NotPSDError when the input is not a
    numerically PSD Hermitian matrix (checked to tolerance),
    ShapeMismatchError when it is not square, NonFiniteError on NaN/Inf
    entries (the root of a finite matrix is finite) and
    ConvergenceFailureError if the eigensolver does not converge.
    """
    a = _as_array(m, "matrix", stacked=True)
    if a.shape[-2] != a.shape[-1]:
        raise ShapeMismatchError(f"expected square matrix, got {a.shape}")
    a, c, norms = _check_hermitian(a)
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    if w.size:
        lowest = w[..., 0]  # eigenvalues ascend
        tol = 1e-9 * norms
        bad = lowest < -tol
        if bad.any():
            k = np.argmax(bad)
            raise NotPSDError(
                f"eigenvalue {np.ravel(_unscaled(lowest, c))[k]:.3e} below -1e-9 ||M||_F = "
                f"{-np.ravel(_unscaled(tol, c))[k]:.3e}"
            )
    r = (q * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ _adjoint(q)
    # round-off can leave a tiny skew-Hermitian part; resymmetrize
    r = 0.5 * (r + _adjoint(r)) if a.dtype.kind == "c" else r.real
    return _finite(_unscaled(r, np.sqrt(c)[..., None, None]), "matrix", "a root")
