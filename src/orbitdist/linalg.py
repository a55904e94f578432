"""Dense linear-algebra kernel used by the distance and embedding formulas.

Everything here works on plain numpy arrays: real or complex 2-D matrices
whose columns are the points of a configuration.  All functions are pure
and validate finiteness up front, so NaN/Inf never propagate silently into
a factorization.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceFailureError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    ShapeMismatchError,
)

# Factor orthonormality / hermiticity tolerance (absolute, unit-scale factors)
ORTH_TOL = 1e-8
HERM_TOL = 1e-8
# Relative reconstruction tolerance for factorizations
RECON_TOL = 1e-10


class SvdFactors(NamedTuple):
    """Thin singular value decomposition ``M = u @ diag(s) @ v.conj().T``.

    ``u`` is n-by-r and ``v`` is l-by-r with orthonormal columns,
    r = min(n, l); singular values are nonincreasing and nonnegative.
    """

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


class EigenFactors(NamedTuple):
    """Eigendecomposition ``M = q @ diag(w) @ q.conj().T`` of a Hermitian
    matrix; eigenvalues ``w`` are real and ascending."""

    q: np.ndarray
    eigenvalues: np.ndarray


def as_matrix(m, *, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a 2-D float64/complex128 array.

    Raises NonFiniteError on NaN/Inf entries and ShapeMismatchError when
    the input is not two-dimensional.
    """
    a = np.asarray(m)
    if np.iscomplexobj(a):
        a = a.astype(np.complex128, copy=False)
    else:
        a = a.astype(np.float64, copy=False)
    if a.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains NaN or Inf entries")
    return a


def svd(m) -> SvdFactors:
    """Thin SVD with r = min(n, l) factors.

    Real input yields real factors.  Raises ConvergenceFailureError if the
    backend does not converge.
    """
    a = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    return SvdFactors(u, s, vh.conj().T)


def nuclear_norm(m) -> float:
    """Sum of the singular values of ``m``."""
    return float(svd(m).singular_values.sum())


def frobenius_dist(m1, m2) -> float:
    """Frobenius distance between two same-shape matrices."""
    a = as_matrix(m1, name="m1")
    b = as_matrix(m2, name="m2")
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shapes differ: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _check_hermitian(a: np.ndarray) -> None:
    scale = max(1.0, float(np.linalg.norm(a)))
    defect = float(np.linalg.norm(a - a.conj().T))
    if defect > HERM_TOL * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: ||M - M*|| = {defect:.3e} exceeds tolerance"
        )


def eigh(m) -> EigenFactors:
    """Eigendecomposition of a Hermitian matrix (checked to tolerance)."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected square matrix, got {a.shape}")
    _check_hermitian(a)
    try:
        w, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    return EigenFactors(q, w)


def psd_sqrt(m, tol_neg: float | None = None) -> np.ndarray:
    """Unique positive semi-definite square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-tol_neg, 0)`` are clamped to zero: Gram matrices of
    nearly rank-deficient configurations routinely produce tiny negative
    eigenvalues in floating point.  ``tol_neg`` defaults to 1e-9 times the
    Frobenius norm of the input.

    Raises NotHermitianError/NotPSDError when the input is not a
    numerically PSD Hermitian matrix.
    """
    q, w = eigh(m)
    if tol_neg is None:
        tol_neg = 1e-9 * float(np.linalg.norm(as_matrix(m)))
    if w.size and w.min() < -tol_neg:
        raise NotPSDError(f"eigenvalue {w.min():.3e} below -tol_neg = {-tol_neg:.3e}")
    root = np.sqrt(np.maximum(w, 0.0))
    r = (q * root) @ q.conj().T
    if not np.iscomplexobj(np.asarray(m)):
        r = r.real
    else:
        # round-off can leave a tiny skew-Hermitian part; resymmetrize
        r = 0.5 * (r + r.conj().T)
    return r
