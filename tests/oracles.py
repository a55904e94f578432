"""Brute-force oracles, independent of the closed-form production paths.

Group minima are found by enumerating dense parameter grids and applying
each group element explicitly; translations are searched coordinate by
coordinate (the objective separates).  Nothing here touches the SVD-based
distance formulas under test.
"""
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


def rotation2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _rotation_grid_min_d2(a: np.ndarray, b: np.ndarray, thetas: np.ndarray) -> float:
    """min over the grid of ||R(theta) a - b||^2, evaluated entrywise."""
    best = np.inf
    for lo in range(0, len(thetas), 100_000):
        t = thetas[lo : lo + 100_000]
        c, s = np.cos(t)[:, None], np.sin(t)[:, None]
        r0 = c * a[0] - s * a[1] - b[0]
        r1 = s * a[0] + c * a[1] - b[1]
        d2 = (r0 * r0 + r1 * r1).sum(axis=1)
        best = min(best, float(d2.min()))
    return best


def o2_grid_min(a, b, n_grid: int = 1_000_000) -> float:
    """Minimum of ||W a - b|| over a grid of n_grid elements of O(2),
    split evenly between rotations and reflected rotations."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = n_grid // 2
    thetas = np.arange(half) * (TWO_PI / half)
    reflected = np.vstack([a[0], -a[1]])
    d2 = min(
        _rotation_grid_min_d2(a, b, thetas),
        _rotation_grid_min_d2(reflected, b, thetas),
    )
    return float(np.sqrt(max(d2, 0.0)))


def _su2_elements(u: np.ndarray, th: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Special unitary 2x2 matrices [[a, b], [-conj(b), conj(a)]] with
    a = cos(th) e^{iu}, b = sin(th) e^{iv}, on the product grid."""
    uu, tt, vv = np.meshgrid(u, th, v, indexing="ij")
    aa = (np.cos(tt) * np.exp(1j * uu)).ravel()
    bb = (np.sin(tt) * np.exp(1j * vv)).ravel()
    s = np.empty((aa.size, 2, 2), dtype=complex)
    s[:, 0, 0] = aa
    s[:, 0, 1] = bb
    s[:, 1, 0] = -bb.conj()
    s[:, 1, 1] = aa.conj()
    return s


def u2_grid_min(a, b, n: int = 64, rounds: int = 3, n_refine: int = 24) -> float:
    """Minimum of ||W a - b|| over W in U(2) by grid search.

    U(2) elements are e^{i phi} S with S special unitary parameterized by
    (phase, angle, phase); for each S the best global phase phi gives
    ||e^{i phi} S a - b||^2 = ||a||^2 + ||b||^2 - 2 |<S a, b>|, so the grid
    only needs the three S parameters.  The coarse grid is refined around
    the best cell a few times.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na2 = float((a.conj() * a).real.sum())
    nb2 = float((b.conj() * b).real.sum())
    grids = [
        np.arange(n) * (TWO_PI / n),
        np.arange(n) * ((np.pi / 2) / max(n - 1, 1)),
        np.arange(n) * (TWO_PI / n),
    ]
    steps = [TWO_PI / n, (np.pi / 2) / max(n - 1, 1), TWO_PI / n]
    best_val, best_pt = -np.inf, None
    for _ in range(rounds):
        s = _su2_elements(*grids)
        applied = np.einsum("gij,jl->gil", s, a)
        inner = np.abs(np.einsum("gil,il->g", applied, b.conj()))
        k = int(inner.argmax())
        if inner[k] > best_val:
            best_val = float(inner[k])
            shape = (len(grids[0]), len(grids[1]), len(grids[2]))
            iu, it, iv = np.unravel_index(k, shape)
            best_pt = (grids[0][iu], grids[1][it], grids[2][iv])
        grids = [
            np.linspace(c - st, c + st, n_refine)
            for c, st in zip(best_pt, steps)
        ]
        steps = [2.0 * st / (n_refine - 1) for st in steps]
    return float(np.sqrt(max(na2 + nb2 - 2.0 * best_val, 0.0)))


def translation_grid_min(a, b, n_grid: int = 20_001) -> float:
    """Minimum of ||a + z 1^T - b|| over translations z, by a dense 1-D
    line search in each coordinate direction (the objective separates)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    total = 0.0
    for i in range(a.shape[0]):
        diff = b[i] - a[i]
        width = float(np.abs(diff).max()) + 1.0
        zs = np.linspace(-width, width, n_grid)
        vals = ((a[i] + zs[:, None] - b[i]) ** 2).sum(axis=1)
        total += float(vals.min())
    return float(np.sqrt(total))


def nuclear_norm_by_gram(m) -> float:
    """Sum of square roots of the eigenvalues of the Gram matrix M* M
    (computed on the full-rank side so round-off in the zero eigenvalues
    does not pollute the square roots)."""
    m = np.asarray(m)
    gram = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m
    w = np.linalg.eigvalsh(gram)
    return float(np.sqrt(np.maximum(w, 0.0)).sum())


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


@lru_cache(maxsize=None)
def gram_schmidt_mean_last_basis(l: int) -> np.ndarray:
    """Orthogonal l-by-l matrix whose last column is the normalized
    all-ones vector, by orthonormalizing (ones/sqrt(l), e_0, ..., e_{l-2})
    one column at a time and moving the ones-column to the end."""
    ones = np.full(l, 1.0 / np.sqrt(l))
    cols = [ones]
    for k in range(l - 1):
        v = np.zeros(l)
        v[k] = 1.0
        for c in cols:
            v -= (c @ v) * c
        v /= np.linalg.norm(v)
        cols.append(v)
    w = np.column_stack(cols[1:] + [ones])
    w.setflags(write=False)
    return w


def csr_reduced_features(group, x) -> np.ndarray:
    """Reduced features of a validated ``(..., n, l)`` stack by the general
    route: the CSR operator ``reducer.basis`` applied to each Gram root,
    whatever the size of the product.  At n = 1 the
    library computes them as self-correlations instead, with no root."""
    from orbitdist import embeddings
    from orbitdist.reduction import Ambient, reducer_for

    reducer = reducer_for(group, *x.shape[-2:])
    roots, c = embeddings._block(group, x)
    flat = roots.reshape(-1, reducer.size * reducer.size)
    if reducer.ambient is Ambient.HERMITIAN:
        flat = flat.view(np.float64)
    f = (reducer.basis @ flat.T).T.reshape(x.shape[:-2] + (reducer.dim,))
    return embeddings._at_scale(f, c)
