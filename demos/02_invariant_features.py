"""Bi-Lipschitz invariant features.

The PSD square root of a configuration's Gram matrix is constant on
rotation orbits and, flattened to a coordinate vector, its euclidean
distances sandwich the orbit distance:

    d_G(A, B)  <=  ||feature(A) - feature(B)||  <=  sqrt(2) d_G(A, B).

The centered variants do the same for the euclidean groups.  This script
samples pairs and shows the observed ratio always lands in [1, sqrt(2)].
"""
import numpy as np

from orbitdist import (
    GroupAction,
    embedding_for,
    feature_dim,
    orbit_distance,
)

rng = np.random.default_rng(1)

# --- the feature of one configuration -----------------------------------
A = rng.standard_normal((2, 4))
mat, vec = embedding_for(GroupAction.ORTHOGONAL, A)
print("feature matrix (PSD root of the 4x4 Gram):\n", np.round(mat, 4))
print("flattened coordinates:", np.round(vec, 4))
print("vector length l(l+1)/2 =", vec.shape[0])

# rotations do not move the feature
Q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
_, vec_rot = embedding_for(GroupAction.ORTHOGONAL, Q @ A)
print("feature shift under a rotation:", np.linalg.norm(vec - vec_rot))

# --- the sandwich over random pairs, per group ---------------------------
print("\nobserved ratio ||feature gap|| / d_G over 2000 pairs:")
for group, n, l in [
    (GroupAction.ORTHOGONAL, 2, 3),
    (GroupAction.EUCLIDEAN, 2, 3),
    (GroupAction.UNITARY, 2, 3),
    (GroupAction.COMPLEX_EUCLIDEAN, 2, 4),
]:
    ratios = []
    for _ in range(2000):
        a = rng.standard_normal((n, l))
        b = rng.standard_normal((n, l))
        if group.is_complex:
            a = a + 1j * rng.standard_normal((n, l))
            b = b + 1j * rng.standard_normal((n, l))
        d, _ = orbit_distance(group, a, b)
        if d < 1e-9:
            continue
        gap = np.linalg.norm(embedding_for(group, a)[1] - embedding_for(group, b)[1])
        ratios.append(gap / d)
    ratios = np.array(ratios)
    dims = feature_dim(group, l)
    print(
        f"  {group.name.lower():18s} (n={n}, l={l}, dim {dims:2d}): "
        f"[{ratios.min():.4f}, {ratios.max():.4f}]  sqrt(2) = {np.sqrt(2):.4f}"
    )
