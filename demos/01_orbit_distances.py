"""Orbit distances under the four group actions.

A configuration of l points in R^n (or C^n) is an n-by-l matrix whose
columns are the points.  This script computes the exact distance between
group orbits -- the closest two configurations can be brought by rotating
(and, for the euclidean flavours, translating) one of them -- along with
the group element realizing the minimum.
"""
import numpy as np

from orbitdist import (
    GroupAction,
    dist_complex_euclidean,
    dist_euclidean,
    dist_orthogonal,
    dist_unitary,
)

rng = np.random.default_rng(0)

# --- two random planar 4-point configurations --------------------------
A = rng.standard_normal((2, 4))
B = rng.standard_normal((2, 4))

print("raw frobenius distance:   ", np.linalg.norm(A - B))

d, move = dist_orthogonal(A, B)
print("orthogonal orbit distance:", d)
print("optimal rotation:\n", move.rotation)
print("check ||W A - B||:        ", np.linalg.norm(move.rotation @ A - B))

d_e, move_e = dist_euclidean(A, B)
print("\neuclidean orbit distance: ", d_e, "(translations are free, so it shrinks)")
print("optimal translation:      ", move_e.translation)
print("check ||g A - B||:        ", np.linalg.norm(move_e.apply(A) - B))

# --- same-orbit pairs come back at distance zero ------------------------
theta = rng.uniform(0, 2 * np.pi)
R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
moved = R @ A + rng.standard_normal(2)[:, None]
print("\ndistance to a rigid motion of A:", dist_euclidean(A, moved)[0])

# --- complex configurations ---------------------------------------------
Z = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
W = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
print("\nunitary orbit distance:          ", dist_unitary(Z, W)[0])
print("complex-euclidean orbit distance:", dist_complex_euclidean(Z, W)[0])

# a global phase is a unitary matrix, so it costs nothing
print("distance to exp(i*0.9)*Z:        ", dist_unitary(Z, np.exp(0.9j) * Z)[0])

# --- the distances are ordered by how much is quotiented out -------------
print("\nordering on a real pair (more symmetry, smaller distance):")
d_o = dist_orthogonal(A, B)[0]
d_u = dist_unitary(A, B)[0]
print(f"  d_unitary   = {d_u:.12f} (equals d_orthogonal for real inputs)")
print(f"  d_orthogonal= {d_o:.12f}")
print(f"  d_euclidean = {dist_euclidean(A, B)[0]:.12f}")
print(f"  d_complex_eu= {dist_complex_euclidean(A, B)[0]:.12f}")
