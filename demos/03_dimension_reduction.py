"""Reducing the feature dimension without losing injectivity.

The full features live in O(l^2) dimensions although configurations have
only O(n l) degrees of freedom.  Differences of two features have rank at
most 2n, and a fixed subspace spanned by coefficient matrices of the
polynomials (x - y)^{2n} x^i y^j meets those low-rank matrices only at
zero (a Wronskian argument).  Projecting onto its orthogonal complement
therefore keeps the map injective -- with some positive lower Lipschitz
constant -- while cutting the dimension to O(n l).

That constant is exponentially small in l.  For odd k and l = k + 1 the
rows y = ((1+z)^k + (1-z)^k)/2 and y' = ((1+z)^k - (1-z)^k)/2 (the even
and the odd binomial coefficients of degree k) are orthogonal and of one
norm, so the full features keep their distance exactly; the reduced ones
read the squares y(z)^2 and y'(z)^2, which differ only by (1 - z^2)^k.
Their ratio falls to 3.88e-10 at l = 32, where the least ratio over random
pairs reads about 0.25: a survey's minimum is only an upper bound.
"""
import math

import numpy as np

from orbitdist import (
    Ambient,
    GroupAction,
    build_reducer,
    feature_dim,
    feature_vector,
    lower_constant_survey,
    orbit_distance,
    reduced_embedding,
    reduced_feature_dim,
    reducer_for,
)

rng = np.random.default_rng(2)

# --- dimension bookkeeping ------------------------------------------------
print("full vs reduced feature dimensions (orthogonal action, n=2):")
print("   l   full l(l+1)/2   reduced n(2l-2n+1)")
for l in range(4, 11):
    print(f"  {l:2d}   {feature_dim(GroupAction.ORTHOGONAL, l):13d}   {reduced_feature_dim(GroupAction.ORTHOGONAL, 2, l):18d}")

# --- the separating subspace really avoids low-rank matrices --------------
rb = build_reducer(1, 5, Ambient.SYMMETRIC)
print(f"\nreducer for n=1, l=5: keeps {rb.dim} of {feature_dim(GroupAction.ORTHOGONAL, 5)} dimensions")
worst = np.inf
for _ in range(2000):
    u, v = rng.standard_normal((2, 5))
    m = np.outer(u, v) + np.outer(v, u)  # random symmetric, rank <= 2
    worst = min(worst, np.linalg.norm(rb.project(m)) / np.linalg.norm(m))
print(f"smallest projected fraction over 2000 random rank-2 matrices: {worst:.4f} (never 0)")

# --- reduced features still separate orbits -------------------------------
group, n, l = GroupAction.ORTHOGONAL, 1, 4
reducer = reducer_for(group, n, l)
a = rng.standard_normal((n, l))
b = rng.standard_normal((n, l))
fa = reduced_embedding(group, a, reducer)
fb = reduced_embedding(group, b, reducer)
d, _ = orbit_distance(group, a, b)
print(f"\nreduced feature gap {np.linalg.norm(fa - fb):.4f} vs orbit distance {d:.4f}"
      f" (upper bound sqrt(2) d = {np.sqrt(2) * d:.4f})")

# same orbit => same reduced feature
q = np.array([[-1.0]])
print("gap on a same-orbit pair:", np.linalg.norm(reduced_embedding(group, q @ a, reducer) - fa))

# --- no closed-form lower constant: survey it empirically ------------------
report = lower_constant_survey(group, n, l, n_pairs=5000, seed=7)
stats = report.ratio_stats["reduced"]
print("\nempirical lower Lipschitz ratio of the reduced map (5000 pairs):")
print(f"  min {stats['min']:.4f}   1% quantile {stats['quantiles']['0.01']:.4f}   "
      f"median {stats['quantiles']['0.5']:.4f}   max {stats['max']:.4f}")

# --- a witness pair: the lower constant is exponentially small in l ---------
print("\nwitness pair y, y' = even, odd binomial coefficients of (1+z)^(l-1):")
print("   l   reduced ratio   full ratio")
for l in (4, 8, 16, 32):
    c = np.array([math.comb(l - 1, j) for j in range(l)], dtype=float)
    y = np.where(np.arange(l) % 2 == 0, c, 0.0)[None]
    y2 = c[None] - y
    d, _ = orbit_distance(group, y, y2)
    ratios = [np.linalg.norm(f(group, y) - f(group, y2)) / d for f in (reduced_embedding, feature_vector)]
    print(f"  {l:2d}   {ratios[0]:13.3e}   {ratios[1]:10.6f}")
