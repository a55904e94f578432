"""Nearest-orbit search over a shape database.

Finding the database configuration whose orbit is closest to a query
normally costs one Procrustes solve per record.  Searching the flattened
invariant features instead costs one embedding per query plus one exact
feature scan (a float32 screen of every record, then float64 distances for
the few it cannot rule out) -- and because feature distances sandwich
orbit distances within sqrt(2), the answer is certified to be at most
sqrt(2) times farther than the true nearest orbit.
"""
import time

import numpy as np

from orbitdist import (
    GroupAction,
    ShapeDatabase,
    feature_nearest,
    linear_scan_nearest,
    verify,
)

rng = np.random.default_rng(5)

records = [(f"shape{i:04d}", rng.standard_normal((2, 3))) for i in range(2000)]
db = ShapeDatabase(GroupAction.EUCLIDEAN, records)
print(f"database: {len(db)} planar triangles, features of length {db.features.shape[1]}")

query = rng.standard_normal((2, 3))

t0 = time.perf_counter()
truth = linear_scan_nearest(db, query)
t_scan = time.perf_counter() - t0

t0 = time.perf_counter()
fast = feature_nearest(db, query, k=3)
t_feature = time.perf_counter() - t0

print(f"\nexact linear scan:  {truth.id}  d_orbit = {truth.exact_orbit_distance:.6f}  ({t_scan*1e3:.1f} ms)")
print(f"feature search:     {fast[0].id}  d_feature = {fast[0].embedded_distance:.6f}  ({t_feature*1e3:.2f} ms)")
print(f"certified factor:   {fast[0].approximation_bound:.4f}")

# fill in the exact orbit distance of the returned record
checked = verify(db, fast[0], query)
print(f"\nverified: d_orbit(query, {checked.id}) = {checked.exact_orbit_distance:.6f}")
bound = np.sqrt(2) * truth.exact_orbit_distance
print(f"certificate holds: {checked.exact_orbit_distance:.6f} <= sqrt(2) * {truth.exact_orbit_distance:.6f} = {bound:.6f}")

print("\ntop 3 by feature distance:")
for r in fast:
    r = verify(db, r, query)
    print(f"  {r.id}: feature gap {r.embedded_distance:.6f}, exact orbit distance {r.exact_orbit_distance:.6f}")

# how often does the feature-nearest record coincide with the true nearest?
agree = 0
for _ in range(200):
    q = rng.standard_normal((2, 3))
    agree += feature_nearest(db, q)[0].id == linear_scan_nearest(db, q).id
print(f"\nfeature-nearest == exact-nearest on {agree}/200 random queries")
