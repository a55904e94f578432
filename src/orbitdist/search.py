"""Nearest-orbit queries against a database of configurations.

The exact route scans every record with the orbit distance.  The fast
route searches a k-d tree over the flattened invariant features: because
full features sandwich the orbit distance within a factor of sqrt(2), the
feature-nearest record is certified to be within sqrt(2) of the true
nearest orbit, while the tree search itself is exact (no approximation on
the feature side).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DuplicateIdError,
    EmptyDatabaseError,
    FeatureMapMismatchError,
    OutOfRangeError,
    ShapeMismatchError,
    UnknownIdError,
)
from .features import FULL, REDUCED, feature_vector, reducer_if_needed
from .linalg import as_matrix
from .metrics import GroupAction, orbit_distance

_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class QueryResult:
    """One matched record.

    ``approximation_bound`` is the certified factor relating the exact
    orbit distance of the returned record to the best possible one: 1 for
    an exact scan, sqrt(2) for full-feature search, and infinity when the
    reduced features (whose lower Lipschitz constant is not computed)
    were used.
    """

    id: str
    embedded_distance: float
    exact_orbit_distance: float | None
    approximation_bound: float


class ShapeDatabase:
    """Immutable indexed collection of same-shape configurations.

    Construction computes one feature vector per record and builds the
    spatial index; afterwards the database is read-only and safe to query
    from many threads.
    """

    def __init__(
        self,
        group: GroupAction,
        records: Sequence[tuple[str, np.ndarray]],
        feature_map: str = FULL,
    ):
        if feature_map not in (FULL, REDUCED):
            raise FeatureMapMismatchError(f"unknown feature map {feature_map!r}")
        self.group = group
        self.feature_map = feature_map
        self.ids: list[str] = []
        self.matrices: list[np.ndarray] = []
        self._rows: dict[str, int] = {}
        shape = None
        for rid, m in records:
            rid = str(rid)
            if rid in self._rows:
                raise DuplicateIdError(f"duplicate record id {rid!r}")
            self._rows[rid] = len(self.ids)
            a = as_matrix(m, name=f"record {rid!r}")
            if shape is None:
                shape = a.shape
            elif a.shape != shape:
                raise ShapeMismatchError(
                    f"record {rid!r} has shape {a.shape}, database uses {shape}"
                )
            self.ids.append(rid)
            self.matrices.append(a)
        self.n, self.l = shape if shape is not None else (0, 0)
        self._reducer = (
            reducer_if_needed(group, self.n, self.l, feature_map) if shape is not None else None
        )
        feats = [
            feature_vector(group, m, feature_map, self._reducer) for m in self.matrices
        ]
        self.features = (
            np.vstack(feats) if feats else np.zeros((0, 0))
        )
        self._tree = cKDTree(self.features) if feats else None

    def __len__(self) -> int:
        return len(self.ids)

    def _check_query(self, query) -> np.ndarray:
        if not len(self):
            raise EmptyDatabaseError("database has no records")
        q = as_matrix(query, name="query")
        if q.shape != (self.n, self.l):
            raise ShapeMismatchError(
                f"query shape {q.shape} does not match database shape {(self.n, self.l)}"
            )
        return q

    def query_feature(self, query) -> np.ndarray:
        q = self._check_query(query)
        f = feature_vector(self.group, q, self.feature_map, self._reducer)
        if f.shape[0] != self.features.shape[1]:
            raise FeatureMapMismatchError(
                f"query embeds to length {f.shape[0]}, database stores {self.features.shape[1]}"
            )
        return f

    def index_of(self, rid: str) -> int:
        try:
            return self._rows[rid]
        except KeyError:
            raise UnknownIdError(f"no record with id {rid!r}") from None

    @property
    def certified_bound(self) -> float:
        return _SQRT2 if self.feature_map == FULL else float("inf")


def linear_scan_nearest(db: ShapeDatabase, query) -> QueryResult:
    """Exact nearest orbit by scanning every record; ties break on the
    lexicographically smallest id."""
    q = db._check_query(query)
    qf = db.query_feature(query)
    best = None
    for i, m in enumerate(db.matrices):
        d, _ = orbit_distance(db.group, q, m)
        key = (d, db.ids[i])
        if best is None or key < best[0]:
            best = (key, i)
    (d, rid), i = best
    return QueryResult(
        id=rid,
        embedded_distance=float(np.linalg.norm(qf - db.features[i])),
        exact_orbit_distance=d,
        approximation_bound=1.0,
    )


def feature_nearest(db: ShapeDatabase, query, k: int = 1) -> list[QueryResult]:
    """k nearest records by feature distance via the exact spatial index.

    Results come back sorted by (feature distance, id).  With full
    features the top result's orbit distance is certified within sqrt(2)
    of the true nearest orbit.
    """
    if k < 1:
        raise OutOfRangeError(f"k must be >= 1, got {k}")
    qf = db.query_feature(query)
    kk = min(k, len(db))
    dist, idx = db._tree.query(qf, k=kk)
    dist = np.atleast_1d(dist)
    idx = np.atleast_1d(idx)
    order = sorted(range(len(idx)), key=lambda j: (dist[j], db.ids[idx[j]]))
    return [
        QueryResult(
            id=db.ids[idx[j]],
            embedded_distance=float(dist[j]),
            exact_orbit_distance=None,
            approximation_bound=db.certified_bound,
        )
        for j in order
    ]


def verify(db: ShapeDatabase, result: QueryResult, query) -> QueryResult:
    """Fill in the exact orbit distance for a query result."""
    q = db._check_query(query)
    i = db.index_of(result.id)
    d, _ = orbit_distance(db.group, q, db.matrices[i])
    return replace(result, exact_orbit_distance=d)
