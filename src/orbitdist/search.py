"""Nearest-orbit queries against a database of configurations.

The database holds its records as one read-only ``(N, n, l)`` stack.  The
exact route scans every record with the orbit distance, as stacked
Procrustes solves over fixed-size blocks of records (one batched SVD per
block rather than one Python call per record); the features are built the
same way at construction.  The fast route searches a k-d tree over the
flattened invariant features: because
full features sandwich the orbit distance within a factor of sqrt(2), the
feature-nearest record is certified to be within sqrt(2) of the true
nearest orbit, while the tree search itself is exact (no approximation on
the feature side).

The k-d tree comes from ``scipy.spatial``, imported when a database is
built, so that importing this module loads only numpy.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .embeddings import _check_field
from .errors import (
    DuplicateIdError,
    EmptyDatabaseError,
    FeatureMapMismatchError,
    OrbitDistError,
    OutOfRangeError,
    ShapeMismatchError,
    UnknownIdError,
)
from .features import FULL, REDUCED, _feature_stack
from .linalg import _as_array, as_matrix
from .metrics import GroupAction, _procrustes
from .reduction import reducer_for

_SQRT2 = float(np.sqrt(2.0))
# Records per stacked kernel call in the database build and the exact
# scan, so that their working memory does not grow with the database.
_BLOCK = 1024


def _blocks(x: np.ndarray):
    return (x[lo : lo + _BLOCK] for lo in range(0, len(x), _BLOCK))


def _stack_records(group: GroupAction, records) -> tuple[list[str], dict[str, int], np.ndarray]:
    """Record ids, their row numbers, and the records as one validated
    ``(N, n, l)`` stack.

    The stack is checked as a whole.  Only when that check fails are the
    records checked one at a time, to name the first offending record.
    """
    records = list(records)
    ids = [str(rid) for rid, _ in records]
    rows = {rid: i for i, rid in enumerate(ids)}
    if not ids:
        return ids, rows, np.zeros((0, 0, 0))
    if len(rows) == len(ids):
        try:
            x = _as_array(np.stack([m for _, m in records]), "records", stacked=True)
        except (OrbitDistError, ValueError, TypeError):
            pass
        else:
            if x.ndim == 3 and (group.is_complex or not np.iscomplexobj(x)):
                return ids, rows, x
    rows, mats = {}, []
    for rid, (_, m) in zip(ids, records):
        if rid in rows:
            raise DuplicateIdError(f"duplicate record id {rid!r}")
        rows[rid] = len(mats)
        a = as_matrix(m, name=f"record {rid!r}")
        if mats and a.shape != mats[0].shape:
            raise ShapeMismatchError(
                f"record {rid!r} has shape {a.shape}, database uses {mats[0].shape}"
            )
        if np.iscomplexobj(a) and not group.is_complex:
            raise ShapeMismatchError(
                f"record {rid!r} is complex; group {group.value} acts on real configurations"
            )
        mats.append(a)
    return ids, rows, np.stack(mats)


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

    Construction copies the records into one read-only ``matrices`` stack
    of shape ``(N, n, l)``, computes the feature rows block by block
    (equal to :func:`feature_vector` of each record) and builds the
    spatial index; afterwards the database is read-only and safe to query
    from many threads.
    """

    def __init__(
        self,
        group: GroupAction,
        records: Sequence[tuple[str, np.ndarray]],
        feature_map: str = FULL,
    ):
        from scipy.spatial import cKDTree

        if feature_map not in (FULL, REDUCED):
            raise FeatureMapMismatchError(f"unknown feature map {feature_map!r}")
        self.group = group
        self.feature_map = feature_map
        self.ids, self._rows, self.matrices = _stack_records(group, records)
        self.matrices.flags.writeable = False
        self.n, self.l = self.matrices.shape[1:]
        self._reducer = (
            reducer_for(group, self.n, self.l) if self.ids and feature_map == REDUCED else None
        )
        self.features = (
            np.concatenate(
                [_feature_stack(group, x, feature_map, self._reducer) for x in _blocks(self.matrices)]
            )
            if self.ids
            else np.zeros((0, 0))
        )
        self._tree = cKDTree(self.features) if self.ids else None

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
        return _check_field(self.group, q)

    def _feature(self, q: np.ndarray) -> np.ndarray:
        """Feature of a query that :meth:`_check_query` returned."""
        return _feature_stack(self.group, q, self.feature_map, self._reducer)

    def query_feature(self, query) -> np.ndarray:
        return self._feature(self._check_query(query))

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
    lexicographically smallest id.

    The distances come from the stacked Procrustes kernel, one call per
    block of records, and equal :func:`orbit_distance` of each record.
    """
    q = db._check_query(query)
    qf = db._feature(q)
    d = np.concatenate([_procrustes(db.group, q, x)[0] for x in _blocks(db.matrices)])
    i = min(np.flatnonzero(d == d.min()), key=db.ids.__getitem__)
    return QueryResult(
        id=db.ids[i],
        embedded_distance=float(np.linalg.norm(qf - db.features[i])),
        exact_orbit_distance=float(d[i]),
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
    """Fill in the exact orbit distance for a query result.

    The query is validated once, against the database; the record was
    validated when the database was built, so the kernel runs on it
    directly and the distance equals :func:`orbit_distance`.
    """
    q = db._check_query(query)
    d = _procrustes(db.group, q, db.matrices[db.index_of(result.id)])[0]
    return replace(result, exact_orbit_distance=float(d))
