"""Nearest-orbit queries against a database of configurations.

The database holds its records as one read-only ``(N, n, l)`` stack.  The
exact route scans every record with the orbit distance, as stacked
Procrustes solves over fixed-size blocks of records (one batched SVD per
block rather than one Python call per record); the features are built the
same way at construction.  The fast route ranks records by the distance
between flattened invariant features: because full features sandwich the
orbit distance within a factor of sqrt(2), the feature-nearest record is
certified to be within sqrt(2) of the true nearest orbit.

The feature ranking is exact.  One float32 matrix-vector product screens
every record, and only the records the screen cannot rule out get their
feature distance computed in float64 (see :func:`feature_nearest` for the
screen and the bound that makes it exact).  At the feature dimensions of
real databases (tens of coordinates and up) this scan beats a k-d tree,
which has to visit nearly every leaf there (Weber, Schek & Blott, VLDB
1998).  Searching loads only numpy.

A feature query is usually followed by :func:`verify` on each of its hits.
The database remembers its last feature query, so those calls share one
stacked Procrustes solve over all of its hits instead of one solve each;
the memo is a cache only, and every other call is solved as one pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateIdError,
    EmptyDatabaseError,
    FeatureMapMismatchError,
    NonFiniteError,
    OrbitDistError,
    OutOfRangeError,
    UnknownIdError,
)
from .features import FULL, REDUCED, _feature_stack
from .linalg import _as_array, _finite, _pow2_scale, _unscaled
from .metrics import GroupAction, _configuration, _procrustes

_SQRT2 = float(np.sqrt(2.0))
# Records per stacked kernel call in the database build and the exact
# scan, so that their working memory does not grow with the database.
_BLOCK = 1024
# Unit roundoffs of float32 and float64, and a bound on the absolute error
# of one float32 rounding or product near underflow (with gradual underflow
# or flush-to-zero alike).
_U32 = 2.0**-24
_U64 = 2.0**-53
_TINY32 = 2.0**-126
# The screen runs for scaled query features below this in every entry,
# which keeps every float32 value it computes finite.
_SCREEN_MAX = 2.0**100


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n: the relative error bound of n roundings at unit
    roundoff u."""
    return n * u / (1.0 - n * u)


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
            field_ok = group.is_complex or not np.iscomplexobj(x)
            if x.ndim == 3 and field_ok and (x.shape[2] or not group.quotients_translations):
                return ids, rows, x
    rows, mats = {}, []
    for rid, (_, m) in zip(ids, records):
        if rid in rows:
            raise DuplicateIdError(f"duplicate record id {rid!r}")
        rows[rid] = len(mats)
        shape = mats[0].shape if mats else None
        mats.append(_configuration(group, m, f"record {rid!r}", shape))
    return ids, rows, np.stack(mats)


def _key(q: np.ndarray) -> tuple[str, bytes]:
    """What identifies a validated query: its dtype and its values."""
    return q.dtype.str, q.tobytes()


class _LastQuery(NamedTuple):
    """The hits of a database's last :func:`feature_nearest` call.

    ``positions`` maps the hits' row numbers, in rank order, to their
    ranks; ``distances`` holds the hits' exact orbit distances in rank
    order once :func:`verify` has computed them, or None.
    """

    key: tuple[str, bytes]
    positions: dict[int, int]
    distances: np.ndarray | None


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
    of shape ``(N, n, l)`` and computes the float64 feature rows
    ``features`` block by block (equal to :func:`feature_vector` of each
    record).  For the screen of :func:`feature_nearest` it also keeps, for
    ``g = sigma * features`` with sigma the power of two that brings
    ``max |features|`` into [1/2, 1) (:func:`linalg._pow2_scale`), the
    squared row norms ``|g_i|^2`` in float64 and a read-only float32 copy
    of ``g`` stored transposed, so the screen is one matrix-vector product.  A record whose feature
    overflows float64 is refused with :class:`NonFiniteError`.  Afterwards
    the records and features are read-only, and the database keeps one
    memo of its last feature query (see :func:`verify`); it is safe to
    query from many threads.
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
        self.ids, self._rows, self.matrices = _stack_records(group, records)
        self.matrices.flags.writeable = False
        self.n, self.l = self.matrices.shape[1:]
        self.features = (
            np.concatenate([_feature_stack(group, x, feature_map) for x in _blocks(self.matrices)])
            if self.ids
            else np.zeros((0, 0))
        )
        finite = np.isfinite(self.features).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            _finite(self.features[i], f"record {self.ids[i]!r}")
        self._scale = _pow2_scale(float(np.abs(self.features).max(initial=0.0)))
        g = self._scale * self.features
        self._sq_norms = np.add.reduce(g * g, axis=-1)
        self._sq_norms.flags.writeable = False
        self._g32t = np.ascontiguousarray(g.T, dtype=np.float32)
        self._g32t.flags.writeable = False
        self._max_norm = math.sqrt(self._sq_norms.max(initial=0.0))
        dim = self.features.shape[1]
        # the terms of the screen's error bound, see feature_nearest
        self._error_terms = (
            2.0 * _gamma(dim + 3, _U32),
            2.0 * _gamma(dim + 5, _U64),
            8.0 * dim * _TINY32,
            self._scale * 2.0**-1074,
        )
        # the last feature query, replaced whole by one attribute assignment
        self._memo: _LastQuery | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def _check_query(self, query) -> np.ndarray:
        if not len(self):
            raise EmptyDatabaseError("database has no records")
        return _configuration(self.group, query, "query", (self.n, self.l))

    def _feature(self, q: np.ndarray) -> np.ndarray:
        """Feature of a query that :meth:`_check_query` returned."""
        return _feature_stack(self.group, q, self.feature_map)

    def _distances(self, qf: np.ndarray, rows) -> np.ndarray:
        """Float64 feature distances from the query feature ``qf`` to the
        given rows.

        Each row's distance is summed on its own, so it has the same bits
        whichever rows are asked for.  The differences are taken at the
        power of two that brings the largest entry of the records and of
        the query below 1, so no square overflows (``linalg``'s policy); a
        distance beyond float64 reads inf, with no warning.
        """
        scale = min(self._scale, _pow2_scale(float(np.abs(qf).max(initial=0.0))))
        d = self.features[rows] * scale - qf * scale
        return _unscaled(np.sqrt(np.add.reduce(d * d, axis=-1)), scale)

    def _screen(self, qf: np.ndarray, k: int) -> np.ndarray:
        """Rows the float32 screen cannot rule out of the k feature-nearest
        (every row when ``k >= N`` or when the screen cannot run)."""
        if k < len(self) and float(np.abs(qf).max(initial=0.0)) * self._scale < _SCREEN_MAX:
            h = self._scale * qf
            s = ((-2.0 * h).astype(np.float32) @ self._g32t).astype(np.float64)
            s += self._sq_norms
            hn, m = math.sqrt(h @ h), self._max_norm
            c32, c64, c_tiny, c_sub = self._error_terms
            err = (1.0 + 2.0**-20) * (
                c32 * m * hn + c64 * (m + hn) ** 2 + c_tiny * (1.0 + hn) + c_sub * (m + hn + 1.0)
            )
            return np.flatnonzero(s <= np.partition(s, k - 1)[k - 1] + 2.0 * err)
        _finite(qf, "query")
        return np.arange(len(self))

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
    block of records, and equal :func:`orbit_distance` of each record.  The
    feature distance of the returned record has the bits that
    :func:`feature_nearest` reports for it.
    """
    q = db._check_query(query)
    qf = db._feature(q)
    d = np.concatenate([_procrustes(db.group, q, x)[0] for x in _blocks(db.matrices)])
    i = min(np.flatnonzero(d == d.min()), key=db.ids.__getitem__)
    return QueryResult(
        id=db.ids[i],
        embedded_distance=float(db._distances(qf, [i])[0]),
        exact_orbit_distance=float(d[i]),
        approximation_bound=1.0,
    )


def feature_nearest(db: ShapeDatabase, query, k: int = 1) -> list[QueryResult]:
    """The k nearest records by feature distance, exactly.

    Results come back sorted by (feature distance, id): they are the first
    k of that order over every record, ties at the k-th place included,
    and each distance has the bits :func:`linear_scan_nearest` reports.
    With full features the top result's orbit distance is certified
    within sqrt(2) of the true nearest orbit.  ``k`` must be an integer
    >= 1 (OutOfRangeError otherwise).  The call replaces the database's
    memo of its last feature query, which :func:`verify` reads.

    The search screens every record in float32, then computes the float64
    distance ``d^_i`` of the few it cannot rule out.  With the database's
    ``g_i = sigma * features[i]`` (every entry below 1 in magnitude) and
    ``h = sigma * q`` for the query feature q, the squared distance is
    ``|g_i - h|^2 = s_i + |h|^2`` with ``s_i = |g_i|^2 - 2 g_i.h``, and the
    screen computes

        s~_i = |g_i|^2 - 2 fl32(g_i).fl32(h),

    the dot products as one float32 matrix-vector product, the stored
    ``|g_i|^2`` and the subtraction in float64.  The float64 distances
    correspond to ``s^_i = sigma^2 d^_i^2 - |h|^2``.  With D the feature
    dimension, ``M = max |g_i|``, ``H = |h|``, ``gamma_n(u) = n u/(1 - n u)``,
    float32 and float64 unit roundoffs ``u = 2^-24`` and ``v = 2^-53``, and
    ``eta = 2^-126``, every row satisfies ``|s~_i - s^_i| <= E`` with

        E = (1 + 2^-20) (2 gamma_{D+3}(u) M H + 2 gamma_{D+5}(v) (M + H)^2
                         + 8 D eta (1 + H) + sigma 2^-1074 (M + H + 1)).

    The terms, each bounding a part of ``|s~_i - s_i|`` or ``|s_i - s^_i|``:

    - float32 rounding of g and h and the D-term float32 dot product:
      each product of the dot carries two input roundings and at most D
      roundings of the sum, whatever its order, so the dot is off by at
      most ``gamma_{D+2}(u) sum_j |g_ij h_j| <= gamma_{D+2}(u) M H``; this
      dominant term is doubled by the factor 2 on the dot product;
    - float32 subnormals: each rounding of an entry and each product may
      be off by up to eta in absolute terms (gradual underflow or flush
      to zero), which with ``|g_ij| < 1`` adds at most ``3 D eta (1 + H)``;
      the float64 underflows, far smaller, fit in the rest of
      ``8 D eta (1 + H)``;
    - float64 rounding of ``|g_i|^2`` (``gamma_D(v) M^2``) and of the
      subtraction (``v |s~_i|``);
    - the float64 distances: ``|s^_i - s_i| <= gamma_{D+4}(v) (M + H)^2``,
      plus ``sigma 2^-1074 (M + H + 1)`` for a distance that lands among
      float64 subnormals;
    - the float64 rounding of the threshold below, of at most
      ``v (M^2 + 2 M H + 2 E)``; the factor ``1 + 2^-20`` covers the
      rounding of M, H and E themselves.

    The candidates are the rows with ``s~_i <= s~_(k) + 2E``, where
    ``s~_(k)`` is the k-th smallest screened value.  Order statistics move
    by at most E, so ``s^_(k) <= s~_(k) + E``, and every row with
    ``d^_i <= d^_(k)`` has ``s~_i <= s^_i + E <= s~_(k) + 2E``: every true
    k-nearest record, and every record tied with the k-th, is a candidate,
    and ranking the candidates by ``(d^_i, id)`` gives the exact answer.
    The screen runs when every entry of h is below 2^100 in magnitude,
    which keeps every float32 value finite for ``D < 2^26``; otherwise, and
    when k is at least the number of records, every row is scored exactly.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise OutOfRangeError(f"k must be an integer >= 1, got {k!r}")
    q = db._check_query(query)
    qf = db._feature(q)
    rows = db._screen(qf, k)
    d = db._distances(qf, rows)
    if len(rows) > k:
        keep = d <= np.partition(d, k - 1)[k - 1]
        rows, d = rows[keep], d[keep]
    rows = rows.tolist()
    best = sorted(zip(d.tolist(), [db.ids[i] for i in rows], rows))[:k]
    positions = {i: p for p, (_, _, i) in enumerate(best)}
    db._memo = _LastQuery(_key(q), positions, None)
    return [
        QueryResult(
            id=rid,
            embedded_distance=dist,
            exact_orbit_distance=None,
            approximation_bound=db.certified_bound,
        )
        for dist, rid, _ in best
    ]


def _memo_distance(db: ShapeDatabase, q: np.ndarray, i: int) -> float | None:
    """The exact orbit distance from ``q`` to row i, taken from the memo of
    the last feature query, or None when the memo does not hold it.

    The first hit asked for solves every hit in one stacked call and
    stores their distances in a new memo.  A hit list with a distance
    beyond float64 is not stored, so each of its hits is solved on its
    own.
    """
    memo = db._memo
    if memo is None or i not in memo.positions or memo.key != _key(q):
        return None
    d = memo.distances
    if d is None:
        try:
            d = _procrustes(db.group, q, db.matrices[list(memo.positions)])[0]
        except NonFiniteError:
            return None
        db._memo = memo._replace(distances=d)
    return float(d[memo.positions[i]])


def verify(db: ShapeDatabase, result: QueryResult, query) -> QueryResult:
    """Fill in the exact orbit distance for a query result.

    The query is validated on every call, against the database; the
    record was validated when the database was built, so the kernel runs
    on it directly and the distance equals :func:`orbit_distance`.

    When ``query`` has the dtype and values of the database's last
    :func:`feature_nearest` query and ``result.id`` is one of its hits,
    the distance comes from that query's memo.  The first verify of any
    hit solves all k hits, in rank order, in one stacked Procrustes call,
    and the other hits then cost no kernel call.  Stacked rows have the
    bits of single pairs.  Any other query or result is solved as one
    pair.
    """
    q = db._check_query(query)
    i = db.index_of(result.id)
    d = _memo_distance(db, q, i)
    if d is None:
        d = float(_procrustes(db.group, q, db.matrices[i])[0])
    return replace(result, exact_orbit_distance=d)
