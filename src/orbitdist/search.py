"""Nearest-orbit queries against a database of configurations.

The database holds its records as one read-only ``(N, n, l)`` stack.  The
fast route ranks records by the distance between flattened invariant
features: because full features sandwich the orbit distance within a
factor of sqrt(2), the feature-nearest record is certified to be within
sqrt(2) of the true nearest orbit.  The exact route screens every record
by its features too, solves the pivot (the record with the smallest
float32 screened value), and then solves only the records that the
sandwich cannot rule out, usually a handful (see
:func:`linear_scan_nearest`).  It solves them as stacked Procrustes calls
over blocks of records (one batched SVD per block rather than one Python
call per record); the features are built the same way at construction.  A
block holds about ``linalg._BLOCK_ENTRIES`` entries: n x l per record in
the scan, and in the build an l x l Gram root per record, or a row of l
for the reduced features at n = 1.  So its working memory grows with
neither the database nor l until a block is one record.

The feature ranking is exact.  One float32 matrix-vector product screens
every record, its squared norm folded into the product, and only the
records the screen cannot rule out get their feature distance computed in
float64 (see :func:`feature_nearest` for the screen and the bound that
makes it exact).  At the feature dimensions of real databases (tens of
coordinates and up) this scan beats a k-d tree, which has to visit nearly
every leaf there (Weber, Schek & Blott, VLDB 1998).  Searching loads only
numpy.

Both routes compute the query's feature as :func:`feature_vector` does,
so every query entry (``query_feature``, :func:`feature_nearest`,
:func:`linear_scan_nearest`) refuses a query whose feature overflows
float64 with the same NonFiniteError.  Both rank by ``(distance, id)``
through one function, :func:`_ranked`.

A feature query is usually followed by :func:`verify` on each of its hits.
The database remembers its last feature query, so those calls skip the
query check that the feature query made, and share one stacked Procrustes
solve over all of its hits instead of one solve each; the memo is a cache
only, and every other call is checked and solved as one pair.

The module also holds the classification study's certified
nearest-record kernel (:func:`_nearest_records`, over a
:func:`_record_table`).  It and :func:`linear_scan_nearest` are the two
exact rankings, and both read one round-off slack, :func:`_slack`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateIdError,
    EmptyDatabaseError,
    NonFiniteError,
    OrbitDistError,
    OutOfRangeError,
    UnknownIdError,
    _shown,
)
from .features import FULL, REDUCED, _check_map, _feature, _feature_distance, _feature_stack
from .linalg import _SQRT2, _blocks, _finite, _pow2_scale, _unscaled
from .metrics import GroupAction, _configuration, _procrustes

# Unit roundoffs of float32 and float64, and a bound on the absolute error
# of one float32 rounding or product near underflow (with gradual underflow
# or flush-to-zero alike).
_U32 = 2.0**-24
_U64 = 2.0**-53
_TINY32 = 2.0**-126
# The screen runs for scaled query features below this in every entry,
# which keeps every float32 value it computes finite.
_SCREEN_MAX = 2.0**100
# The largest finite float32.
_F32_MAX = (2.0 - 2.0**-23) * 2.0**127
# The screen's first threshold is the k-th value of every
# max(1, N // K)-th row, K = max(256, k): of K to 2K - 1 rows, or of all
# rows when N < 2K, so of at least k rows.
_SUBSAMPLE = 256
# The entries kept per record table of the nearest-record kernel (see
# _record_table).
_TABLE = 1 << 20


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n: the relative error bound of n roundings at unit
    roundoff u."""
    return n * u / (1.0 - n * u)


def _slack(n: int, l: int, norms):
    """The round-off slack ``delta = gamma_K(v) norms`` of both exact
    rankings, :func:`linear_scan_nearest` and :func:`_nearest_records`,
    for n x l configurations: ``K = 64 (n + 1)(l + 1)``, ``v = 2^-53``, and
    ``norms`` (a float, or one per query) at least the norm of a query's
    points plus the largest over the records.  It is absolute, and bounds
    each of two roundings, relative to the inputs' norms (not to d):

    - how far a computed distance ``d^`` lies from the true one d.  For
      the Procrustes kernel, ``d^ = |W^ A - B|``: centring under E and F
      errs by at most (l + 1) v per input, and d is 1-Lipschitz in each
      input.  W^ = V^ U^* is within a few n v of an orthogonal W, whose
      residual is at least d.  The product W^ A, the difference and the
      norm add at most ``(n^(3/2) + 2 n l + 2) v``.  The planar kernel
      :func:`experiments._plane_distances` errs by at most
      ``32 v (|a| + |b|)``, and a feature distance by at most about
      ``4 v (|a| + |b|)``;
    - how far the computed features of two configurations, together, lie
      from the exact ones.  Their coordinates (centring, Helmert) err by a
      few ``(l + 1) v``; LAPACK's SVD is backward stable within a small
      multiple of ``max(n, l) v``, which the Gram root, sqrt(2)-Lipschitz
      in Frobenius norm (Araki & Yamagami, 1981), carries over; forming
      ``V S V*`` from nearly orthonormal V, the flattening and the reduced
      projection add a few ``(n + l) v``.  For the closed-form triangle
      coordinates (:func:`triangles._triangle_coords`), whose norm is that
      of the centred triangle, at most the triangle's, the power-of-two
      scaling is exact; the edge matrix E is computed within 3v |x|
      (Cauchy-Schwarz bounds its three terms), which the root,
      sqrt(2)-Lipschitz in E, turns into 4.3v |x|; the products and sums
      err by a few v |E|^2 over a denominator t >= |E|, under 18v |x| for
      the three coordinates.  With the 4v of the feature distance, the
      triangle map's distance errs by at most ``27 v (|a| + |b|)``.

    Each is a small multiple of ``(n + 1)(l + 1) v norms``, well inside
    delta: at the triangle shape, 2 x 3, delta is 768v norms and the
    largest is 32v norms.  A larger slack only widens what a ranking
    solves, never its answer.
    """
    return _gamma(64 * (n + 1) * (l + 1), _U64) * norms


def _within(s: np.ndarray, bound: float) -> np.ndarray:
    """The mask of the screened values ``s~_i`` at most the float64
    ``bound``, compared at the least float32 at least ``bound`` (inf
    beyond float32), so that the rounding loses no row."""
    t = np.float32(np.inf) if bound > _F32_MAX else np.float32(bound)
    if float(t) < bound:
        t = np.nextafter(t, np.float32(np.inf))
    return s <= t


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
            x = _configuration(group, np.stack([m for _, m in records]), "records", stacked=True)
            if x.ndim == 3:
                return ids, rows, x
        except (OrbitDistError, ValueError):  # ValueError: np.stack of unequal shapes
            pass
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
    ``max |features|`` into [1/2, 1) (:func:`linalg._pow2_scale`), one
    read-only float32 array of shape ``(D + 1, N)``: the rows of ``g.T``,
    then the squared row norms ``|g_i|^2`` (summed in float64) as the last
    row, so the screen is one matrix-vector product.  A record whose
    feature overflows float64 is refused with :class:`NonFiniteError`.
    Afterwards the records and features are read-only, and the database
    keeps one memo of its last feature query (see :func:`verify`); it is
    safe to query from many threads.
    """

    def __init__(
        self,
        group: GroupAction,
        records: Sequence[tuple[str, np.ndarray]],
        feature_map: str = FULL,
    ):
        _check_map(feature_map)
        self.group = group
        self.feature_map = feature_map
        self.ids, self._rows, self.matrices = _stack_records(group, records)
        self.matrices.flags.writeable = False
        self.n, self.l = self.matrices.shape[1:]
        # entries per record: an l x l Gram root, or the row of l of the
        # reduced features at n = 1, which take no root
        width = self.l if feature_map == REDUCED and self.n == 1 else self.l * self.l
        blocks = _blocks(len(self.ids), width) if self.ids else []
        # each block's features are written into one array and measured
        # there, then scaled into the screen, so the build holds no second
        # copy of the features
        self.features, top, entry = np.zeros((0, 0)), 0.0, 0.0
        for r in blocks:
            f = _feature_stack(group, self.matrices[r], feature_map)
            if r.start == 0:
                self.features = np.empty((len(self), f.shape[1]), dtype=f.dtype)
            self.features[r] = f
            peak = float(np.abs(f).max(initial=0.0))  # nan if any entry is
            if not math.isfinite(peak):
                i = int(np.argmin(np.isfinite(f).all(axis=1)))
                _finite(f[i], f"record {self.ids[r.start + i]!r}")
            top = max(top, peak)
            entry = max(entry, float(np.abs(self.matrices[r]).max(initial=0.0)))
        self._scale = _pow2_scale(top)
        # sigma max |entry| sqrt(n l), at least sigma times the Frobenius
        # norm of every record, for the slack of linear_scan_nearest (an
        # overflow to inf only makes the scan solve every record)
        self._record_reach = self._scale * entry * math.sqrt(self.n * self.l)
        dim = self.features.shape[1]
        self._screen32 = np.empty((dim + 1, len(self)), dtype=np.float32)
        max_sq = 0.0
        for r in blocks:
            g = self._scale * self.features[r]
            sq_norms = np.add.reduce(g * g, axis=-1)
            self._screen32[:dim, r] = g.T
            self._screen32[dim, r] = sq_norms
            max_sq = max(max_sq, float(sq_norms.max(initial=0.0)))
        self._screen32.flags.writeable = False
        self._max_norm = math.sqrt(max_sq)
        # the terms of the screen's error bound, see feature_nearest
        self._error_terms = (
            _gamma(dim + 3, _U32),
            2.0 * _gamma(dim + 5, _U64),
            8.0 * (dim + 1) * _TINY32,
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
        """Feature of a query that :meth:`_check_query` returned;
        NonFiniteError when it overflows float64, as in
        :func:`feature_vector`."""
        return _feature(self.group, q, self.feature_map, "query")

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
        return _unscaled(_feature_distance(self.features[rows] * scale, qf * scale), scale)

    def _screened(self, qf: np.ndarray) -> tuple[np.ndarray, float] | None:
        """The float32 screened values ``s~`` of every row for the query
        feature ``qf``, and the float64 slack ``2 E'`` (see
        :func:`feature_nearest`); None when the screen cannot run, when an
        entry of ``sigma * qf`` is 2^100 or more in magnitude."""
        if float(np.abs(qf).max(initial=0.0)) * self._scale >= _SCREEN_MAX:
            return None
        h = self._scale * qf
        v = np.ones(len(h) + 1, dtype=np.float32)
        v[:-1] = -2.0 * h
        hn, m = math.sqrt(h @ h), self._max_norm
        c32, c64, c_tiny, c_sub = self._error_terms
        slack = 2.0 * (1.0 + 2.0**-20) * (
            c32 * m * (m + 2.0 * hn)
            + c64 * (m + hn) ** 2
            + c_tiny * (1.0 + hn)
            + c_sub * (m + hn + 1.0)
        )
        return v @ self._screen32, slack

    def _screen(self, qf: np.ndarray, k: int) -> np.ndarray:
        """Rows the float32 screen cannot rule out of the k feature-nearest
        (every row when ``k >= N`` or when the screen cannot run)."""
        screened = self._screened(qf) if k < len(self) else None
        if screened is None:
            return np.arange(len(self))
        s, slack = screened
        # the k-th of a subsample of at least k values bounds the k-th of
        # all rows from above
        sub = s[:: max(1, len(s) // max(_SUBSAMPLE, k))]
        rows = np.flatnonzero(_within(s, float(np.partition(sub, k - 1)[k - 1]) + slack))
        near = s[rows]
        return rows[_within(near, float(np.partition(near, k - 1)[k - 1]) + slack)]

    def _ball(self, q: np.ndarray, qf: np.ndarray) -> np.ndarray:
        """Rows that :func:`linear_scan_nearest` solves for the query ``q``
        of feature ``qf``: those the sandwich around a pivot cannot rule
        out, or every row when N = 1 or when the screen cannot run."""
        screened = self._screened(qf) if len(self) > 1 else None
        if screened is None:
            return np.arange(len(self))
        s, slack = screened
        p = int(np.argmin(s))
        dp = self._scale * float(_procrustes(self.group, q, self.matrices[p])[0])
        reach = self._scale * float(np.abs(q).max(initial=0.0)) * math.sqrt(self.n * self.l)
        delta = _slack(self.n, self.l, reach + self._record_reach)
        rho = (1.0 + 2.0**-20) * (_SQRT2 * (dp + delta) + delta)
        h = self._scale * qf
        return np.flatnonzero(_within(s, rho * rho - float(h @ h) + slack))

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


def _ranked(ids: list[str], d: np.ndarray, rows: np.ndarray, k: int) -> list[tuple[float, str, int]]:
    """The first k of ``(d_i, id, row)`` over the given rows, with ``d``
    their distances, in that order: the one (distance, id) rule of
    :func:`feature_nearest` and :func:`linear_scan_nearest`, ties at the
    k-th distance broken by id.  Only the rows within the k-th distance
    are sorted."""
    if len(rows) > k:
        keep = d <= np.partition(d, k - 1)[k - 1]
        rows, d = rows[keep], d[keep]
    rows = rows.tolist()
    return sorted(zip(d.tolist(), [ids[i] for i in rows], rows))[:k]


def linear_scan_nearest(db: ShapeDatabase, query) -> QueryResult:
    """Exact nearest orbit over every record; ties break on the
    lexicographically smallest id.

    The distances come from the stacked Procrustes kernel, one call per
    block of records, and equal :func:`orbit_distance` of each record.  The
    feature distance of the returned record has the bits that
    :func:`feature_nearest` reports for it.  The scan leaves the memo of
    :func:`verify` alone.  NonFiniteError when the query's feature
    overflows float64, with the message of :func:`feature_vector` for a
    query, or when the distance of a record it solves does.

    Only the records that the sqrt(2) sandwich cannot rule out are solved.
    Both feature maps satisfy ``|f(A) - f(B)| <= sqrt(2) d(A, B)`` (the
    reduced map projects the full one), so the feature distance bounds the
    orbit distance from below (the lower-bounding lemma of Faloutsos,
    Ranganathan & Manolopoulos, SIGMOD 1994).  One float32 screen of
    :func:`feature_nearest` gives ``s~_i`` for every row; its smallest row
    is the pivot p, solved first.  A record j ties or beats p only if
    ``d^_j <= d^_p`` for the computed distances, and then

        |f^_q - f^_j| <= sqrt(2) d_j + delta <= sqrt(2) (d^_p + delta) + delta = r.

    Here ``delta = _slack(n, l, Q + N)`` with ``Q = max |q| sqrt(n l) >=
    |q|`` and ``N`` the same bound over the records: it bounds how far a
    computed distance can fall below the true one, and how far the
    computed features of q and j, together, lie from the exact ones
    (:func:`_slack`).  With ``sigma``, ``h`` and
    ``E'`` of :func:`feature_nearest`, ``sigma^2 |f^_q - f^_j|^2 = s_j +
    |h|^2`` and ``s~_j <= s_j + E'``, so the ball is the rows with

        s~_i <= rho^2 - |h|^2 + 2 E',   rho = (1 + 2^-20) sigma r,

    all computed at sigma.  The factor ``1 + 2^-20`` covers the rounding of
    rho and rho^2, and the second E' that of ``|h|^2`` and of the sum;
    underflows fall far below E'.  A radius beyond float32 keeps every row.
    The ball holds p, and is solved in blocks, then ranked by ``(d^, id)``
    by :func:`_ranked`, the ranking of :func:`feature_nearest`.  When
    N = 1, or when the screen cannot run, the ball is every row.
    """
    q = db._check_query(query)
    qf = db._feature(q)
    rows = db._ball(q, qf)
    blocks = _blocks(len(rows), db.n * db.l)
    d = np.concatenate([_procrustes(db.group, q, db.matrices[rows[r]])[0] for r in blocks])
    dist, rid, i = _ranked(db.ids, d, rows, 1)[0]
    return QueryResult(
        id=rid,
        embedded_distance=float(db._distances(qf, [i])[0]),
        exact_orbit_distance=dist,
        approximation_bound=1.0,
    )


def _record_table(points, metric, db: np.ndarray, bound: np.ndarray):
    """``(order, table)``: for each record L of ``db``, its nearest records
    by their computed distance F^(L, j) under ``metric`` between their
    ``points``, ordered by (distance, index), and those distances, padded
    with inf to the widest row, then a last column of inf beyond every
    radius.  So a row ends at its first inf: every stored distance is
    finite, since the records are finite draws.

    ``bound[L]`` is the radius that L's queries are expected to reach.
    Built in blocks of rows (:func:`linalg._blocks`), N pairs per row; a
    block keeps ``min(N, max(2, _TABLE // N), need + 1)`` records per row,
    where ``need`` is the most records that a row of the block has within
    its bound.  So, up to the ceiling, every row holds a record beyond its
    bound or every record, and the table holds at most about ``_TABLE``
    entries; the blocks, kept until the widest is known, hold as many
    again.  The bound carries no exactness: :func:`_nearest_records`
    ranks every record for a query whose radius reaches the end of its
    row."""
    records = points(GroupAction.EUCLIDEAN, db)
    n = len(records)
    most = min(n, max(2, _TABLE // n))
    blocks = []
    for r in _blocks(n, n):
        d = metric(records[r, None], records)
        k = min(most, int((d <= bound[r, None]).sum(axis=1).max()) + 1)
        # the first k by (distance, index) without sorting whole rows;
        # where ties at the k-th distance fall changes no prefix narrower
        # than k, the only prefixes ranked
        part = np.argpartition(d, k - 1, axis=1)[:, :k]
        rank = np.lexsort((part, np.take_along_axis(d, part, axis=1)), axis=1)
        part = np.take_along_axis(part, rank, axis=1)
        blocks.append((r, part, np.take_along_axis(d, part, axis=1)))
    width = max(part.shape[1] for _, part, _ in blocks)
    order = np.zeros((n, width), dtype=np.intp)
    table = np.full((n, width + 1), np.inf)
    for r, part, dist in blocks:
        order[r, : part.shape[1]] = part
        table[r, : part.shape[1]] = dist
    return order, table


def _nearest_records(points, metric, stretch: float, index, db: np.ndarray):
    """``nearest(queries, labels)``: per query, the lowest-index argmin of
    the distance d, ``metric`` between ``points``, over every record of the
    ``(N, n, l)`` stack ``db``, with its own record ``labels[i]`` as the
    first candidate.  ``index`` is a :func:`_record_table` of a distance F
    with F <= s d, ``s = stretch``: d itself (s = 1), or for an exact
    distance the triangle embedding's (s = sqrt(2), the upper end of the
    sandwich), so that no table of exact distances is built.

    By the triangle inequality (Orchard, ICASSP 1991; the lower-bounding
    lemma of Faloutsos, Ranganathan & Manolopoulos, SIGMOD 1994) record j
    is no farther than L from a query q only if d(L, j) <= 2 d(q, L), and
    then F(L, j) <= 2s d(q, L).  So only the prefix of L's row within
    ``s (2 d^(q, L) + 3 delta)`` is ranked under d: none when it is L
    alone (F^(L, L) = 0), every record when it reaches the end of the row,
    its first inf, since a record past the row may lie inside the radius
    too; every stored distance and every radius is finite, since the
    records and the queries are finite draws.  A row holds one record
    beyond the bound on its queries' radii that sized it
    (:func:`_record_table`); that bound is never trusted, so a query past
    it costs a ranking against every record and misses none.

    The slack is ``delta = _slack(n, l, N_q + N)``, with N_q the norm of
    the query's points (the uncentred configuration or its feature) and N
    the largest record norm.  A computed distance errs by at most delta / 4
    and the table's F^ by under delta / 2 (:func:`_slack`):

    - so if d^(q, j) <= d^(q, L), then d(L, j) <= d(q, j) + d(q, L) <=
      2 d^(q, L) + delta / 2.  The radius reads d^(q, L) from another
      evaluation, at most delta / 2 away: one more delta.  So
      F(L, j) <= s d(L, j) <= s (2 d^(q, L) + 1.5 delta);
    - the radius's spare 1.5 delta, at least 1.5 delta once stretched
      (s >= 1), covers the table's rounding, under delta / 2, and with a
      delta to spare the radius's own rounding (a few v of it,
      v = 2^-53, under 10v (N_q + N)) and the at most 2^-530 that
      underflowing squares and products add to a distance when
      N_q + N > 2^-480, as for any draw of the experiments.

    So every record that ties or beats L is ranked.  Open queries are
    ranked by prefix width, in blocks (:func:`linalg._blocks`) of that many
    pairs per query; ``index`` is ``(order, table)``.
    """
    order, table = index
    records = points(GroupAction.EUCLIDEAN, db)
    n, k = order.shape
    norm = np.linalg.norm(records.reshape(n, -1), axis=1).max()

    def nearest(queries: np.ndarray, labels: np.ndarray) -> np.ndarray:
        q = points(GroupAction.EUCLIDEAN, queries)
        own = np.concatenate([metric(q[r], records[labels[r]]) for r in _blocks(len(q), 1)])
        slack = _slack(*db.shape[1:], np.linalg.norm(q.reshape(len(q), -1), axis=1) + norm)
        radius = stretch * (2.0 * own + 3.0 * slack)
        rows = np.flatnonzero(table[labels, 1] <= radius)
        near, reach = labels[rows], radius[rows, None]
        width = np.concatenate(
            [(table[near[r], :k] <= reach[r]).sum(axis=1) for r in _blocks(len(rows), k)]
        )
        width[np.isinf(table[near, width])] = n  # to a row's end: every record
        pred = labels.copy()
        for w in sorted(set(width.tolist())):
            ranked = rows[width == w]
            for s in _blocks(len(ranked), w):
                r = ranked[s]
                ids = np.arange(n)[None] if w == n else order[labels[r], :w]
                d = metric(q[r, None], records[ids])
                pred[r] = np.where(d == d.min(axis=1, keepdims=True), ids, n).min(axis=1)
        return pred

    return nearest


def feature_nearest(db: ShapeDatabase, query, k: int = 1) -> list[QueryResult]:
    """The k nearest records by feature distance, exactly.

    Results come back sorted by (feature distance, id): they are the first
    k of that order over every record, ties at the k-th place included,
    and each distance has the bits :func:`linear_scan_nearest` reports.
    :func:`_ranked` holds that (distance, id) rule for both.  With full
    features the top result's orbit distance is certified within sqrt(2)
    of the true nearest orbit.  ``k`` must be an integer >= 1
    (OutOfRangeError otherwise); a query whose feature overflows float64
    is refused with the NonFiniteError of :func:`feature_vector`.  The
    call replaces the database's memo of its last feature query, which
    :func:`verify` reads.

    The search screens every record in float32, then computes the float64
    distance ``d^_i`` of the few it cannot rule out.  With the database's
    ``g_i = sigma * features[i]`` (every entry below 1 in magnitude) and
    ``h = sigma * q`` for the query feature q, the squared distance is
    ``|g_i - h|^2 = s_i + |h|^2`` with ``s_i = |g_i|^2 - 2 g_i.h``, and the
    screen computes

        s~_i = fl32(g_i).fl32(-2h) + fl32(G_i) * 1,

    one float32 dot product of D + 1 terms per row, with ``G_i`` the
    ``|g_i|^2`` summed in float64: every row at once is one float32
    matrix-vector product of the stored ``(D + 1, N)`` array with
    ``[fl32(-2h), 1]``.  The float64 distances correspond to
    ``s^_i = sigma^2 d^_i^2 - |h|^2``.  With D the feature dimension,
    ``M = max |g_i|``, ``H = |h|``, ``gamma_n(u) = n u/(1 - n u)``, float32
    and float64 unit roundoffs ``u = 2^-24`` and ``v = 2^-53``, and
    ``eta = 2^-126``, every row satisfies ``|s~_i - s^_i| <= E'`` with

        E' = (1 + 2^-20) (gamma_{D+3}(u) (M^2 + 2 M H)
                          + 2 gamma_{D+5}(v) (M + H)^2
                          + 8 (D + 1) eta (1 + H) + sigma 2^-1074 (M + H + 1)).

    The terms, each bounding a part of ``|s~_i - s_i|`` or ``|s_i - s^_i|``:

    - float32 rounding of g, of -2h and of ``G_i``, and the (D + 1)-term
      float32 dot product: each term of the dot carries at most two input
      roundings, one product rounding and D roundings of the sum, whatever
      its order, so the dot is off by at most ``gamma_{D+3}(u)`` times the
      sum of its terms' magnitudes, ``2 sum_j |g_ij h_j| + G_i``, which is
      at most ``2 M H + M^2``.  The ``M^2`` part is the rounding of the
      folded norm: it dominates for a query near the origin;
    - float32 subnormals: each rounding of an entry and each product may
      be off by up to eta in absolute terms (gradual underflow or flush
      to zero), which with ``|g_ij| < 1`` adds at most ``3 D eta (1 + H)``
      over the D products of g and h and ``eta`` for ``fl32(G_i)``; the
      float64 underflows, far smaller, fit in the rest of
      ``8 (D + 1) eta (1 + H)``;
    - float64 rounding of ``G_i`` (``gamma_D(v) M^2``);
    - the float64 distances: ``|s^_i - s_i| <= gamma_{D+4}(v) (M + H)^2``,
      plus ``sigma 2^-1074 (M + H + 1)`` for a distance that lands among
      float64 subnormals;
    - the float64 rounding of each threshold below, of at most
      ``v (M^2 + 2 M H + 2 E')``; the factor ``1 + 2^-20`` covers the
      rounding of M, H and E' themselves.

    The candidates are the rows with ``s~_i <= s~_(k) + 2E'``, where
    ``s~_(k)`` is the k-th smallest screened value.  Order statistics move
    by at most E', so ``s^_(k) <= s~_(k) + E'``, and every row with
    ``d^_i <= d^_(k)`` has ``s~_i <= s^_i + E' <= s~_(k) + 2E'``: every
    true k-nearest record, and every record tied with the k-th, is a
    candidate, and ranking the candidates by ``(d^_i, id)`` gives the
    exact answer.

    ``s~_(k)`` is found without a partition of all N values.  The strided
    subsample ``s~[::max(1, N // max(256, k))]`` holds at least k values,
    and its k-th smallest value t is at least ``s~_(k)``, so the rows with
    ``s~_i <= t + 2E'`` hold the k smallest values and every candidate;
    ``s~_(k)`` is the k-th smallest value of those rows, and the
    candidates are the rows among them under its threshold, the rows a
    partition of all N values would keep.  Each threshold is rounded up to
    float32, so no value at or below it is lost to the rounding, and as
    every rounding is monotone the first threshold is never below the
    second.  The screen runs when every entry of h is below 2^100 in
    magnitude, which keeps every float32 product and sum finite for
    ``D < 2^26`` (a threshold beyond float32 keeps every row); otherwise,
    and when k is at least the number of records, every row is scored
    exactly.
    """
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise OutOfRangeError(f"k must be an integer >= 1, got {_shown(k)}")
    q = db._check_query(query)
    qf = db._feature(q)
    rows = db._screen(qf, k)
    best = _ranked(db.ids, db._distances(qf, rows), rows, k)
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


def _query_and_memo(db: ShapeDatabase, query) -> tuple[np.ndarray, _LastQuery | None]:
    """The validated query, and the database's memo of its last feature
    query when that query had the same values (else None).

    A query that ``np.asarray`` turns into an array with the dtype, the
    shape and the bytes of the memo's key is not checked again: the
    :func:`feature_nearest` call that wrote the memo validated those
    values.  The shape is compared because the bytes alone cannot tell a
    2×6 query from a 3×4 one.
    """
    memo = db._memo
    if memo is not None:
        try:
            q = np.asarray(query)
        except ValueError:  # ragged: the check below refuses it
            pass
        else:
            if q.shape == (db.n, db.l) and _key(q) == memo.key:
                return q, memo
    q = db._check_query(query)
    return q, memo if memo is not None and _key(q) == memo.key else None


def _memo_distance(db: ShapeDatabase, memo: _LastQuery | None, q: np.ndarray, i: int) -> float | None:
    """The exact orbit distance from ``q`` to row i, taken from ``memo``,
    the memo of ``q``, or None when the memo does not hold it.

    The first hit asked for solves every hit in one stacked call and
    stores their distances in a new memo.  A hit list with a distance
    beyond float64 is not stored, so each of its hits is solved on its
    own.
    """
    if memo is None or i not in memo.positions:
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

    The query is validated against the database, unless it has the
    values of the database's last :func:`feature_nearest` query, which
    that call validated; the record was validated when the database was
    built.  So the kernel runs on both directly and the distance equals
    :func:`orbit_distance`.  ``result.id`` is looked up on every call.

    When the query is the last feature query and ``result.id`` is one of
    its hits, the distance comes from that query's memo.  The first
    verify of any hit solves all k hits, in rank order, in one stacked
    Procrustes call, and the other hits then cost no kernel call.
    Stacked rows have the bits of single pairs.  Any other query or
    result is solved as one pair.
    """
    q, memo = _query_and_memo(db, query)
    i = db.index_of(result.id)
    d = _memo_distance(db, memo, q, i)
    if d is None:
        d = float(_procrustes(db.group, q, db.matrices[i])[0])
    return QueryResult(result.id, result.embedded_distance, d, result.approximation_bound)
