import pickle
import sys
import threading
import warnings
from dataclasses import asdict, fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitdist import (
    DuplicateIdError,
    EmptyDatabaseError,
    FeatureMapMismatchError,
    GroupAction,
    NonFiniteError,
    OutOfRangeError,
    QueryResult,
    ShapeDatabase,
    ShapeMismatchError,
    UnknownIdError,
    feature_nearest,
    feature_vector,
    linear_scan_nearest,
    orbit_distance,
    verify,
)
from orbitdist import linalg, search
from orbitdist.features import _feature_stack

from oracles import random_orthogonal, random_unitary, rotation2

SQRT2 = np.sqrt(2.0)


def triangle_db(rng, size, feature_map="full"):
    records = [(f"t{i:04d}", rng.standard_normal((2, 3))) for i in range(size)]
    return ShapeDatabase(GroupAction.EUCLIDEAN, records, feature_map)


class TestShapeDatabase:
    def test_features_recompute_to_stored_values(self, rng):
        db = triangle_db(rng, 20)
        for i, m in enumerate(db.matrices):
            fresh = feature_vector(db.group, m, db.feature_map)
            assert np.linalg.norm(fresh - db.features[i]) <= 1e-10

    def test_duplicate_ids_rejected(self, rng):
        records = [("a", rng.standard_normal((2, 3))), ("a", rng.standard_normal((2, 3)))]
        with pytest.raises(ValueError, match="duplicate"):
            ShapeDatabase(GroupAction.EUCLIDEAN, records)

    def test_mixed_shapes_rejected(self, rng):
        records = [("a", rng.standard_normal((2, 3))), ("b", rng.standard_normal((2, 4)))]
        with pytest.raises(ShapeMismatchError):
            ShapeDatabase(GroupAction.EUCLIDEAN, records)

    def test_unknown_feature_map_rejected(self, rng):
        with pytest.raises(FeatureMapMismatchError):
            ShapeDatabase(GroupAction.EUCLIDEAN, [], feature_map="fancy")

    def test_reduced_feature_map(self, rng):
        records = [(f"r{i}", rng.standard_normal((1, 4))) for i in range(10)]
        db = ShapeDatabase(GroupAction.ORTHOGONAL, records, feature_map="reduced")
        assert db.features.shape == (10, 7)  # n(2l - 2n + 1) = 1 * 7
        res = feature_nearest(db, db.matrices[3])[0]
        assert res.id == "r3"
        assert res.approximation_bound == np.inf


def group_db(rng, group, size, n=2, l=4, feature_map="full"):
    records = []
    for i in range(size):
        m = rng.standard_normal((n, l))
        if group.is_complex:
            m = m + 1j * rng.standard_normal((n, l))
        records.append((f"r{i:04d}", m))
    return ShapeDatabase(group, records, feature_map)


def spy_block_sizes(monkeypatch) -> list[int]:
    """The number of records of each stack the database build passes to
    ``_feature_stack``, in order."""
    sizes = []

    def spy(group, x, feature_map):
        sizes.append(len(x))
        return _feature_stack(group, x, feature_map)

    monkeypatch.setattr(search, "_feature_stack", spy)
    return sizes


def scan_oracle(db, query):
    """The exact scan as a plain loop over the scalar API: (d, id) minimum."""
    return min((orbit_distance(db.group, query, m)[0], rid) for rid, m in zip(db.ids, db.matrices))


class TestStackedBuild:
    @pytest.mark.parametrize(
        "group,n,l,feature_map",
        [
            (GroupAction.ORTHOGONAL, 2, 4, "full"),
            (GroupAction.EUCLIDEAN, 2, 5, "full"),
            (GroupAction.EUCLIDEAN, 2, 3, "full"),
            (GroupAction.UNITARY, 2, 3, "full"),
            (GroupAction.COMPLEX_EUCLIDEAN, 2, 4, "full"),
            (GroupAction.ORTHOGONAL, 1, 5, "reduced"),
            (GroupAction.EUCLIDEAN, 1, 6, "reduced"),
            (GroupAction.UNITARY, 1, 4, "reduced"),
            (GroupAction.COMPLEX_EUCLIDEAN, 1, 5, "reduced"),
        ],
    )
    def test_features_match_feature_vector(self, rng, monkeypatch, group, n, l, feature_map):
        # the build runs in blocks of 8 records (of an l x l root each, or a
        # row of l for the reduced map at n = 1): the last holds one
        root = l if feature_map == "reduced" else l * l
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 8 * root)
        sizes = spy_block_sizes(monkeypatch)
        db = group_db(rng, group, 17, n, l, feature_map)
        assert sizes == [8, 8, 1]
        for m, f in zip(db.matrices, db.features):
            np.testing.assert_array_equal(f, feature_vector(group, m, feature_map))

    def test_degenerate_triangles_match_feature_vector(self):
        line = np.array([[0.0, 1.0, 3.0], [0.0, 2.0, 6.0]])
        records = [("line", line), ("point", np.ones((2, 3))), ("zero", np.zeros((2, 3)))]
        db = ShapeDatabase(GroupAction.EUCLIDEAN, records)
        for m, f in zip(db.matrices, db.features):
            np.testing.assert_allclose(f, feature_vector(db.group, m), rtol=0.0, atol=1e-12)

    def test_matrices_are_read_only(self, rng):
        db = triangle_db(rng, 4)
        assert db.matrices.shape == (4, 2, 3)
        with pytest.raises(ValueError):
            db.matrices[0, 0, 0] = 1.0

    def test_records_are_copied(self, rng):
        m = rng.standard_normal((2, 3))
        db = ShapeDatabase(GroupAction.EUCLIDEAN, [("a", m)])
        m[0, 0] += 1.0
        assert db.matrices[0, 0, 0] != m[0, 0]

    def test_complex_record_in_real_group_rejected(self, rng):
        records = [("a", rng.standard_normal((2, 3))), ("b", rng.standard_normal((2, 3)) + 1j)]
        with pytest.raises(ShapeMismatchError, match="'b'"):
            ShapeDatabase(GroupAction.EUCLIDEAN, records)

    def test_valid_records_are_checked_as_one_stack(self, rng, monkeypatch):
        calls, check = [], search._configuration

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return check(*args, **kwargs)

        monkeypatch.setattr(search, "_configuration", spy)
        db = group_db(rng, GroupAction.EUCLIDEAN, 50, 2, 5)
        assert len(db) == 50 and len(calls) == 1
        (group, stack, _), kwargs = calls[0]
        assert group is GroupAction.EUCLIDEAN and stack.shape == (50, 2, 5) and kwargs == {"stacked": True}

    @pytest.mark.parametrize(
        "bad, error",
        [
            (np.array([[0.0, np.nan, 1.0], [0.0, 0.0, 0.0]]), NonFiniteError),
            (np.array([[0.0, 1.0, np.inf], [0.0, 0.0, 0.0]]), NonFiniteError),
            (np.zeros((1, 2, 3)), ShapeMismatchError),
            (np.zeros(3), ShapeMismatchError),
            (np.zeros((2, 4)), ShapeMismatchError),
        ],
        ids=["nan", "inf", "3-D", "1-D", "shape"],
    )
    def test_offending_record_is_named(self, rng, bad, error):
        records = [(f"r{i}", rng.standard_normal((2, 3))) for i in range(5)]
        records[3] = ("bad", bad)
        with pytest.raises(error, match="record 'bad'"):
            ShapeDatabase(GroupAction.EUCLIDEAN, records)

    def test_first_offending_record_wins(self, rng):
        # records are checked in order: a non-finite record before a
        # duplicate id is reported as non-finite, and the other way round
        a, b = rng.standard_normal((2, 3)), np.full((2, 3), np.nan)
        with pytest.raises(NonFiniteError, match="'x'"):
            ShapeDatabase(GroupAction.EUCLIDEAN, [("x", b), ("y", a), ("y", a)])
        with pytest.raises(DuplicateIdError):
            ShapeDatabase(GroupAction.EUCLIDEAN, [("y", a), ("y", a), ("x", b)])

    @pytest.mark.parametrize("size", [1, 3, 8, 11])
    @pytest.mark.parametrize("entries", [100, 40], ids=["build", "scan"])
    def test_block_boundaries(self, rng, monkeypatch, size, entries):
        # blocks of 4 records, of the build's 5 x 5 roots or of the scan's
        # 2 x 5 records: one record, fewer than a block, whole blocks, a
        # ragged tail.  The queries lie beyond the screen's range, so the
        # scan solves every record, block by block
        whole = group_db(np.random.default_rng(size), GroupAction.EUCLIDEAN, size, 2, 5)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", entries)
        blocked = group_db(np.random.default_rng(size), GroupAction.EUCLIDEAN, size, 2, 5)
        np.testing.assert_array_equal(blocked.features, whole.features)
        shapes = count_kernel_calls(monkeypatch)
        for _ in range(3):
            query = 1e32 * rng.standard_normal((2, 5))
            shapes.clear()
            res = linear_scan_nearest(blocked, query)
            assert [s[0] for s in shapes] == [len(range(size)[r]) for r in linalg._blocks(size, 10)]
            d, rid = scan_oracle(blocked, query)
            assert res.id == rid
            assert res.exact_orbit_distance == pytest.approx(d, rel=1e-12, abs=0.0)


class TestBlockRule:
    """The build and the scan take their blocks from ``linalg._blocks``: a
    block's working memory follows the records' shape, and no bit depends
    on the block."""

    def test_build_blocks_bound_the_roots(self, rng, monkeypatch):
        # a reduced O 2 x 128 record has a 128 x 128 Gram root, so a block
        # of the build holds at most _BLOCK_ENTRIES // 128**2 records
        l, sizes = 128, spy_block_sizes(monkeypatch)
        group_db(rng, GroupAction.ORTHOGONAL, 64, 2, l, "reduced")
        assert sum(sizes) == 64
        assert max(sizes) <= max(1, linalg._BLOCK_ENTRIES // l**2)

    @pytest.mark.parametrize("feature_map", ["full", "reduced"])
    @pytest.mark.parametrize("group", list(GroupAction))
    def test_bits_do_not_depend_on_the_block(self, monkeypatch, group, feature_map):
        # the default rule's one block against one record per block
        rng = np.random.default_rng(8)
        queries = [rng.standard_normal((2, 6)) for _ in range(4)]
        if group.is_complex:
            queries = [q + 1j * rng.standard_normal((2, 6)) for q in queries]
        runs = []
        for entries in (linalg._BLOCK_ENTRIES, 1):
            monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", entries)
            db = group_db(np.random.default_rng(7), group, 40, 2, 6, feature_map)
            hits = [linear_scan_nearest(db, q) for q in [*queries, db.matrices[5]]]
            runs.append(
                [db.features.tobytes(), db._screen32.tobytes(), db._scale, db._max_norm.hex()]
                + [(r.id, r.embedded_distance.hex(), r.exact_orbit_distance.hex()) for r in hits]
            )
        assert runs[0] == runs[1]


class TestLinearScan:
    def test_member_of_orbit_found_at_zero(self, rng):
        db = triangle_db(rng, 30)
        th = rng.uniform(0, 2 * np.pi)
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        query = r @ db.matrices[7] + rng.standard_normal(2)[:, None]
        res = linear_scan_nearest(db, query)
        assert res.id == "t0007"
        assert res.exact_orbit_distance == pytest.approx(0.0, abs=1e-10)
        assert res.approximation_bound == 1.0

    def test_matches_independent_rescan(self, rng):
        db = triangle_db(rng, 100)
        for _ in range(5):
            query = rng.standard_normal((2, 3))
            res = linear_scan_nearest(db, query)
            dists = [orbit_distance(db.group, query, m)[0] for m in db.matrices]
            assert res.id == db.ids[int(np.argmin(dists))]
            assert res.exact_orbit_distance == pytest.approx(min(dists), abs=1e-12)

    def test_singleton(self, rng):
        db = triangle_db(rng, 1)
        assert linear_scan_nearest(db, rng.standard_normal((2, 3))).id == "t0000"

    def test_tie_breaks_by_id(self, rng):
        t = rng.standard_normal((2, 3))
        db = ShapeDatabase(GroupAction.EUCLIDEAN, [("zz", t), ("aa", t.copy())])
        assert linear_scan_nearest(db, t).id == "aa"

    def test_empty_database(self, rng):
        db = ShapeDatabase(GroupAction.EUCLIDEAN, [])
        with pytest.raises(EmptyDatabaseError):
            linear_scan_nearest(db, rng.standard_normal((2, 3)))

    @pytest.mark.parametrize("group", list(GroupAction))
    def test_matches_scalar_loop_oracle(self, rng, group):
        db = group_db(rng, group, 60)
        for j in range(6):
            # even queries are a record reflected and shifted (in its orbit
            # under E and F, close to it under O and U), odd ones fresh
            query = group_db(rng, group, 1).matrices[0]
            if j % 2 == 0:
                query = db.matrices[int(rng.integers(len(db)))][::-1] + 0.5
            res = linear_scan_nearest(db, query)
            d, rid = scan_oracle(db, query)
            assert res.id == rid
            assert res.exact_orbit_distance == pytest.approx(d, rel=1e-12, abs=1e-15)

    def test_duplicates_at_any_position_tie_on_id(self, rng):
        t = rng.standard_normal((2, 3))
        others = [(f"m{i}", rng.standard_normal((2, 3))) for i in range(9)]
        records = [("zz", t)] + others[:5] + [("bb", t.copy())] + others[5:] + [("cc", t.copy())]
        db = ShapeDatabase(GroupAction.EUCLIDEAN, records)
        query = rotation2(0.7) @ t + 3.0
        res = linear_scan_nearest(db, query)
        assert res.id == "bb" == scan_oracle(db, query)[1]

    def test_lower_lipschitz_invariant(self, rng):
        # with full features the exact distance never exceeds the feature gap
        db = triangle_db(rng, 40)
        for _ in range(10):
            res = linear_scan_nearest(db, rng.standard_normal((2, 3)))
            assert res.exact_orbit_distance <= res.embedded_distance + 1e-9


# shapes each feature map accepts in the scan's cases; (2, 3) under E is the
# triangle map
SCAN_SHAPES = {"full": [(2, 3), (2, 4), (1, 5), (2, 6)], "reduced": [(1, 4), (1, 5), (2, 6)]}


def rigid_copy(rng, group, x):
    """``x`` moved along its orbit: a random rotation (unitary when the
    group is complex) and, under a translation quotient, a shift."""
    n = x.shape[0]
    y = (random_unitary if group.is_complex else random_orthogonal)(rng, n) @ x
    if group.quotients_translations:
        y = y + np.abs(x).max() * rng.standard_normal((n, 1))
    return y


@st.composite
def scan_cases(draw):
    """A database and a query for the exact scan: duplicates at any
    position, all records equal, a single record, records at scale 1e-200,
    1 or 1e200, and queries that are rigid copies of a record (d = 0),
    near one, fresh, or far beyond every record (up to beyond the screen's
    range)."""
    group = draw(st.sampled_from(list(GroupAction)))
    feature_map = draw(st.sampled_from(sorted(SCAN_SHAPES)))
    n, l = draw(st.sampled_from(SCAN_SHAPES[feature_map]))
    scale = draw(st.sampled_from([1e-200, 1.0, 1e200]))
    # triangle coordinates square the entries: 1e156 overflows float64
    triangle = group is GroupAction.EUCLIDEAN and (n, l) == (2, 3) and feature_map == "full"
    size = draw(st.integers(1, 40))
    same = draw(st.booleans())
    copies = draw(st.integers(0, size - 1))
    kind = draw(st.sampled_from(["rigid", "near", "fresh", "far"]))
    far = draw(st.sampled_from([1e3] if triangle and scale > 1.0 else [1e3, 1e40]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def draw_matrices(count):
        m = rng.standard_normal((count, n, l))
        return m + 1j * rng.standard_normal((count, n, l)) if group.is_complex else m

    x = draw_matrices(size)
    if same:
        x[:] = x[0]
    for _ in range(copies):
        x[rng.integers(size)] = x[rng.integers(size)]
    ids = [f"r{i:03d}" for i in rng.permutation(size)]
    db = ShapeDatabase(group, list(zip(ids, scale * x)), feature_map)
    query = {
        "rigid": lambda: rigid_copy(rng, group, x[rng.integers(size)]),
        "near": lambda: x[rng.integers(size)] + 1e-3 * draw_matrices(1)[0],
        "fresh": lambda: draw_matrices(1)[0],
        "far": lambda: far * draw_matrices(1)[0],
    }[kind]()
    return db, scale * query


class TestScanBall:
    """The scan solves only the records that the sqrt(2) sandwich around a
    pivot cannot rule out, and still returns the exact nearest."""

    @settings(max_examples=200, deadline=None)
    @given(scan_cases())
    def test_equals_the_scalar_loop_oracle(self, case):
        db, query = case
        res = linear_scan_nearest(db, query)
        assert (res.exact_orbit_distance, res.id) == scan_oracle(db, query)
        every = {r.id: r.embedded_distance for r in feature_nearest(db, query, k=len(db))}
        assert every[res.id].hex() == res.embedded_distance.hex()

    def test_planted_query_solves_few_records(self, rng, monkeypatch):
        db = group_db(rng, GroupAction.EUCLIDEAN, 2000, 2, 6)
        shapes = count_kernel_calls(monkeypatch)
        for j in range(10):
            query = rigid_copy(rng, db.group, db.matrices[j] + 0.05 * rng.standard_normal((2, 6)))
            shapes.clear()
            res = linear_scan_nearest(db, query)
            assert res.id == db.ids[j]
            assert sum(s[0] if len(s) == 3 else 1 for s in shapes) <= 20

    def test_query_beyond_the_screen_solves_every_record(self, rng, monkeypatch):
        db = group_db(rng, GroupAction.EUCLIDEAN, 2000, 2, 6)
        query = 1e32 * rng.standard_normal((2, 6))
        assert not db._screenable(db.query_feature(query))
        shapes = count_kernel_calls(monkeypatch)
        res = linear_scan_nearest(db, query)
        assert sum(s[0] for s in shapes) == len(db)
        assert (res.exact_orbit_distance, res.id) == scan_oracle(db, query)

    @pytest.mark.parametrize("verified", [False, True])
    def test_memo_is_left_alone(self, rng, verified):
        db = group_db(rng, GroupAction.EUCLIDEAN, 200, 2, 6)
        query = db.matrices[3] + 0.01
        hits = feature_nearest(db, query, k=3)
        if verified:
            verify(db, hits[0], query)
        memo = db._memo
        for q in (query, rng.standard_normal((2, 6)), 1e32 * rng.standard_normal((2, 6))):
            linear_scan_nearest(db, q)
            assert db._memo is memo

    def test_far_record_beyond_float64_is_not_solved(self):
        # "far" is 1.5e308 * sqrt(2) from the query, beyond float64; the
        # sandwich rules it out, so the scan does not solve it
        big = 1.5e308
        near, far = np.array([[big, 0.0, 0.0]]), np.array([[0.0, big, 0.0]])
        db = ShapeDatabase(GroupAction.ORTHOGONAL, [("near", near), ("far", far)])
        with pytest.raises(NonFiniteError):
            orbit_distance(db.group, near, far)
        res = linear_scan_nearest(db, near)
        assert (res.id, res.exact_orbit_distance, res.embedded_distance) == ("near", 0.0, 0.0)


class TestFeatureNearest:
    def test_exact_member(self, rng):
        db = triangle_db(rng, 25)
        res = feature_nearest(db, db.matrices[11])[0]
        assert res.id == "t0011"
        assert res.embedded_distance == pytest.approx(0.0, abs=1e-12)
        assert res.approximation_bound == pytest.approx(SQRT2)

    def test_matches_brute_force_feature_distances(self, rng):
        db = triangle_db(rng, 80)
        query = rng.standard_normal((2, 3))
        results = feature_nearest(db, query, k=80)
        qf = feature_vector(db.group, query)
        brute = sorted(
            (float(np.linalg.norm(qf - db.features[i])), db.ids[i]) for i in range(len(db))
        )
        assert [r.id for r in results] == [rid for _, rid in brute]
        gaps = [r.embedded_distance for r in results]
        assert gaps == sorted(gaps)

    def test_k_larger_than_database(self, rng):
        db = triangle_db(rng, 5)
        assert len(feature_nearest(db, rng.standard_normal((2, 3)), k=50)) == 5

    def test_k_must_be_positive(self, rng):
        db = triangle_db(rng, 5)
        with pytest.raises(OutOfRangeError):
            feature_nearest(db, rng.standard_normal((2, 3)), k=0)

    def test_certificate_against_linear_scan(self, rng):
        db = triangle_db(rng, 200)
        for _ in range(20):
            query = rng.standard_normal((2, 3))
            best_feature = feature_nearest(db, query)[0]
            truth = linear_scan_nearest(db, query)
            d_returned, _ = orbit_distance(db.group, query, db.matrices[db.index_of(best_feature.id)])
            assert d_returned <= SQRT2 * truth.exact_orbit_distance + 1e-9

    def test_empty_database(self, rng):
        db = ShapeDatabase(GroupAction.EUCLIDEAN, [])
        with pytest.raises(EmptyDatabaseError):
            feature_nearest(db, rng.standard_normal((2, 3)))

    def test_query_shape_mismatch(self, rng):
        db = triangle_db(rng, 3)
        with pytest.raises(ShapeMismatchError):
            feature_nearest(db, rng.standard_normal((2, 4)))

    def test_ties_at_k_break_by_id(self):
        # twelve copies of one record under shuffled ids, among other
        # records: the first three by (distance, id) are the three smallest
        # ids, not whichever copies an index happens to visit first
        rng = np.random.default_rng(1)
        t = rng.standard_normal((2, 3))
        ids = [f"d{i:02d}" for i in range(12)]
        rng.shuffle(ids)
        records = [(rid, t.copy()) for rid in ids]
        records += [(f"x{i:02d}", rng.standard_normal((2, 3))) for i in range(40)]
        records = [records[i] for i in rng.permutation(len(records))]
        db = ShapeDatabase(GroupAction.EUCLIDEAN, records)
        results = feature_nearest(db, t, k=3)
        assert [r.id for r in results] == ["d00", "d01", "d02"]
        assert [r.embedded_distance for r in results] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("group", list(GroupAction))
    def test_distance_bits_match_linear_scan(self, rng, group):
        db = group_db(rng, group, 50)
        for j in range(6):
            query = group_db(rng, group, 1).matrices[0]
            if j % 2 == 0:
                query = db.matrices[int(rng.integers(len(db)))] + 1e-3 * query
            scan = linear_scan_nearest(db, query)
            every = {r.id: r.embedded_distance for r in feature_nearest(db, query, k=len(db))}
            assert every[scan.id] == scan.embedded_distance
            top = feature_nearest(db, query, k=3)
            assert [every[r.id] for r in top] == [r.embedded_distance for r in top]


def top_k_oracle(db, query, k):
    """The first k of an exact (feature distance, id) sort over every row."""
    d = db._distances(db.query_feature(query), np.arange(len(db)))
    return sorted(zip(d.tolist(), db.ids))[:k]


# shapes each feature map accepts; (2, 3) under E is the triangle map
SCREEN_SHAPES = {"full": [(2, 3), (2, 4), (1, 5)], "reduced": [(1, 4), (1, 5)]}


@st.composite
def screen_cases(draw):
    """A database and a query: duplicate and nearly duplicate records,
    shuffled ids, k up to beyond the database size, records at scale
    1e-150, 1 or 1e150 and queries up to 1e6 times larger."""
    group = draw(st.sampled_from(list(GroupAction)))
    feature_map = draw(st.sampled_from(sorted(SCREEN_SHAPES)))
    n, l = draw(st.sampled_from(SCREEN_SHAPES[feature_map]))
    scale = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    # triangle coordinates square the entries: 1e156 overflows float64
    triangle = group is GroupAction.EUCLIDEAN and (n, l) == (2, 3)
    factor = draw(st.sampled_from([1.0] if triangle and scale > 1.0 else [1.0, 1e6]))
    size = draw(st.integers(1, 40))
    copies = draw(st.integers(0, size - 1))
    jitter = draw(st.sampled_from([0.0, 1e-9]))
    planted = draw(st.booleans())
    k = draw(st.integers(1, size + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def draw_matrices(count):
        m = rng.standard_normal((count, n, l))
        return m + 1j * rng.standard_normal((count, n, l)) if group.is_complex else m

    x = draw_matrices(size)
    for _ in range(copies):
        x[rng.integers(size)] = x[rng.integers(size)] * (1.0 + jitter * rng.standard_normal())
    ids = [f"r{i:03d}" for i in rng.permutation(size)]
    db = ShapeDatabase(group, list(zip(ids, scale * x)), feature_map)
    query = x[rng.integers(size)] if planted else draw_matrices(1)[0]
    return db, scale * factor * query, k


class TestExactScreen:
    @settings(max_examples=150, deadline=None)
    @given(screen_cases())
    def test_equals_exact_sort_over_all_rows(self, case):
        db, query, k = case
        got = [(r.embedded_distance, r.id) for r in feature_nearest(db, query, k)]
        assert got == top_k_oracle(db, query, k)

    @settings(max_examples=30, deadline=None)
    @given(screen_cases())
    def test_distances_match_numpy_norm(self, case):
        db, query, _ = case
        qf = db.query_feature(query)
        s = np.abs(qf).max() + np.abs(db.features).max()
        expected = s * np.linalg.norm((db.features - qf) / s, axis=1)
        got = db._distances(qf, np.arange(len(db)))
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "record_scale, query_scale",
        [(1.0, 1e40), (1e-300, 1e10), (1e200, 1e-200), (1e200, 1e206)],
        ids=["query-beyond-float32", "query-overflows-scaled", "query-underflows", "squares-overflow"],
    )
    def test_extreme_queries_scored_exactly_without_warnings(self, rng, record_scale, query_scale):
        records = [(f"r{i:02d}", record_scale * rng.standard_normal((2, 4))) for i in range(30)]
        db = ShapeDatabase(GroupAction.ORTHOGONAL, records)
        query = query_scale * rng.standard_normal((2, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [(r.embedded_distance, r.id) for r in feature_nearest(db, query, k=3)]
        assert got == top_k_oracle(db, query, 3)
        assert all(np.isfinite(d) for d, _ in got)

    def test_feature_distance_beyond_float64_is_inf_without_warning(self):
        # both features are finite, but their distance is not
        q = 8e307 * np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        far = 8e307 * np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 1.0, -1.0]])
        db = ShapeDatabase(GroupAction.ORTHOGONAL, [("far", far), ("near", q * 0.5)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [(r.id, r.embedded_distance) for r in feature_nearest(db, q, k=2)]
        assert [rid for rid, _ in got] == ["near", "far"] and got[1][1] == float("inf")
        # the Gram roots run at a power of two this close to the float64
        # limit, and the near distance is 8e307 to the round-off of a unit-scale one
        assert got[0][1] == pytest.approx(8e307, rel=4 * 2.0**-52, abs=0.0)

    def test_feature_distances_at_an_ordinary_scale_divide_plainly(self, rng, monkeypatch):
        # the scale is a Python float >= 2^-1000: the distances are divided
        # with a plain "/", entering no floating-point error state
        db = group_db(rng, GroupAction.EUCLIDEAN, 50, 2, 6)
        qf = db.query_feature(db.matrices[3] + 0.1)
        rows = np.arange(len(db))
        want = db._distances(qf, rows)

        def refuse(**kwargs):
            raise AssertionError("np.errstate entered")

        monkeypatch.setattr(np, "errstate", refuse)
        assert db._distances(qf, rows).tobytes() == want.tobytes()
        monkeypatch.undo()
        assert np.isfinite(want).all() and want[3] > 0.0

    def test_overflowing_features_refused(self, rng):
        # edges of length 3e308 give triangle coordinates beyond float64;
        # the map's own overflow warning is not under test here
        big = 1.5e308 * np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        db = triangle_db(rng, 5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="query"):
                feature_nearest(db, big)
            with pytest.raises(NonFiniteError, match="'huge'"):
                ShapeDatabase(GroupAction.EUCLIDEAN, [("fine", big / 1e308), ("huge", big)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feature_in_a_later_block(self, monkeypatch, rng, bad):
        # a nan feature must not pass the build's running maximum
        kernel = search._feature_stack

        def spoiled(group, x, feature_map):
            f = kernel(group, x, feature_map)
            f[(x[:, 0, 0] == 5.0).nonzero()] = bad
            return f

        monkeypatch.setattr(search, "_feature_stack", spoiled)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 2 * 9)  # two triangles per block
        records = [(f"t{i}", rng.standard_normal((2, 3))) for i in range(8)]
        records[5][1][0, 0] = 5.0
        with pytest.raises(NonFiniteError, match="'t5'"):
            ShapeDatabase(GroupAction.EUCLIDEAN, records)

    def test_screen_keeps_few_candidates(self, rng):
        db = group_db(rng, GroupAction.EUCLIDEAN, 2000, 2, 6)
        for j in range(10):
            query = db.matrices[j] + 0.05 * rng.standard_normal((2, 6))
            rows = db._screen(db.query_feature(query), 5)
            assert 5 <= len(rows) <= 20

    def test_screen_arrays_are_read_only(self, rng):
        db = triangle_db(rng, 4)
        # the rows of g.T, then |g_i|^2 as the last row: (D + 1, N)
        assert db._screen32.dtype == np.float32 and db._screen32.shape == (4, 4)
        g = db._scale * db.features
        assert np.array_equal(db._screen32[:3], g.T.astype(np.float32))
        assert np.array_equal(db._screen32[3], np.add.reduce(g * g, axis=-1).astype(np.float32))
        with pytest.raises(ValueError):
            db._screen32[0, 0] = 1.0
        with pytest.raises(ValueError):
            db._screen32[3, 0] = 1.0


def thin_shell_db(rng, size, scale, copies=8):
    """An O 2×4 database whose records all have feature norms in
    ``scale * [1, 1 + 2^-22)``, a few float32 ulps wide (under O the
    feature norm is the Frobenius norm), so that a query near the origin
    leaves the float32 screen with many near ties.  Rows 1 .. ``copies``
    of the subsample (``rows[::max(1, N // 256)]``) hold copies of row 0,
    and so do three rows off it; the ids are shuffled, so ties break at
    any position."""
    x = rng.standard_normal((size, 2, 4))
    radius = 1.0 + 2.0**-22 * rng.random(size)
    x *= (radius / np.linalg.norm(x, axis=(1, 2)))[:, None, None]
    stride = max(1, size // 256)
    x[stride : stride * (copies + 1) : stride] = x[0]
    x[[size - 1, size - 2, size - 3]] = x[0]
    ids = [f"r{i:04d}" for i in rng.permutation(size)]
    return ShapeDatabase(GroupAction.ORTHOGONAL, list(zip(ids, scale * x)))


def assert_screen_exact(db, query, k):
    """``feature_nearest`` is the exact top k, and the screen keeps every
    row whose float64 distance is at most the k-th."""
    got = [(r.embedded_distance, r.id) for r in feature_nearest(db, query, k)]
    assert got == top_k_oracle(db, query, k)
    qf = db.query_feature(query)
    d = db._distances(qf, np.arange(len(db)))
    kth = np.partition(d, k - 1)[k - 1]
    assert set(np.flatnonzero(d <= kth)) <= set(db._screen(qf, k).tolist())


class TestSubsampledScreen:
    """The screen's strided subsample at N > 256: duplicates on the
    subsample, float32 near ties, k at and beyond the subsample's size,
    and queries at the edge of the screen's range."""

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("size", [257, 512, 2000])
    def test_equals_exact_sort_over_all_rows(self, rng, size, scale):
        db = thin_shell_db(rng, size, scale)
        subsample = len(range(0, size, max(1, size // 256)))
        ks = [1, 5, 9, 12, subsample - 1]
        if subsample < size:
            ks += [subsample, subsample + 3]  # beyond the subsample: every row
        unit = rng.standard_normal((4, 2, 4))
        unit /= np.linalg.norm(unit, axis=(1, 2))[:, None, None]
        queries = [
            db.matrices[0] * (1.0 + 1e-9),  # at the copies of row 0
            scale * 2.0**-24 * unit[0],  # near the origin: near ties
            scale * 2.0**-20 * unit[1],
            scale * unit[2],
        ]
        for query in queries:
            for k in ks:
                assert_screen_exact(db, query, k)

    @pytest.mark.parametrize("spread", [0.0, 44.0])
    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    def test_screened_values_within_the_bound(self, rng, scale, spread):
        # |s~_i - s^_i| <= E' on every row, with s^_i = (sigma d^_i)^2 - |h|^2
        # in exact arithmetic; a spread of 44 decades puts some entries of
        # g among the float32 subnormals
        db = thin_shell_db(rng, 600, scale)
        x = db.matrices * 10.0 ** -rng.uniform(0.0, spread, (len(db), 1, 1))
        x[0] = db.matrices[0]
        db = ShapeDatabase(GroupAction.ORTHOGONAL, list(zip(db.ids, x)))
        unit = rng.standard_normal((2, 4))
        unit /= np.linalg.norm(unit)
        for query in (scale * 2.0**-24 * unit, x[0] * (1.0 + 1e-9), scale * unit, scale * 1e20 * unit):
            qf = db.query_feature(query)
            s, slack = db._screened(qf)
            d = db._distances(qf, np.arange(len(db)))
            sigma = Fraction(db._scale)
            hh = sum(Fraction(v) ** 2 for v in (db._scale * qf).tolist())
            worst = max(
                abs(Fraction(si) - (sigma * Fraction(di)) ** 2 + hh)
                for si, di in zip(s.tolist(), d.tolist())
            )
            assert worst <= Fraction(slack) / 2

    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("edge", [0.5, 0.99, 1.01])
    def test_queries_near_the_screen_limit(self, rng, scale, edge):
        db = thin_shell_db(rng, 2000, scale)
        for _ in range(3):
            q = rng.standard_normal((2, 4))
            # the feature is homogeneous: max |sigma q_f| lands at edge * 2^100,
            # so the screen runs below 1 and every row is scored above it
            q *= edge * search._SCREEN_MAX / (db._scale * np.abs(db.query_feature(q)).max())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for k in (1, 5, 300):
                    assert_screen_exact(db, q, k)


class TestVerify:
    def test_fills_exact_distance_within_sandwich(self, rng):
        db = triangle_db(rng, 50)
        for _ in range(10):
            query = rng.standard_normal((2, 3))
            res = feature_nearest(db, query)[0]
            assert res.exact_orbit_distance is None
            res = verify(db, res, query)
            assert res.exact_orbit_distance is not None
            assert res.exact_orbit_distance <= res.embedded_distance + 1e-9
            assert res.exact_orbit_distance >= res.embedded_distance / SQRT2 - 1e-9

    def test_identical_matrices_verify_to_zero(self, rng):
        db = triangle_db(rng, 10)
        res = verify(db, feature_nearest(db, db.matrices[4])[0], db.matrices[4])
        assert res.exact_orbit_distance == pytest.approx(0.0, abs=1e-10)

    def test_unknown_id(self, rng):
        db = triangle_db(rng, 3)
        res = feature_nearest(db, rng.standard_normal((2, 3)))[0]
        from dataclasses import replace

        with pytest.raises(UnknownIdError):
            verify(db, replace(res, id="missing"), rng.standard_normal((2, 3)))

    def test_perturbed_query_lower_bound(self, rng):
        db = triangle_db(rng, 30)
        query = db.matrices[2] + 0.05 * rng.standard_normal((2, 3))
        res = verify(db, feature_nearest(db, query)[0], query)
        assert res.exact_orbit_distance <= res.embedded_distance + 1e-9

    @pytest.mark.parametrize("group", list(GroupAction))
    def test_equals_orbit_distance_bit_for_bit(self, rng, group):
        db = group_db(rng, group, 40)
        for j in range(8):
            query = group_db(rng, group, 1).matrices[0]
            if j % 2 == 0:
                query = db.matrices[int(rng.integers(len(db)))][::-1] + 0.5
            if j == 1:
                query = query.real  # a real query in a complex group too
            for res in feature_nearest(db, query, k=3):
                d = verify(db, res, query).exact_orbit_distance
                assert d == orbit_distance(group, query, db.matrices[db.index_of(res.id)])[0]

    @pytest.mark.parametrize("group", [GroupAction.ORTHOGONAL, GroupAction.EUCLIDEAN])
    def test_query_errors(self, rng, group):
        db = group_db(rng, group, 5)
        res = feature_nearest(db, db.matrices[0])[0]
        with pytest.raises(ShapeMismatchError):
            verify(db, res, rng.standard_normal((2, 5)))
        with pytest.raises(ShapeMismatchError):
            verify(db, res, db.matrices[0] + 1j)

    def test_empty_database(self, rng):
        db = group_db(rng, GroupAction.EUCLIDEAN, 3)
        res = feature_nearest(db, db.matrices[0])[0]
        with pytest.raises(EmptyDatabaseError):
            verify(ShapeDatabase(GroupAction.EUCLIDEAN, []), res, db.matrices[0])


# every group under both maps: (group, n, l, feature_map)
MEMO_CASES = [(group, 2, 4, "full") for group in GroupAction] + [
    (group, 1, 5, "reduced") for group in GroupAction
]


def memo_case(rng, group, n, l, feature_map, size=60):
    db = group_db(rng, group, size, n, l, feature_map)

    def query():
        m = rng.standard_normal((n, l))
        return m + 1j * rng.standard_normal((n, l)) if group.is_complex else m

    return db, query


def assert_verified_exactly(db, result, query):
    """``verify`` fills in the bits of ``orbit_distance`` and changes
    nothing else."""
    got = verify(db, result, query)
    want = orbit_distance(db.group, query, db.matrices[db.index_of(result.id)])[0]
    assert got.exact_orbit_distance.hex() == want.hex()
    assert replace(got, exact_orbit_distance=result.exact_orbit_distance) == result


def count_kernel_calls(monkeypatch):
    """The record-stack shapes of every ``_procrustes`` call in search."""
    shapes = []
    kernel = search._procrustes

    def counted(group, a, b):
        shapes.append(b.shape)
        return kernel(group, a, b)

    monkeypatch.setattr(search, "_procrustes", counted)
    return shapes


@pytest.mark.parametrize("group, n, l, feature_map", MEMO_CASES)
class TestVerifyMemo:
    def test_hits_of_the_last_query(self, rng, group, n, l, feature_map):
        db, query = memo_case(rng, group, n, l, feature_map)
        for q in (query(), query().real, db.matrices[7] + 0.01 * query()):
            for res in feature_nearest(db, q, k=5):
                assert_verified_exactly(db, res, q)

    def test_first_verify_solves_every_hit(self, rng, monkeypatch, group, n, l, feature_map):
        db, query = memo_case(rng, group, n, l, feature_map)
        q = query()
        hits = feature_nearest(db, q, k=24)
        shapes = count_kernel_calls(monkeypatch)
        verify(db, hits[17], q)
        assert shapes == [(24, n, l)]
        for res in hits:
            assert_verified_exactly(db, res, q)
        assert shapes == [(24, n, l)]

    def test_query_mutated_in_place(self, rng, group, n, l, feature_map):
        db, query = memo_case(rng, group, n, l, feature_map)
        q = query()
        hits = feature_nearest(db, q, k=5)
        q[0, 0] += 0.25
        for res in hits:
            assert_verified_exactly(db, res, q)

    def test_another_query_in_between(self, rng, group, n, l, feature_map):
        db, query = memo_case(rng, group, n, l, feature_map)
        q1, q2 = query(), query()
        first = feature_nearest(db, q1, k=5)
        second = feature_nearest(db, q2, k=5)
        for res in first:
            assert_verified_exactly(db, res, q1)
        for res in second:
            assert_verified_exactly(db, res, q2)

    def test_hand_built_and_replaced_results(self, rng, group, n, l, feature_map):
        db, query = memo_case(rng, group, n, l, feature_map)
        q = query()
        hits = feature_nearest(db, q, k=5)
        other = next(rid for rid in db.ids if rid not in {h.id for h in hits})
        for rid in (hits[2].id, other):
            assert_verified_exactly(db, QueryResult(rid, 0.0, None, 1.0), q)
            assert_verified_exactly(db, replace(hits[0], id=rid), q)
        with pytest.raises(UnknownIdError):
            verify(db, replace(hits[0], id="missing"), q)

    def test_result_of_another_database(self, rng, group, n, l, feature_map):
        db, query = memo_case(rng, group, n, l, feature_map)
        twin = group_db(rng, group, len(db), n, l, feature_map)
        assert twin.ids == db.ids
        q = query()
        hits = feature_nearest(db, q, k=5)
        for res in hits:
            assert_verified_exactly(twin, res, q)
        feature_nearest(twin, q, k=5)  # the twin's own memo, same query and ids
        for res in hits:
            assert_verified_exactly(twin, res, q)
            assert_verified_exactly(db, res, q)

    def test_threads_interleaving_queries(self, rng, group, n, l, feature_map):
        db, query = memo_case(rng, group, n, l, feature_map)
        queries = [[query() for _ in range(6)] for _ in range(4)]
        barrier = threading.Barrier(len(queries))
        failures = []

        def work(mine):
            barrier.wait()
            for _ in range(4):
                for q in mine:
                    for res in feature_nearest(db, q, k=5):
                        try:
                            assert_verified_exactly(db, res, q)
                        except AssertionError as exc:
                            failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(mine,)) for mine in queries]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert not failures


def count_query_checks(monkeypatch):
    """The queries of every ``ShapeDatabase._check_query`` call."""
    calls = []
    check = ShapeDatabase._check_query

    def counted(db, query):
        calls.append(query)
        return check(db, query)

    monkeypatch.setattr(ShapeDatabase, "_check_query", counted)
    return calls


@pytest.mark.parametrize("group, n, l, feature_map", MEMO_CASES)
class TestVerifyMemoHitsSkipTheCheck:
    def test_feature_query_and_its_verifies_check_once(self, rng, monkeypatch, group, n, l, feature_map):
        db, query = memo_case(rng, group, n, l, feature_map)
        q = query()
        calls = count_query_checks(monkeypatch)
        for res in feature_nearest(db, q, k=5):
            assert_verified_exactly(db, res, q)
        assert len(calls) == 1

    def test_same_values_in_other_forms(self, rng, monkeypatch, group, n, l, feature_map):
        db, query = memo_case(rng, group, n, l, feature_map)
        # float32-exact values with one zero: a float32 copy and a signed
        # zero change the bytes, and the float32 copy checks to q itself
        single = np.complex64 if group.is_complex else np.float32
        q = query()
        q = q.astype(single).astype(q.dtype)
        q[0, 1] = 0.0
        signed = q.copy()
        signed[0, 1] = -0.0
        forms = [
            (q.tolist(), 0),
            (np.ascontiguousarray(q.T).T, 0),  # a non-contiguous view
            (q.astype(single), 1),  # checked
            (signed, 1),  # checked
        ]
        if not group.is_complex:
            forms.append((q.view(np.int64), 1))  # the bytes of q as other values
        for form, checks in forms:
            hits = feature_nearest(db, q, k=5)
            calls = count_query_checks(monkeypatch)
            for res in hits:
                assert_verified_exactly(db, res, form)
            assert len(calls) == checks * len(hits)
            monkeypatch.undo()

    def test_errors_right_after_a_feature_query(self, rng, group, n, l, feature_map):
        db, query = memo_case(rng, group, n, l, feature_map)
        q = query()
        hits = feature_nearest(db, q, k=5)
        bad = q.copy()
        bad[-1, 2] = np.nan
        with pytest.raises(NonFiniteError):
            verify(db, hits[0], bad)
        with pytest.raises(ShapeMismatchError):
            verify(db, hits[0], q.reshape(l, n))  # the bytes of q, another shape
        with pytest.raises(UnknownIdError):
            verify(db, replace(hits[0], id="missing"), q)
        assert_verified_exactly(db, hits[0], q)


class TestVerifyKernelCalls:
    def test_one_stacked_call_verifies_k_hits(self, rng, monkeypatch):
        db = group_db(rng, GroupAction.EUCLIDEAN, 60, 2, 6)
        q = rng.standard_normal((2, 6))
        shapes = count_kernel_calls(monkeypatch)
        hits = [verify(db, res, q) for res in feature_nearest(db, q, k=5)]
        assert shapes == [(5, 2, 6)]
        assert all(res.exact_orbit_distance is not None for res in hits)

    def test_non_hit_is_one_pair(self, rng, monkeypatch):
        db = group_db(rng, GroupAction.EUCLIDEAN, 60, 2, 6)
        q = rng.standard_normal((2, 6))
        hits = feature_nearest(db, q, k=5)
        other = next(rid for rid in db.ids if rid not in {h.id for h in hits})
        shapes = count_kernel_calls(monkeypatch)
        verify(db, replace(hits[0], id=other), q)
        assert shapes == [(2, 6)]

    def test_group_beyond_float64_solves_each_hit(self, rng, monkeypatch):
        # one record is so far from the query that its distance overflows,
        # while its feature does not: the other hits still verify
        q = 8e307 * np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        far = 8e307 * np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -1.0, 1.0, -1.0]])
        records = [("far", far), ("near", q * 0.5), ("nearer", q * 0.75)]
        db = ShapeDatabase(GroupAction.ORTHOGONAL, records)
        hits = feature_nearest(db, q, k=3)
        assert [h.id for h in hits] == ["nearer", "near", "far"]
        shapes = count_kernel_calls(monkeypatch)
        for res in hits[:2]:
            assert_verified_exactly(db, res, q)
        with pytest.raises(NonFiniteError):
            verify(db, hits[2], q)
        assert shapes == [(3, 2, 4), (2, 4)] * 3


class TestQueryResultValue:
    def test_verified_result_is_a_plain_value(self, rng):
        db = triangle_db(rng, 30)
        q = rng.standard_normal((2, 3))
        res = verify(db, feature_nearest(db, q, k=3)[1], q)
        same = QueryResult(res.id, res.embedded_distance, res.exact_orbit_distance, res.approximation_bound)
        assert res == same and hash(res) == hash(same) and repr(res) == repr(same)
        assert [f.name for f in fields(QueryResult)] == [
            "id", "embedded_distance", "exact_orbit_distance", "approximation_bound"
        ]
        assert asdict(res) == {
            "id": res.id,
            "embedded_distance": res.embedded_distance,
            "exact_orbit_distance": res.exact_orbit_distance,
            "approximation_bound": res.approximation_bound,
        }
        assert repr(res) == (
            f"QueryResult(id={res.id!r}, embedded_distance={res.embedded_distance!r}, "
            f"exact_orbit_distance={res.exact_orbit_distance!r}, "
            f"approximation_bound={res.approximation_bound!r})"
        )
        data = pickle.dumps(res)
        assert pickle.loads(data) == res
        assert data == pickle.dumps(same)


class TestKValidation:
    @pytest.mark.parametrize("k", [0, -1, 2.5, 3.0, "3", True, np.bool_(True), None])
    def test_non_integer_or_small_k_refused(self, rng, k):
        db = triangle_db(rng, 5)
        with pytest.raises(OutOfRangeError, match="k must be an integer >= 1"):
            feature_nearest(db, rng.standard_normal((2, 3)), k=k)

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integers_accepted(self, rng, k):
        db = triangle_db(rng, 5)
        q = rng.standard_normal((2, 3))
        assert feature_nearest(db, q, k=k) == feature_nearest(db, q, k=2)
