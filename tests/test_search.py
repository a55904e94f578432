import numpy as np
import pytest

from orbitdist import (
    EmptyDatabaseError,
    FeatureMapMismatchError,
    GroupAction,
    OutOfRangeError,
    ShapeDatabase,
    ShapeMismatchError,
    UnknownIdError,
    feature_nearest,
    feature_vector,
    linear_scan_nearest,
    orbit_distance,
    verify,
)

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

    def test_lower_lipschitz_invariant(self, rng):
        # with full features the exact distance never exceeds the feature gap
        db = triangle_db(rng, 40)
        for _ in range(10):
            res = linear_scan_nearest(db, rng.standard_normal((2, 3)))
            assert res.exact_orbit_distance <= res.embedded_distance + 1e-9


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
