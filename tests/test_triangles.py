import warnings

import mpmath
import numpy as np
import pytest

from orbitdist import (
    GroupAction,
    NonFiniteError,
    OutOfRangeError,
    ShapeMismatchError,
    dist_euclidean,
    embedding_for,
    feature_vector,
    side_lengths,
    side_lengths_counterexample,
    triangle_embedding,
    triangle_from_coords,
)
from orbitdist.triangles import _side_lengths, _triangle_coords

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)
SQRT6 = np.sqrt(6.0)

FLAT = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0]])


def perturbed_flat(eps):
    return np.array([[1.0, 0.0, -1.0], [-eps, 2 * eps, -eps]])


def random_triangles(rng, count):
    return rng.standard_normal((count, 2, 3))


class TestSideLengths:
    def test_flat_triangle(self):
        np.testing.assert_allclose(side_lengths(FLAT), [1.0, 2.0, 1.0])

    def test_perturbed_flat_triangle(self):
        eps = 0.01
        s = np.sqrt(1 + 9 * eps**2)
        np.testing.assert_allclose(side_lengths(perturbed_flat(eps)), [s, 2.0, s])

    def test_coincident_vertices(self):
        t = np.ones((2, 3))
        np.testing.assert_allclose(side_lengths(t), [0.0, 0.0, 0.0])

    def test_rigid_motion_invariance(self, rng):
        t = random_triangles(rng, 1)[0]
        th = rng.uniform(0, 2 * np.pi)
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        moved = r @ t + rng.standard_normal(2)[:, None]
        np.testing.assert_allclose(side_lengths(moved), side_lengths(t), atol=1e-12)

    def test_cyclic_relabeling_cycles_lengths(self, rng):
        t = random_triangles(rng, 1)[0]
        relabeled = t[:, [1, 2, 0]]
        np.testing.assert_allclose(side_lengths(relabeled), np.roll(side_lengths(t), -1))

    def test_upper_lipschitz_sqrt3(self, rng):
        for _ in range(500):
            a, b = random_triangles(rng, 2)
            d, _ = dist_euclidean(a, b)
            gap = np.linalg.norm(side_lengths(a) - side_lengths(b))
            assert gap <= SQRT3 * d + 1e-9

    def test_rejects_wrong_shape(self, rng):
        with pytest.raises(ShapeMismatchError):
            side_lengths(rng.standard_normal((3, 3)))


class TestTriangleEmbedding:
    @pytest.mark.parametrize("s", [1.0, 0.5, 7.25])
    def test_equilateral(self, s):
        # equilateral: the edge Gram is (s^2/2) I, its root (s/sqrt 2) I,
        # so the coordinates collapse to (0, 0, s)
        t = s * np.array([[0.0, 1.0, 0.5], [0.0, 0.0, np.sqrt(3) / 2]])
        np.testing.assert_allclose(triangle_embedding(t), [0.0, 0.0, s], atol=1e-12)

    def test_coincident_points(self):
        np.testing.assert_allclose(triangle_embedding(np.ones((2, 3))), np.zeros(3))

    def test_cone_invariants(self, rng):
        for t in random_triangles(rng, 300):
            p, q, z = triangle_embedding(t)
            assert z >= -1e-12
            assert p * p + q * q <= z * z * (1 + 1e-10) + 1e-12

    def test_distance_identity_with_euclidean_feature(self, rng):
        # same pairwise distances as the general centered-Gram-root feature
        for _ in range(200):
            a, b = random_triangles(rng, 2)
            lhs = np.linalg.norm(triangle_embedding(a) - triangle_embedding(b))
            _, va = embedding_for(GroupAction.EUCLIDEAN, a)
            _, vb = embedding_for(GroupAction.EUCLIDEAN, b)
            assert lhs == pytest.approx(np.linalg.norm(va - vb), abs=1e-10)

    def test_sandwich(self, rng):
        for _ in range(500):
            a, b = random_triangles(rng, 2)
            d, _ = dist_euclidean(a, b)
            gap = np.linalg.norm(triangle_embedding(a) - triangle_embedding(b))
            assert d - 1e-9 <= gap <= SQRT2 * d + 1e-9

    def test_rigid_motion_invariance(self, rng):
        t = random_triangles(rng, 1)[0]
        moved = np.array([[0.0, -1.0], [1.0, 0.0]]) @ t + np.array([3.0, -2.0])[:, None]
        np.testing.assert_allclose(triangle_embedding(moved), triangle_embedding(t), atol=1e-10)


class TestStackedKernels:
    """A stack goes through the same kernel as a single triangle."""

    def test_stack_side_lengths(self, rng):
        x = random_triangles(rng, 32)
        batch = _side_lengths(x)
        for i in range(32):
            np.testing.assert_array_equal(batch[i], side_lengths(x[i]))

    def test_stack_triangle_coords(self, rng):
        x = random_triangles(rng, 32)
        batch = _triangle_coords(x)
        for i in range(32):
            np.testing.assert_array_equal(batch[i], triangle_embedding(x[i]))

    def test_stack_triangle_coords_degenerate(self):
        x = np.stack([np.ones((2, 3)), np.zeros((2, 3))])
        np.testing.assert_array_equal(_triangle_coords(x), np.zeros((2, 3)))


class TestExtremeScales:
    """Each triangle is scaled by a power of two before its edges are
    squared, so no scale whose results are representable overflows or
    underflows."""

    @pytest.mark.parametrize("k", [600, 1000, -600, -1000])
    def test_power_of_two_scale_is_exact(self, rng, k):
        x = random_triangles(rng, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coords, sides = _triangle_coords(np.ldexp(x, k)), _side_lengths(np.ldexp(x, k))
        np.testing.assert_array_equal(coords, np.ldexp(_triangle_coords(x), k))
        np.testing.assert_array_equal(sides, np.ldexp(_side_lengths(x), k))

    def test_1e156_triangle(self, rng):
        t = rng.standard_normal((2, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coords, sides = triangle_embedding(1e156 * t), side_lengths(1e156 * t)
        np.testing.assert_allclose(coords, 1e156 * triangle_embedding(t), rtol=1e-14)
        np.testing.assert_allclose(sides, 1e156 * side_lengths(t), rtol=1e-14)

    def test_features_beyond_float64_refused(self):
        # edges of 3e308 give side lengths and coordinates beyond float64
        t = 1.5e308 * np.array([[-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for feature in (triangle_embedding, side_lengths):
                with pytest.raises(NonFiniteError, match="^triangle has a feature too large"):
                    feature(t)
            with pytest.raises(NonFiniteError, match="^A has a feature too large"):
                feature_vector(GroupAction.EUCLIDEAN, t)

    def test_stack_of_mixed_scales_matches_single_calls(self, rng):
        x = random_triangles(rng, 6) * np.array([1e-300, 1e-150, 1.0, 1e150, 1e300, 0.0])[:, None, None]
        coords, sides = _triangle_coords(x), _side_lengths(x)
        for i in range(6):
            np.testing.assert_array_equal(coords[i], triangle_embedding(x[i]))
            np.testing.assert_array_equal(sides[i], side_lengths(x[i]))
        assert np.isfinite(coords).all() and np.isfinite(sides).all()


def oracle_coords(t, digits=50):
    """Triangle coordinates in ``digits``-digit arithmetic, from the
    eigendecomposition of the edge Gram matrix of the (exact) float input."""
    with mpmath.workdps(digits):
        a = [[mpmath.mpf(float(t[i, j])) for j in range(3)] for i in range(2)]
        r2, r6 = mpmath.sqrt(2), mpmath.sqrt(6)
        e = mpmath.matrix(
            [[(a[i][1] - a[i][0]) / r2, (2 * a[i][2] - a[i][0] - a[i][1]) / r6] for i in range(2)]
        )
        w, q = mpmath.eigsy(e.T * e)
        root = q * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * q.T
        coords = [(root[0, 0] - root[1, 1]) / r2, r2 * root[0, 1], (root[0, 0] + root[1, 1]) / r2]
        return np.array([float(c) for c in coords])


class TestFullPrecision:
    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_counterexample_pairs_keep_sandwich(self, eps):
        # the pairs sit on the lower bound, so an eigen-based root that
        # loses the small Gram eigenvalue maps distinct orbits together
        a, b, _ = side_lengths_counterexample(eps)
        d, _ = dist_euclidean(a, b)
        gap = np.linalg.norm(triangle_embedding(a) - triangle_embedding(b))
        assert d * (1 - 1e-9) <= gap <= SQRT2 * d * (1 + 1e-9)

    @pytest.mark.parametrize("height", [10.0**-k for k in range(2, 12)])
    def test_matches_high_precision_oracle_near_collinear(self, rng, height):
        for _ in range(10):
            t = random_triangles(rng, 1)[0]
            t[1] *= height  # every vertex within ~height of the x axis
            th = rng.uniform(0, 2 * np.pi)
            t = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]) @ t
            want = oracle_coords(t)
            err = np.linalg.norm(triangle_embedding(t) - want) / np.linalg.norm(want)
            assert err <= 1e-14


class TestConeSurjectivity:
    def test_cone_points_are_attained(self, rng):
        for _ in range(100):
            z = rng.uniform(0, 3)
            r = z * np.sqrt(rng.uniform(0, 1))
            th = rng.uniform(0, 2 * np.pi)
            target = np.array([r * np.cos(th), r * np.sin(th), z])
            t = triangle_from_coords(target)
            np.testing.assert_allclose(triangle_embedding(t), target, atol=1e-6)

    def test_cone_boundary(self):
        t = triangle_from_coords([1.0, 0.0, 1.0])
        np.testing.assert_allclose(triangle_embedding(t), [1.0, 0.0, 1.0], atol=1e-8)

    def test_rejects_points_outside_cone(self):
        with pytest.raises(OutOfRangeError):
            triangle_from_coords([1.0, 1.0, 1.0])
        with pytest.raises(OutOfRangeError):
            triangle_from_coords([0.0, 0.0, -1.0])

    def test_cone_test_near_the_float64_limit(self):
        # each square overflows unless the cone is tested at a power of two
        with pytest.raises(OutOfRangeError):
            triangle_from_coords([1e200, 0.0, 5e199])
        target = np.array([0.6e200, 0.0, 1e200])
        got = triangle_embedding(triangle_from_coords(target))
        assert np.abs(got - target).max() <= 1e-15 * 1e200

    @pytest.mark.parametrize("coords", [[1e-7, 0.0, 0.0], [3e-160, 0.0, 1e-160], [0.0, 1e-300, 0.0]])
    def test_cone_test_is_relative_at_every_scale(self, coords):
        # far outside the cone however small: the tolerance is relative to
        # the largest coordinate
        with pytest.raises(OutOfRangeError):
            triangle_from_coords(coords)

    @pytest.mark.parametrize("e", [-600, 600])
    @pytest.mark.parametrize(
        "unit", [[0.3, -0.4, 1.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.6, 0.8, 1.0], [0.0, -1.0, 1.0]]
    )
    def test_round_trip_at_extreme_scales(self, unit, e):
        # interior points, then points on the boundary
        target = np.ldexp(np.array(unit), e)
        got = triangle_embedding(triangle_from_coords(target))
        assert np.abs(got - target).max() <= 1e-15 * np.ldexp(1.0, e)

    @pytest.mark.parametrize(
        "coords, error",
        [
            ([np.nan, 0.0, 1.0], NonFiniteError),
            ([0.0, 0.0, np.inf], NonFiniteError),
            ([0.0, 1.0], ShapeMismatchError),
            ([0.0, 0.0, 1.0, 1.0], ShapeMismatchError),
            ([[0.0, 0.0, 1.0]], ShapeMismatchError),
            ([0.0, 0.0, 1j], ShapeMismatchError),
            (1.0, ShapeMismatchError),
        ],
        ids=["nan", "inf", "two", "four", "nested", "complex", "scalar"],
    )
    def test_rejects_malformed_coordinates(self, coords, error):
        with pytest.raises(error, match="coordinates"):
            triangle_from_coords(coords)


class TestCounterexample:
    def test_orbit_distance_is_sqrt6_eps(self):
        for eps in (1e-2, 1e-3, 1e-4):
            a, b, _ = side_lengths_counterexample(eps)
            d, _ = dist_euclidean(a, b)
            assert d == pytest.approx(SQRT6 * eps, rel=1e-9)

    def test_ratio_matches_asymptotic_slope(self):
        # d(sides) / d_orbit ~ (9 sqrt(2) / (2 sqrt(6))) eps for small eps
        slope = 9 * SQRT2 / (2 * SQRT6)
        for eps in (1e-3, 1e-4):
            _, _, ratio = side_lengths_counterexample(eps)
            assert ratio == pytest.approx(slope * eps, rel=1e-2)

    def test_ratio_value_at_1e3(self):
        _, _, ratio = side_lengths_counterexample(1e-3)
        assert ratio == pytest.approx(2.598e-3, rel=1e-2)

    def test_ratio_vanishes_monotonically(self):
        for eps in (1e-2, 1e-3):
            _, _, r_full = side_lengths_counterexample(eps)
            _, _, r_half = side_lengths_counterexample(eps / 2)
            assert r_half < r_full

    @pytest.mark.parametrize("eps", [0.0, -1e-3, 0.1, 0.5])
    def test_rejects_out_of_range(self, eps):
        with pytest.raises(OutOfRangeError):
            side_lengths_counterexample(eps)
