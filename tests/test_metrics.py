import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitdist import (
    Alignment,
    GroupAction,
    NonFiniteError,
    QueryResult,
    ShapeDatabase,
    ShapeMismatchError,
    center,
    dist_complex_euclidean,
    dist_euclidean,
    dist_orthogonal,
    dist_unitary,
    linear_scan_nearest,
    orbit_distance,
    verify,
)
from orbitdist.linalg import svd
from orbitdist.metrics import _procrustes

from oracles import (
    o2_grid_min,
    random_orthogonal,
    random_unitary,
    rotation2,
    translation_grid_min,
    u2_grid_min,
)

GROUPS = list(GroupAction)


def sample_pair(rng, group, n=2, l=3):
    a = rng.standard_normal((n, l))
    b = rng.standard_normal((n, l))
    if group.is_complex:
        a = a + 1j * rng.standard_normal((n, l))
        b = b + 1j * rng.standard_normal((n, l))
    return a, b


def random_element(rng, group, n):
    """A random group element (rotation, translation)."""
    w = random_unitary(rng, n) if group.is_complex else random_orthogonal(rng, n)
    if group.quotients_translations:
        t = rng.standard_normal(n)
        if group.is_complex:
            t = t + 1j * rng.standard_normal(n)
    else:
        t = np.zeros(n, dtype=complex if group.is_complex else float)
    return w, t


def apply_element(w, t, a):
    return w @ a + t[:, None]


class TestCenter:
    def test_fixed_point(self, rng):
        a = rng.standard_normal((3, 4))
        a -= a.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(center(a), a, atol=1e-15)

    def test_coincident_points_center_to_zero(self, rng):
        q = rng.standard_normal(3)
        a = np.tile(q[:, None], (1, 5))
        np.testing.assert_allclose(center(a), 0.0, atol=1e-15)

    def test_column_sums_vanish(self, rng):
        for _ in range(25):
            a = rng.standard_normal((4, 7)) * rng.uniform(0.1, 50)
            out = center(a)
            assert np.abs(out.sum(axis=1)).max() <= 1e-12 * np.linalg.norm(a)

    def test_near_the_float64_limit(self, rng):
        # the column sums overflow unscaled; the centred result does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(center(np.full((2, 3), 1e308)), 0.0)
            a = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
            # beyond the range rule; a power of two scales exactly
            np.testing.assert_array_equal(center(a * 2.0**1020), center(a) * 2.0**1020)
            with pytest.raises(NonFiniteError, match="^A has a centred configuration too large for float64$"):
                center(np.array([[1.7e308, -1.7e308, -1.7e308]]))

    def test_rejects_a_configuration_without_columns(self):
        with pytest.raises(ShapeMismatchError, match="at least one column"):
            center(np.zeros((2, 0)))


class TestUnitaryDistance:
    def test_self_distance(self, rng):
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        d, al = dist_unitary(a, a)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(al.apply(a) - a) <= 1e-10 * np.linalg.norm(a)

    def test_rotated_identity_same_orbit(self):
        a = np.eye(2)
        b = rotation2(0.7) @ a
        d, _ = dist_unitary(a, b)
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_matches_u2_grid_oracle(self, rng):
        for _ in range(8):
            a, b = sample_pair(rng, GroupAction.UNITARY)
            d, _ = dist_unitary(a, b)
            assert d == pytest.approx(u2_grid_min(a, b), abs=1e-3)

    def test_aligner_achieves_distance(self, rng):
        for _ in range(20):
            a, b = sample_pair(rng, GroupAction.UNITARY, n=3, l=4)
            d, al = dist_unitary(a, b)
            assert np.linalg.norm(al.rotation @ a - b) == pytest.approx(d, rel=1e-9)
            n = a.shape[0]
            assert np.abs(al.rotation.conj().T @ al.rotation - np.eye(n)).max() < 1e-8

    def test_promotes_real_input(self, rng):
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((2, 4))
        d, _ = dist_unitary(a, b)
        d_o, _ = dist_orthogonal(a, b)
        assert d == pytest.approx(d_o, rel=1e-12)

    def test_nuclear_norm_formula(self, rng):
        for _ in range(20):
            a, b = sample_pair(rng, GroupAction.UNITARY, n=3, l=5)
            d, _ = dist_unitary(a, b)
            nuclear = svd(a @ b.conj().T)[1].sum()
            d2 = np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2 - 2 * nuclear
            assert d == pytest.approx(np.sqrt(max(d2, 0.0)), rel=1e-9, abs=1e-9)


class TestOrthogonalDistance:
    def test_counterexample_value(self):
        # perturbed flat triangle: distance sqrt(6) * eps, no rotation needed
        eps = 0.01
        a = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
        b = np.array([[1.0, 0.0, -1.0], [-eps, 2 * eps, -eps]])
        d, _ = dist_orthogonal(a, b)
        assert d == pytest.approx(np.sqrt(6.0) * eps, rel=1e-12)

    def test_same_orbit(self, rng):
        a = rng.standard_normal((2, 5))
        p = random_orthogonal(rng, 2)
        d, _ = dist_orthogonal(a, p @ a)
        assert d <= 1e-10 * np.linalg.norm(a)

    def test_matches_o2_grid_oracle(self, rng):
        for _ in range(6):
            a, b = sample_pair(rng, GroupAction.ORTHOGONAL, n=2, l=4)
            d, _ = dist_orthogonal(a, b)
            assert d == pytest.approx(o2_grid_min(a, b), abs=1e-4)

    def test_rejects_complex(self, rng):
        a = rng.standard_normal((2, 3)) + 0j
        a[0, 0] = 1j
        with pytest.raises(ShapeMismatchError):
            dist_orthogonal(a, a.real)

    def test_rejects_nan(self):
        a = np.zeros((2, 2))
        b = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NonFiniteError):
            dist_orthogonal(a, b)

    def test_rejects_an_entry_that_is_not_a_number(self):
        with pytest.raises(NonFiniteError, match="^A has an entry that is not a number$"):
            orbit_distance(GroupAction.ORTHOGONAL, [[object()]], [[1.0]])

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            dist_orthogonal(rng.standard_normal((2, 3)), rng.standard_normal((2, 4)))

    def test_aligner_refuses_points_of_another_dimension(self):
        _, al = orbit_distance(GroupAction.EUCLIDEAN, np.eye(2, 3), np.ones((2, 3)))
        with pytest.raises(ShapeMismatchError, match="points of dimension 3"):
            al.apply(np.ones((3, 3)))

    def test_aligner_refuses_an_image_beyond_float64(self):
        # the image's second entry is 1.5e308 * sqrt(2); a warning is an error
        _, al = orbit_distance(GroupAction.ORTHOGONAL, [[1.0], [0.0]], [[np.sqrt(0.5)], [np.sqrt(0.5)]])
        with pytest.raises(NonFiniteError, match="^A has an image too large for float64$"):
            al.apply([[1.5e308], [1.5e308]])

    def test_aligner_applies_at_a_power_of_two(self, rng):
        a = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        _, al = orbit_distance(GroupAction.COMPLEX_EUCLIDEAN, a, b)
        big = Alignment(al.rotation, al.translation * 2.0**1020, al.achieved_distance)
        # beyond the range rule, the image runs scaled, which is exact
        np.testing.assert_array_equal(big.apply(a * 2.0**1020), al.apply(a) * 2.0**1020)


class TestEuclideanDistance:
    def test_counterexample_centered_pair(self):
        eps = 0.01
        a = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
        b = np.array([[1.0, 0.0, -1.0], [-eps, 2 * eps, -eps]])
        # both already centered, so the translation quotient changes nothing
        np.testing.assert_allclose(center(a), a, atol=1e-15)
        np.testing.assert_allclose(center(b), b, atol=1e-15)
        d, _ = dist_euclidean(a, b)
        assert d == pytest.approx(np.sqrt(6.0) * eps, rel=1e-12)

    def test_pure_translation_is_free(self, rng):
        a = rng.standard_normal((3, 4))
        b = a + rng.standard_normal(3)[:, None]
        d, _ = dist_euclidean(a, b)
        assert d <= 1e-10 * np.linalg.norm(a)

    def test_equals_orthogonal_after_centering(self, rng):
        for _ in range(25):
            a, b = sample_pair(rng, GroupAction.EUCLIDEAN, n=3, l=5)
            d, _ = dist_euclidean(a, b)
            d_c, _ = dist_orthogonal(center(a), center(b))
            assert d == pytest.approx(d_c, abs=1e-12)

    def test_translation_quotient_matches_line_search(self, rng):
        # pure-translation subgroup: the centered frobenius distance equals
        # a dense per-coordinate line search over translations
        for _ in range(10):
            a, b = sample_pair(rng, GroupAction.EUCLIDEAN, n=2, l=3)
            expected = np.linalg.norm(center(a) - center(b))
            assert translation_grid_min(a, b) == pytest.approx(expected, abs=1e-6)

    def test_aligner_includes_translation(self, rng):
        for _ in range(20):
            a, b = sample_pair(rng, GroupAction.EUCLIDEAN, n=2, l=6)
            d, al = dist_euclidean(a, b)
            realized = al.rotation @ a + al.translation[:, None]
            assert np.linalg.norm(realized - b) == pytest.approx(d, rel=1e-9, abs=1e-12)

    def test_matches_rotation_grid_on_centered(self, rng):
        for _ in range(4):
            a, b = sample_pair(rng, GroupAction.EUCLIDEAN)
            d, _ = dist_euclidean(a, b)
            assert d == pytest.approx(o2_grid_min(center(a), center(b)), abs=1e-4)


class TestComplexEuclideanDistance:
    def test_translation_and_phase_free(self, rng):
        a = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = np.exp(1j * 0.9) * a + q[:, None]
        d, _ = dist_complex_euclidean(a, b)
        assert d <= 1e-10 * np.linalg.norm(a)

    def test_real_inputs_reduce_to_euclidean(self, rng):
        for _ in range(15):
            a, b = sample_pair(rng, GroupAction.EUCLIDEAN, n=2, l=4)
            d_f, _ = dist_complex_euclidean(a, b)
            d_e, _ = dist_euclidean(a, b)
            assert d_f == pytest.approx(d_e, rel=1e-10, abs=1e-12)

    def test_aligner(self, rng):
        for _ in range(10):
            a, b = sample_pair(rng, GroupAction.COMPLEX_EUCLIDEAN, n=3, l=5)
            d, al = dist_complex_euclidean(a, b)
            realized = al.rotation @ a + al.translation[:, None]
            assert np.linalg.norm(realized - b) == pytest.approx(d, rel=1e-9)


class TestMetricProperties:
    @pytest.mark.parametrize("group", GROUPS)
    def test_symmetry(self, rng, group):
        for _ in range(20):
            a, b = sample_pair(rng, group)
            d_ab, _ = orbit_distance(group, a, b)
            d_ba, _ = orbit_distance(group, b, a)
            assert d_ab == pytest.approx(d_ba, abs=1e-10)

    @pytest.mark.parametrize("group", GROUPS)
    def test_triangle_inequality(self, rng, group):
        for _ in range(20):
            a, b = sample_pair(rng, group)
            c = sample_pair(rng, group)[0]
            d_ac, _ = orbit_distance(group, a, c)
            d_ab, _ = orbit_distance(group, a, b)
            d_bc, _ = orbit_distance(group, b, c)
            assert d_ac <= d_ab + d_bc + 1e-9

    @pytest.mark.parametrize("group", GROUPS)
    def test_zero_iff_same_orbit(self, rng, group):
        for _ in range(10):
            a, _ = sample_pair(rng, group, n=2, l=4)
            w, t = random_element(rng, group, 2)
            b = apply_element(w, t, a)
            d, al = orbit_distance(group, a, b)
            scale = max(np.linalg.norm(a), np.linalg.norm(b))
            assert d <= 1e-9 * scale
            assert np.linalg.norm(al.apply(a) - b) <= 1e-8 * scale

    @pytest.mark.parametrize("group", GROUPS)
    def test_bi_invariance(self, rng, group):
        for _ in range(10):
            a, b = sample_pair(rng, group, n=3, l=4)
            g = random_element(rng, group, 3)
            h = random_element(rng, group, 3)
            d, _ = orbit_distance(group, a, b)
            d_moved, _ = orbit_distance(
                group, apply_element(*g, a), apply_element(*h, b)
            )
            assert d_moved == pytest.approx(d, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("group", GROUPS)
    def test_bounded_by_frobenius(self, rng, group):
        for _ in range(20):
            a, b = sample_pair(rng, group)
            d, _ = orbit_distance(group, a, b)
            assert d <= np.linalg.norm(a - b) + 1e-12

    def test_ordering_chain(self, rng):
        # real inputs: unitary == orthogonal; quotienting more shrinks distances
        for _ in range(20):
            a, b = sample_pair(rng, GroupAction.ORTHOGONAL, n=2, l=5)
            d_o, _ = dist_orthogonal(a, b)
            d_u, _ = dist_unitary(a, b)
            d_e, _ = dist_euclidean(a, b)
            d_f, _ = dist_complex_euclidean(a, b)
            assert d_u == pytest.approx(d_o, rel=1e-10, abs=1e-12)
            assert d_e <= d_o + 1e-12
            assert d_f <= d_u + 1e-12


SCALAR_DISTANCES = {
    GroupAction.ORTHOGONAL: dist_orthogonal,
    GroupAction.EUCLIDEAN: dist_euclidean,
    GroupAction.UNITARY: dist_unitary,
    GroupAction.COMPLEX_EUCLIDEAN: dist_complex_euclidean,
}


class TestStackedKernel:
    """The stacked Procrustes kernel against the scalar API, pair by pair."""

    def test_batch_euclidean_distance(self, rng):
        a = rng.standard_normal((64, 2, 3))
        b = rng.standard_normal((64, 2, 3))
        batch = _procrustes(GroupAction.EUCLIDEAN, a, b)[0]
        for i in range(64):
            expected, _ = dist_euclidean(a[i], b[i])
            assert batch[i] == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("group", GROUPS)
    def test_stack_matches_scalar_including_near_coincident(self, rng, group):
        pairs = [sample_pair(rng, group, n=3, l=5) for _ in range(20)]
        steps = []
        for _ in range(20):
            a, _ = sample_pair(rng, group, n=3, l=5)
            delta, _ = sample_pair(rng, group, n=3, l=5)
            delta *= 1e-9 * np.linalg.norm(a) / np.linalg.norm(delta)
            pairs.append((a, apply_element(*random_element(rng, group, 3), a) + delta))
            steps.append(np.linalg.norm(delta))
        a = np.stack([p[0] for p in pairs])
        b = np.stack([p[1] for p in pairs])
        batch, rotations, _ = _procrustes(group, a, b)
        assert batch.shape == (40,) and rotations.shape == (40, 3, 3)
        for i, (ai, bi) in enumerate(pairs):
            expected, alignment = SCALAR_DISTANCES[group](ai, bi)
            assert batch[i] == pytest.approx(expected, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(rotations[i], alignment.rotation, atol=1e-12)
        # no cancellation: a pair one small step from coincidence measures
        # at most that step, far below the sqrt(eps) floor of the
        # ||A||^2 + ||B||^2 - 2 ||A B*||_nuc shortcut
        near = batch[20:]
        assert np.all(near > 0.0)
        assert np.all(near <= np.array(steps) * (1.0 + 1e-6))

    @pytest.mark.parametrize("group", GROUPS)
    def test_query_broadcasts_against_records(self, rng, group):
        q, _ = sample_pair(rng, group, n=2, l=4)
        records = np.stack([sample_pair(rng, group, n=2, l=4)[0] for _ in range(7)])
        batch = _procrustes(group, q, records)[0]
        expected = [orbit_distance(group, q, m)[0] for m in records]
        np.testing.assert_allclose(batch, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("group", GROUPS)
    def test_scalar_api_rejects_stacks(self, rng, group):
        a, b = sample_pair(rng, group)
        with pytest.raises(ShapeMismatchError):
            orbit_distance(group, np.stack([a, a]), np.stack([b, b]))


@st.composite
def scaled_pairs(draw):
    """A group, a query, two records and a power-of-two exponent k; the
    first record is independent of the query, nearly in its orbit, or
    shares a zero column with it."""
    group = draw(st.sampled_from(GROUPS))
    n, l = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a, b = sample_pair(rng, group, n, l)
    c, _ = sample_pair(rng, group, n, l)
    kind = draw(st.sampled_from(["independent", "near", "zero"]))
    if kind == "near":
        b = apply_element(*random_element(rng, group, n), a) + 1e-9 * b
    elif kind == "zero":
        a[:, 0] = b[:, 0] = 0.0
    return group, a, b, c, draw(st.integers(-1000, 1000))


def scales_normally(k, *xs):
    """Whether 2^k times every nonzero real or imaginary part of ``xs``
    is a normal float64."""
    parts = np.concatenate([np.concatenate([x.real.ravel(), x.imag.ravel()]) for x in xs])
    scaled = np.abs(np.ldexp(parts[parts != 0.0], k))
    return bool(np.all((scaled >= np.finfo(float).tiny) & np.isfinite(scaled)))


class TestScaleContract:
    """d(2^k A, 2^k B) = 2^k d(A, B) to the bit, with the same rotation,
    wherever the scaled entries stay normal and the results finite."""

    @settings(max_examples=150, deadline=None)
    @given(scaled_pairs())
    def test_power_of_two_scale_is_exact(self, case):
        group, a, b, c, k = case
        s = 2.0**k
        assume(scales_normally(k, a, b, c))
        d, al = orbit_distance(group, a, b)
        assume(np.isfinite(d * s) and np.isfinite(al.translation * s).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds, als = orbit_distance(group, a * s, b * s)
            assert ds == d * s
            np.testing.assert_array_equal(als.rotation, al.rotation)
            np.testing.assert_array_equal(als.translation, al.translation * s)
            # the same contract through the database: verify, and the
            # stacked kernel of the scan
            records = [("b", b), ("c", c)]
            db = ShapeDatabase(group, records)
            dbs = ShapeDatabase(group, [(rid, m * s) for rid, m in records])
            for rid, m in records:
                assume(np.isfinite(orbit_distance(group, a, m)[0] * s))
                hit = QueryResult(rid, 0.0, None, 1.0)
                want = verify(db, hit, a).exact_orbit_distance * s
                assert verify(dbs, hit, a * s).exact_orbit_distance == want
            scan, scans = linear_scan_nearest(db, a), linear_scan_nearest(dbs, a * s)
            assert scans.id == scan.id
            assert scans.exact_orbit_distance == scan.exact_orbit_distance * s

    @pytest.mark.parametrize("k", [511, -530, -565, -664, 1000, -1000])
    def test_euclidean_pair_at_extreme_scales(self, rng, k):
        # unscaled, A B* overflows near 1e154, and squares of entries
        # near 1e-160 are subnormal and from 1e-170 down vanish
        a, b = rng.standard_normal((2, 2, 5))
        d, al = dist_euclidean(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds, als = dist_euclidean(np.ldexp(a, k), np.ldexp(b, k))
        assert ds == np.ldexp(d, k)
        np.testing.assert_array_equal(als.rotation, al.rotation)
        np.testing.assert_array_equal(als.translation, np.ldexp(al.translation, k))

    def test_tiny_database_scan_finds_the_nearest_orbit(self, rng):
        records = rng.standard_normal((50, 2, 5))
        q = rng.standard_normal((2, 5))
        unit = ShapeDatabase(GroupAction.EUCLIDEAN, [(f"r{i}", m) for i, m in enumerate(records)])
        tiny = ShapeDatabase(GroupAction.EUCLIDEAN, [(f"r{i}", m * 1e-200) for i, m in enumerate(records)])
        want, got = linear_scan_nearest(unit, q), linear_scan_nearest(tiny, q * 1e-200)
        assert got.id == want.id
        assert got.exact_orbit_distance == pytest.approx(want.exact_orbit_distance * 1e-200, rel=1e-12)


class TestResultRange:
    """A distance or translation beyond float64 is refused, without a
    warning, for inputs whose entries are finite."""

    def test_distance_beyond_float64(self):
        a = 1.5e308 * np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]])
        b = 1.5e308 * np.array([[1.0, 1.0, -1.0], [1.0, -1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for group in GROUPS:
                with pytest.raises(NonFiniteError, match="^the pair has a distance too large for float64$"):
                    orbit_distance(group, a, b)
            with pytest.raises(NonFiniteError, match="distance too large"):
                _procrustes(GroupAction.ORTHOGONAL, a, np.stack([a, b]))

    @pytest.mark.parametrize("group", [GroupAction.EUCLIDEAN, GroupAction.COMPLEX_EUCLIDEAN])
    def test_translation_beyond_float64(self, group):
        # both centre to zero, at distance 0, but the means are 3e308 apart
        a = np.full((2, 3), 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^the pair has a translation too large for float64$"):
                orbit_distance(group, a, -a)

    def test_complex_translation_at_a_subnormal_scale(self):
        # the pair runs at 2^-1024, a subnormal scale that a complex
        # division would turn into an infinite 1/c
        a = np.array([[1.5e308 + 0j, 0.3e308, 0.0]])
        b = np.array([[0.2e308 + 0j, 1.2e308, 0.1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = orbit_distance(GroupAction.COMPLEX_EUCLIDEAN, a, b)[1].translation
            real = orbit_distance(GroupAction.EUCLIDEAN, a.real, b.real)[1].translation
        np.testing.assert_allclose(t, real, rtol=1e-15)
        np.testing.assert_allclose(t, [1.1e308], rtol=1e-15)

    def test_complex_entry_measured_by_its_larger_part(self):
        # parts of 1.5e308 are finite, though the modulus overflows: the
        # pair and the centring run at the power of two of the larger part
        z = np.array([[1.5e308 + 1.5e308j, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert orbit_distance(GroupAction.UNITARY, z, z)[0] == 0.0
            np.testing.assert_array_equal(_procrustes(GroupAction.UNITARY, z, np.stack([z, z]))[0], 0.0)
            np.testing.assert_array_equal(center(np.array([[1.5e308 + 1.5e308j] * 2])), 0.0)

    def test_huge_finite_results_kept(self):
        # the means are summed at the pair's scale: no column sum overflows
        a = np.full((2, 3), 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, al = dist_euclidean(a, a)
        assert d == 0.0
        np.testing.assert_array_equal(al.translation, [0.0, 0.0])
