import numpy as np
import pytest

from orbitdist import (
    GroupAction,
    OutOfRangeError,
    center,
    complex_euclidean_embedding,
    embedding_for,
    euclidean_embedding,
    feature_dim,
    feature_vector,
    herm_flatten,
    mean_last_basis,
    orbit_distance,
    orthogonal_embedding,
    psd_sqrt,
    reduced_embedding,
    reducer_for,
    sym_flatten,
    unitary_embedding,
)

from orbitdist.embeddings import _flatten, _gather

from oracles import gram_schmidt_mean_last_basis, random_orthogonal, random_unitary

SQRT2 = np.sqrt(2.0)

SANDWICH_CASES = [
    (GroupAction.ORTHOGONAL, 2, 3),
    (GroupAction.ORTHOGONAL, 3, 5),
    (GroupAction.EUCLIDEAN, 2, 3),
    (GroupAction.EUCLIDEAN, 3, 6),
    (GroupAction.UNITARY, 2, 3),
    (GroupAction.COMPLEX_EUCLIDEAN, 2, 4),
]


def sample(rng, group, n, l):
    z = rng.standard_normal((n, l))
    if group.is_complex:
        z = z + 1j * rng.standard_normal((n, l))
    return z


class TestFlattening:
    def test_sym_isometry(self, rng):
        for _ in range(25):
            g = rng.standard_normal((4, 4))
            m1 = g + g.T
            g = rng.standard_normal((4, 4))
            m2 = g + g.T
            lhs = np.linalg.norm(sym_flatten(m1) - sym_flatten(m2))
            rhs = np.linalg.norm(m1 - m2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_herm_isometry(self, rng):
        for _ in range(25):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m1 = g + g.conj().T
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m2 = g + g.conj().T
            lhs = np.linalg.norm(herm_flatten(m1) - herm_flatten(m2))
            rhs = np.linalg.norm(m1 - m2)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @staticmethod
    def flatten_oracle(a, hermitian):
        """Diagonal, then the sqrt(2)-weighted upper triangle, by indexing."""
        i, j = np.triu_indices(a.shape[-1], k=1)
        diag = np.diagonal(a, axis1=-2, axis2=-1)
        off = a[..., i, j]
        if hermitian:
            return np.concatenate([diag.real, SQRT2 * off.real, SQRT2 * off.imag], axis=-1)
        return np.concatenate([diag, SQRT2 * off], axis=-1)

    @staticmethod
    def assert_same_bits(got, want):
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (5, 5), (3, 4, 4), (2, 3, 6, 6), (0, 3, 3)])
    @pytest.mark.parametrize("hermitian", [False, True])
    def test_gather_is_the_indexing_formula(self, rng, shape, hermitian):
        a = rng.standard_normal(shape)
        if hermitian:
            a = a + 1j * rng.standard_normal(shape)
        self.assert_same_bits(_flatten(a, hermitian), self.flatten_oracle(a, hermitian))

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_gather_reads_non_contiguous_input(self, rng, hermitian):
        a = rng.standard_normal((6, 7, 14))
        if hermitian:
            a = a + 1j * rng.standard_normal(a.shape)
        for view in [a[::2, :, ::2], a[:, :, 1::2].swapaxes(-1, -2), a[1::2, :, :7]]:
            self.assert_same_bits(_flatten(view, hermitian), self.flatten_oracle(view, hermitian))
        f = np.asfortranarray(a[0, :, :7])
        self.assert_same_bits(_flatten(f, hermitian), self.flatten_oracle(f, hermitian))

    def test_public_flattenings_are_the_indexing_formula(self, rng):
        g = rng.standard_normal((5, 5))
        h = g + 1j * rng.standard_normal((5, 5))
        self.assert_same_bits(sym_flatten(g + g.T), self.flatten_oracle(g + g.T, False))
        self.assert_same_bits(herm_flatten(h), self.flatten_oracle(h, True))
        # a real matrix reads as complex, with zero imaginary coordinates
        self.assert_same_bits(herm_flatten(g), self.flatten_oracle(g.astype(complex), True))
        assert not herm_flatten(g)[15:].any()
        self.assert_same_bits(sym_flatten([[2.0]]), np.array([2.0]))
        self.assert_same_bits(herm_flatten([[2.0 + 0.0j]]), np.array([2.0]))
        self.assert_same_bits(sym_flatten(np.asfortranarray(g)), self.flatten_oracle(g, False))

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_gather_arrays_are_cached_and_read_only(self, hermitian):
        index, weight = _gather(4, hermitian)
        assert _gather(4, hermitian)[0] is index
        assert not index.flags.writeable and not weight.flags.writeable
        with pytest.raises(ValueError):
            weight[0] = 2.0
        assert weight.tolist() == [1.0] * 4 + [SQRT2] * (index.size - 4)

    @pytest.mark.parametrize("l", [2, 3, 5, 8])
    def test_mean_last_basis(self, l):
        w = mean_last_basis(l)
        np.testing.assert_allclose(w.T @ w, np.eye(l), atol=1e-12)
        np.testing.assert_allclose(w[:, -1], np.full(l, 1 / np.sqrt(l)), atol=1e-12)

    @pytest.mark.parametrize("l", [1, 2, 3, 5, 50, 257])
    def test_mean_last_basis_is_gram_schmidt(self, l):
        expected = gram_schmidt_mean_last_basis(l)
        np.testing.assert_allclose(mean_last_basis(l), expected, rtol=0.0, atol=1e-14)

    def test_mean_last_basis_of_one_point(self):
        assert mean_last_basis(1).tolist() == [[1.0]]
        assert mean_last_basis(np.int64(1)).tolist() == [[1.0]]

    @pytest.mark.parametrize("l", [0, -2, 2.5, 3.0, True, "3", None, [3]])
    def test_mean_last_basis_refuses_non_integers_below_one(self, l):
        with pytest.raises(OutOfRangeError, match="l must be an integer >= 1"):
            mean_last_basis(l)


class TestOrthogonalEmbedding:
    def test_orthonormal_columns_give_identity(self, rng):
        a = np.linalg.qr(rng.standard_normal((5, 3)))[0]
        mat, _ = orthogonal_embedding(a)
        np.testing.assert_allclose(mat, np.eye(3), atol=1e-10)

    def test_forced_diagonal(self):
        a = np.array([[3.0, 0.0], [4.0, 0.0]])
        mat, _ = orthogonal_embedding(a)
        np.testing.assert_allclose(mat, np.diag([5.0, 0.0]), atol=1e-12)

    def test_matrix_is_gram_root_full_rank(self, rng):
        a = rng.standard_normal((4, 2))
        mat, vec = orthogonal_embedding(a)
        np.testing.assert_allclose(mat, psd_sqrt(a.T @ a), atol=1e-10)
        assert vec.shape == (feature_dim(GroupAction.ORTHOGONAL, 2),)
        np.testing.assert_allclose(vec, sym_flatten(mat), atol=1e-15)

    def test_matrix_is_gram_root_rank_deficient(self, rng):
        # eigendecomposing the formed Gram only reaches sqrt(eps) accuracy
        # on its null space, hence the loose tolerance for the cross-check
        a = rng.standard_normal((2, 4))
        mat, _ = orthogonal_embedding(a)
        np.testing.assert_allclose(mat, psd_sqrt(a.T @ a), atol=1e-7)
        np.testing.assert_allclose(mat @ mat, a.T @ a, atol=1e-12)


class TestEuclideanEmbedding:
    def test_coincident_points_map_to_zero(self, rng):
        q = rng.standard_normal(2)
        a = np.tile(q[:, None], (1, 4))
        mat, vec = euclidean_embedding(a)
        np.testing.assert_allclose(mat, 0.0, atol=1e-12)
        np.testing.assert_allclose(vec, 0.0, atol=1e-12)

    def test_translation_invariance_exact(self, rng):
        a = rng.standard_normal((2, 5))
        q = rng.standard_normal(2)
        m1, v1 = euclidean_embedding(a)
        m2, v2 = euclidean_embedding(a + q[:, None])
        np.testing.assert_allclose(m1, m2, atol=1e-12)
        np.testing.assert_allclose(v1, v2, atol=1e-12)

    def test_matrix_annihilates_ones(self, rng):
        a = rng.standard_normal((3, 5))
        mat, _ = euclidean_embedding(a)
        ones = np.ones(5)
        assert np.abs(mat @ ones).max() < 1e-10
        assert np.abs(ones @ mat).max() < 1e-10

    def test_matrix_squares_to_centered_gram(self, rng):
        a = rng.standard_normal((2, 4))
        mat, _ = euclidean_embedding(a)
        c = center(a)
        np.testing.assert_allclose(mat @ mat, c.T @ c, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(mat)) > -1e-12

    def test_vector_distance_equals_matrix_distance(self, rng):
        # the (l-1)-block flattening preserves distances of the full matrices
        for _ in range(20):
            a, b = rng.standard_normal((2, 3, 6))
            m1, v1 = euclidean_embedding(a)
            m2, v2 = euclidean_embedding(b)
            assert np.linalg.norm(v1 - v2) == pytest.approx(
                np.linalg.norm(m1 - m2), rel=1e-10, abs=1e-12
            )


def centred_root_in_oracle_basis(group, a):
    """The translation-quotiented matrix feature by the textbook route: the
    l-by-l Gram root of the centred configuration, and its (l-1)-by-(l-1)
    block ``W^T R W`` in the Gram-Schmidt basis."""
    root = (unitary_embedding if group.is_complex else orthogonal_embedding)(center(a))[0]
    w = gram_schmidt_mean_last_basis(a.shape[1])
    return root, (w.T @ root @ w)[:-1, :-1]


class TestHelmertCoordinates:
    """E/F features read the centred configuration in the closed-form
    Helmert coordinates; they agree with the centred root compressed in
    the Gram-Schmidt basis to round-off, up to l = 1024."""

    @pytest.mark.parametrize("group", [GroupAction.EUCLIDEAN, GroupAction.COMPLEX_EUCLIDEAN])
    @pytest.mark.parametrize("n,l", [(1, 3), (1, 8), (1, 64), (2, 3), (2, 8), (2, 64), (1, 1024)])
    def test_full_and_reduced_features_match_oracle(self, rng, group, n, l):
        a = sample(rng, group, n, l)
        root, block = centred_root_in_oracle_basis(group, a)
        mat, f = embedding_for(group, a)
        expected = (herm_flatten if group.is_complex else sym_flatten)(block)
        assert np.linalg.norm(f - expected) <= 1e-13 * np.linalg.norm(expected)
        assert np.linalg.norm(mat - root) <= 1e-13 * np.linalg.norm(root)
        if l - 1 >= 2 * n:
            r = reduced_embedding(group, a)
            expected = reducer_for(group, n, l).project(block)
            assert np.linalg.norm(r - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("group", [GroupAction.EUCLIDEAN, GroupAction.COMPLEX_EUCLIDEAN])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("l", [2, 3, 8, 64, 257, 1024])
    def test_matrix_is_the_root_of_the_centred_configuration(self, rng, group, n, l):
        a = sample(rng, group, n, l)
        plain = GroupAction.UNITARY if group.is_complex else GroupAction.ORTHOGONAL
        mat, _ = embedding_for(group, a)
        expected, _ = embedding_for(plain, center(a))
        assert mat.dtype == expected.dtype and mat.shape == (l, l)
        assert np.array_equal(mat, expected)

    @pytest.mark.parametrize("group", [GroupAction.EUCLIDEAN, GroupAction.COMPLEX_EUCLIDEAN])
    def test_one_point_feature_is_empty(self, rng, group):
        a, b = sample(rng, group, 2, 1), sample(rng, group, 2, 1)
        assert feature_vector(group, a).shape == (0,)
        mat, f = embedding_for(group, a)
        assert f.shape == (0,) and mat.tolist() == [[0.0]]
        assert orbit_distance(group, a, b)[0] == 0.0


class TestUnitaryEmbedding:
    def test_unitary_columns_give_identity(self, rng):
        a = random_unitary(rng, 4)[:, :3]
        mat, _ = unitary_embedding(a)
        np.testing.assert_allclose(mat, np.eye(3), atol=1e-10)

    def test_phase_invariance(self, rng):
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        m1, v1 = unitary_embedding(a)
        m2, v2 = unitary_embedding(np.exp(1j * 1.3) * a)
        np.testing.assert_allclose(m1, m2, atol=1e-12)
        np.testing.assert_allclose(v1, v2, atol=1e-12)

    def test_feature_is_real(self, rng):
        a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        _, vec = unitary_embedding(a)
        assert not np.iscomplexobj(vec)
        assert vec.shape == (9,)


class TestComplexEuclideanEmbedding:
    def test_coincident_points(self, rng):
        q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = np.tile(q[:, None], (1, 4))
        mat, vec = complex_euclidean_embedding(a)
        np.testing.assert_allclose(mat, 0.0, atol=1e-12)
        np.testing.assert_allclose(vec, np.zeros(9), atol=1e-12)

    def test_translation_and_phase_invariance(self, rng):
        a = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        _, v1 = complex_euclidean_embedding(a)
        _, v2 = complex_euclidean_embedding(np.exp(0.4j) * a + q[:, None])
        np.testing.assert_allclose(v1, v2, atol=1e-10)


class TestGroupInvariance:
    @pytest.mark.parametrize("group", list(GroupAction))
    def test_feature_constant_on_orbits(self, rng, group):
        n, l = 2, 4
        for _ in range(250):
            a = sample(rng, group, n, l)
            w = random_unitary(rng, n) if group.is_complex else random_orthogonal(rng, n)
            moved = w @ a
            if group.quotients_translations:
                t = rng.standard_normal(n)
                if group.is_complex:
                    t = t + 1j * rng.standard_normal(n)
                moved = moved + t[:, None]
            _, v1 = embedding_for(group, a)
            _, v2 = embedding_for(group, moved)
            assert np.linalg.norm(v1 - v2) <= 1e-10 * np.linalg.norm(a)


class TestSandwich:
    @pytest.mark.parametrize("group,n,l", SANDWICH_CASES)
    def test_sandwich_small(self, rng, group, n, l):
        # the acceptance suite runs the full 1e4-pair version
        for _ in range(200):
            a, b = sample(rng, group, n, l), sample(rng, group, n, l)
            d, _ = orbit_distance(group, a, b)
            _, va = embedding_for(group, a)
            _, vb = embedding_for(group, b)
            gap = np.linalg.norm(va - vb)
            assert d - 1e-8 <= gap <= SQRT2 * d + 1e-8

    def test_tightness_witnesses(self):
        # both bi-Lipschitz constants are nearly attained somewhere: over
        # a million random planar pairs the ratio reaches above 1.35 and
        # dips below 1.05 (the distance identity between the triangle
        # coordinates and the euclidean feature is tested in test_triangles)
        from orbitdist import MAP_TRIANGLE, ExperimentConfig, distortion_experiment

        cfg = ExperimentConfig(seed=123, n_pairs=1_000_000, maps=(MAP_TRIANGLE,))
        stats = distortion_experiment(cfg).ratio_stats[MAP_TRIANGLE]
        assert stats["max"] > 1.35
        assert stats["min"] < 1.05
