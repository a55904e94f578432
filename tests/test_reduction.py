import functools
import json
import math

import mpmath
import numpy as np
import pytest

from orbitdist import (
    Ambient,
    AmbientMismatchError,
    DimensionHypothesisError,
    GroupAction,
    InvalidRankError,
    REDUCED,
    ReducerBasis,
    ShapeDatabase,
    ShapeMismatchError,
    build_reducer,
    feature_vector,
    orbit_distance,
    reduced_embedding,
    reduced_feature_dim,
    reducer_for,
    separating_subspace_basis,
)
from orbitdist import embeddings, linalg, reduction
from orbitdist.reduction import _reduced_stack

from oracles import csr_reduced_features

SQRT2 = np.sqrt(2.0)


def random_low_rank_symmetric(rng, size, rank):
    m = np.zeros((size, size))
    for _ in range(rank // 2):
        u, v = rng.standard_normal((2, size))
        m += np.outer(u, v) + np.outer(v, u)
    if rank % 2:
        u = rng.standard_normal(size)
        m += np.outer(u, u)
    return m


class TestSeparatingSubspaceBasis:
    def test_full_rank_gives_empty_basis(self):
        assert separating_subspace_basis(4, 4) == []

    def test_hand_expanded_binomial(self):
        # (x - y)^2 = x^2 - 2xy + y^2 placed at entries (2,0), (1,1), (0,2)
        (b,) = separating_subspace_basis(3, 2)
        expected = np.array([[0.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(b, expected)

    def test_shifted_binomial(self):
        mats = separating_subspace_basis(4, 2)
        assert len(mats) == 4
        # x^i y^j shifts the pattern down/right by (i, j)
        np.testing.assert_array_equal(mats[1][2:, 1:2], [[1.0], [0.0]])
        stacked = np.array([m.ravel() for m in mats])
        assert np.linalg.matrix_rank(stacked) == 4

    @pytest.mark.parametrize("size", range(1, 11))
    def test_counts(self, size):
        for rank in range(1, size + 1):
            mats = separating_subspace_basis(size, rank)
            assert len(mats) == (size - rank) ** 2

    def test_invalid_rank(self):
        with pytest.raises(InvalidRankError):
            separating_subspace_basis(3, 0)
        with pytest.raises(InvalidRankError):
            separating_subspace_basis(3, 4)

    @pytest.mark.parametrize("size,rank", [(4, 2), (5, 2), (6, 4)])
    def test_closed_under_transpose_and_conjugation(self, size, rank):
        mats = separating_subspace_basis(size, rank)
        stacked = np.array([m.ravel() for m in mats])
        q, _ = np.linalg.qr(stacked.T)
        for m in mats:
            for moved in (m.T, m.conj()):
                v = moved.ravel()
                residual = v - q @ (q.T @ v)
                assert np.linalg.norm(residual) < 1e-10


class TestBuildReducer:
    def test_minimal_symmetric_case_is_full_space(self):
        # size 2 with rank 2: nothing to remove
        rb = build_reducer(1, 2, Ambient.SYMMETRIC)
        assert rb.dim == 3
        assert rb.intersection_dim == 0

    def test_documented_small_cases(self):
        rb = build_reducer(1, 3, Ambient.SYMMETRIC)
        assert (rb.dim, rb.intersection_dim) == (5, 1)
        rb = build_reducer(1, 3, Ambient.HERMITIAN)
        assert (rb.dim, rb.intersection_dim) == (8, 1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dimension_formulas(self, n):
        for size in range(2 * n, 11):
            rb = build_reducer(n, size, Ambient.SYMMETRIC)
            assert rb.dim == n * (2 * size - 2 * n + 1)
            rb = build_reducer(n, size, Ambient.HERMITIAN)
            assert rb.dim == 4 * n * (size - n)

    def test_basis_orthonormal(self):
        for ambient in Ambient:
            rb = build_reducer(2, 7, ambient)
            basis = rb.basis.toarray()
            gram = basis @ basis.T
            np.testing.assert_allclose(gram, np.eye(rb.dim), atol=1e-10)

    def test_rejects_small_size(self):
        with pytest.raises(DimensionHypothesisError):
            build_reducer(2, 3, Ambient.SYMMETRIC)


class TestProject:
    def test_zero_maps_to_zero(self):
        rb = build_reducer(1, 4, Ambient.SYMMETRIC)
        np.testing.assert_array_equal(rb.project(np.zeros((4, 4))), np.zeros(rb.dim))

    def test_fixes_vectors_already_in_complement(self, rng):
        # project a random symmetric matrix once; the result (pulled back)
        # must be fixed by a second projection with equal norm
        rb = build_reducer(1, 4, Ambient.SYMMETRIC)
        coords = rb.project(random_low_rank_symmetric(rng, 4, 4))
        pulled = np.zeros((4, 4))
        for c, row in zip(coords, rb.basis.toarray()):
            pulled += c * row[:16].reshape(4, 4)
        again = rb.project(pulled)
        assert np.linalg.norm(again) == pytest.approx(np.linalg.norm(pulled), rel=1e-12)
        np.testing.assert_allclose(again, coords, atol=1e-10)

    @pytest.mark.parametrize("n,size", [(1, 4), (1, 5), (1, 6), (2, 5), (2, 6)])
    def test_wronskian_separation(self, rng, n, size):
        rb = build_reducer(n, size, Ambient.SYMMETRIC)
        for _ in range(100):
            m = random_low_rank_symmetric(rng, size, 2 * n)
            coords = rb.project(m)
            assert np.linalg.norm(coords) > 1e-8 * np.linalg.norm(m)

    def test_non_expansive(self, rng):
        rb = build_reducer(1, 5, Ambient.SYMMETRIC)
        for _ in range(200):
            g = rng.standard_normal((5, 5))
            m = g + g.T
            assert np.linalg.norm(rb.project(m)) <= np.linalg.norm(m) + 1e-12

    def test_hermitian_ambient(self, rng):
        rb = build_reducer(1, 3, Ambient.HERMITIAN)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = g + g.conj().T
        coords = rb.project(m)
        assert coords.shape == (8,)
        assert np.linalg.norm(coords) <= np.linalg.norm(m) + 1e-12

    def test_rejects_asymmetric(self, rng):
        rb = build_reducer(1, 3, Ambient.SYMMETRIC)
        with pytest.raises(AmbientMismatchError):
            rb.project(rng.standard_normal((3, 3)))

    def test_symmetric_ambient_rejects_complex(self, rng):
        rb = build_reducer(1, 3, Ambient.SYMMETRIC)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(AmbientMismatchError):
            rb.project(g + g.conj().T)

    # the norms of the two matrices below overflow unless the check
    # measures them at their power of two; a warning is an error here
    def test_rejects_asymmetric_near_the_float64_limit(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1e200
        with pytest.raises(AmbientMismatchError, match="not Hermitian"):
            build_reducer(1, 4, Ambient.SYMMETRIC).project(m)

    def test_symmetric_ambient_rejects_complex_near_the_float64_limit(self):
        m = np.eye(4) + 0j
        m[0, 1], m[1, 0] = 1j, -1j  # Hermitian, not real
        with pytest.raises(AmbientMismatchError, match="^symmetric ambient requires a real matrix$"):
            build_reducer(1, 4, Ambient.SYMMETRIC).project(1e200 * m)

    def test_rejects_a_matrix_of_another_size(self):
        with pytest.raises(ShapeMismatchError, match="expected 4x4"):
            build_reducer(1, 4, Ambient.SYMMETRIC).project(np.eye(3))


class TestReducedEmbedding:
    @pytest.mark.parametrize(
        "group,n,l",
        [
            (GroupAction.ORTHOGONAL, 1, 4),
            (GroupAction.ORTHOGONAL, 2, 5),
            (GroupAction.EUCLIDEAN, 1, 4),
            (GroupAction.UNITARY, 1, 3),
            (GroupAction.COMPLEX_EUCLIDEAN, 1, 4),
        ],
    )
    def test_output_length_and_invariance(self, rng, group, n, l):
        from test_metrics import apply_element, random_element

        a = rng.standard_normal((n, l))
        if group.is_complex:
            a = a + 1j * rng.standard_normal((n, l))
        f = reduced_embedding(group, a)
        assert f.shape == (reduced_feature_dim(group, n, l),)
        moved = apply_element(*random_element(rng, group, n), a)
        f2 = reduced_embedding(group, moved)
        assert np.linalg.norm(f - f2) <= 1e-9 * max(1.0, np.linalg.norm(a))

    def test_upper_bound_and_positive_lower(self, rng):
        group = GroupAction.ORTHOGONAL
        reducer = reducer_for(group, 1, 4)
        min_ratio = np.inf
        for _ in range(500):
            a, b = rng.standard_normal((2, 1, 4))
            d, _ = orbit_distance(group, a, b)
            if d < 1e-12:
                continue
            gap = np.linalg.norm(
                reduced_embedding(group, a, reducer) - reduced_embedding(group, b, reducer)
            )
            assert gap <= SQRT2 * d + 1e-8
            min_ratio = min(min_ratio, gap / d)
        assert min_ratio > 0.0

    def test_rejects_short_configurations(self, rng):
        with pytest.raises(DimensionHypothesisError):
            reduced_embedding(GroupAction.ORTHOGONAL, rng.standard_normal((2, 3)))
        with pytest.raises(DimensionHypothesisError):
            # euclidean loses one column to centering
            reduced_embedding(GroupAction.EUCLIDEAN, rng.standard_normal((2, 4)))

    def test_dim_formula_table(self):
        for n in range(1, 4):
            for l in range(2 * n, 9):
                assert reduced_feature_dim(GroupAction.ORTHOGONAL, n, l) == n * (2 * l - 2 * n + 1)
                assert reduced_feature_dim(GroupAction.UNITARY, n, l) == 4 * n * (l - n)
                if l - 1 >= 2 * n:
                    assert reduced_feature_dim(GroupAction.EUCLIDEAN, n, l) == n * (
                        2 * l - 2 * n - 1
                    )
                    assert reduced_feature_dim(GroupAction.COMPLEX_EUCLIDEAN, n, l) == 4 * n * (
                        l - n - 1
                    )


class TestSparseOperator:
    def test_storage_grows_with_entries_not_rows_times_columns(self):
        # one row per antidiagonal: size^2 non-zeros where a dense basis
        # held (2 * size - 1) * 2 * size^2 entries, 536 MB at size 256
        rb = build_reducer(1, 256, Ambient.SYMMETRIC)
        op = rb.basis
        assert op.shape == (rb.dim, 256 * 256)
        assert op.nnz == 256 * 256
        assert op.data.nbytes + op.indices.nbytes + op.indptr.nbytes <= 2 * 2**20

    @pytest.mark.parametrize("n,size", [(1, 6), (2, 9), (3, 8)])
    def test_nonzeros_per_ambient(self, n, size):
        symmetric = build_reducer(n, size, Ambient.SYMMETRIC).basis
        hermitian = build_reducer(n, size, Ambient.HERMITIAN).basis
        assert hermitian.shape[1] == 2 * symmetric.shape[1] == 2 * size * size
        assert symmetric.nnz <= n * size * size
        assert hermitian.nnz <= 2 * n * size * size

    def test_identity_is_the_parameters(self):
        rb = build_reducer(1, 5, Ambient.HERMITIAN)
        same = ReducerBasis(rank=2, size=5, ambient=Ambient.HERMITIAN)
        assert rb == same and hash(rb) == hash(same)
        assert rb != build_reducer(1, 5, Ambient.SYMMETRIC)
        assert "basis" not in repr(rb)

    def test_large_l_is_non_expansive(self, rng):
        group = GroupAction.ORTHOGONAL
        reducer = build_reducer(1, 1024, Ambient.SYMMETRIC)
        assert reducer_for(group, 1, 1024) is reducer
        a, b = rng.standard_normal((2, 1, 1024))
        gap = np.linalg.norm(reduced_embedding(group, a) - reduced_embedding(group, b))
        full = np.linalg.norm(feature_vector(group, a) - feature_vector(group, b))
        assert 0.0 < gap <= full * (1 + 1e-12)


class TestProductRoutes:
    """``_project`` applies the operator in numpy up to ``_NUMPY_PRODUCTS``
    products (one gather, one multiply, one ``np.bincount``) and as scipy's
    CSR product above.  Both give each matrix the bits of ``basis @ x`` for
    that matrix alone, so a matrix has the same bits alone or in any batch,
    by either route."""

    @staticmethod
    def basis_products(reducer, mats):
        """The oracle: ``reducer.basis`` times the float64 view of each
        matrix (interleaved real and imaginary parts when Hermitian), one
        CSR matvec per matrix."""
        flat = mats.reshape(-1, reducer.size * reducer.size)
        if reducer.ambient is Ambient.HERMITIAN:
            flat = flat.astype(np.complex128).view(np.float64)
        rows = [reducer.basis @ np.ascontiguousarray(x.real) for x in flat]
        return np.array(rows).reshape(mats.shape[:-2] + (reducer.dim,))

    @staticmethod
    def layouts(mats):
        """The stack as given, Fortran-ordered, and as a strided view."""
        wide = np.zeros(mats.shape[:-1] + (2 * mats.shape[-1],), dtype=mats.dtype)
        wide[..., ::2] = mats
        return {"C": mats, "F": np.asfortranarray(mats), "strided": wide[..., ::2]}

    def assert_routes_equal(self, monkeypatch, reducer, mats):
        expected = self.basis_products(reducer, mats).tobytes()
        for label, x in self.layouts(mats).items():
            for threshold in (0, 10**12):
                monkeypatch.setattr(reduction, "_NUMPY_PRODUCTS", threshold)
                got = reduction._project(reducer, x)
                assert got.shape == mats.shape[:-2] + (reducer.dim,)
                assert got.tobytes() == expected, (label, threshold)

    @pytest.mark.parametrize("batch", [(), (1,), (3,), (2, 2)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("group", list(GroupAction))
    def test_gram_roots(self, rng, monkeypatch, group, n, batch):
        minimal = 2 * n + (1 if group.quotients_translations else 0)
        # from the smallest shape up to operators well above the threshold
        for l in (minimal, minimal + 1, minimal + 3, 2 * n + 14):
            reducer = reducer_for(group, n, l)
            roots, _ = reduction.embeddings._block(group, _rows(rng, group, batch + (n, l)))
            self.assert_routes_equal(monkeypatch, reducer, roots)

    @pytest.mark.parametrize("size", [4, 5, 16])
    @pytest.mark.parametrize("ambient", list(Ambient))
    def test_zero_matrices_give_positive_zeros(self, monkeypatch, ambient, size):
        reducer = build_reducer(2, size, ambient)
        dtype = complex if ambient is Ambient.HERMITIAN else float
        for mats in (np.zeros((size, size), dtype), -np.zeros((3, size, size), dtype)):
            self.assert_routes_equal(monkeypatch, reducer, mats)
            for threshold in (0, 10**12):
                monkeypatch.setattr(reduction, "_NUMPY_PRODUCTS", threshold)
                got = reduction._project(reducer, mats)
                assert not got.any() and not np.signbit(got).any()

    @pytest.mark.parametrize("size", [4, 5, 16])
    def test_real_and_complex_storage(self, rng, monkeypatch, size):
        # project() admits a real matrix in the Hermitian ambient and a
        # complex one with zero imaginary part in the symmetric ambient
        m = random_low_rank_symmetric(rng, size, 4)
        self.assert_routes_equal(monkeypatch, build_reducer(2, size, Ambient.HERMITIAN), m)
        self.assert_routes_equal(monkeypatch, build_reducer(2, size, Ambient.SYMMETRIC), m + 0j)

    @pytest.mark.parametrize("ambient", list(Ambient))
    def test_threshold_picks_the_route(self, ambient):
        small, large = ReducerBasis(4, 5, ambient), ReducerBasis(4, 32, ambient)
        assert small._arrays.value.size <= reduction._NUMPY_PRODUCTS < large._arrays.value.size
        small.project(np.eye(5))
        assert "basis" not in vars(small)
        large.project(np.eye(32))
        # a large operator keeps no rows of its own
        assert "_rows" not in vars(large)
        op, csr = large._arrays, large.basis
        for mine, scipys in [(op.value, csr.data), (op.column, csr.indices), (op.indptr, csr.indptr)]:
            assert np.shares_memory(mine, scipys) and not scipys.flags.writeable

    def test_stack_of_small_matrices_takes_the_sparse_route(self, rng):
        # 32 roots of O 2 x 5 make 32 * 44 products, above the threshold; each
        # keeps the bits it has alone, which the numpy route computes
        group = GroupAction.ORTHOGONAL
        reducer = reducer_for(group, 2, 5)
        assert reducer._arrays.value.size <= reduction._NUMPY_PRODUCTS < 32 * reducer._arrays.value.size
        x = rng.standard_normal((32, 2, 5))
        stack = _reduced_stack(group, x)
        for i in range(32):
            assert stack[i].tobytes() == reduced_embedding(group, x[i]).tobytes()


class TestSerialization:
    def test_json_round_trip(self):
        rb = build_reducer(1, 4, Ambient.HERMITIAN)
        restored = ReducerBasis.from_json(rb.to_json())
        assert restored.rank == rb.rank
        assert restored.size == rb.size
        assert restored.ambient == rb.ambient
        assert restored.dim == rb.dim
        np.testing.assert_array_equal(restored.basis.toarray(), rb.basis.toarray())

    def test_payload_carries_parameters_only(self):
        rb = build_reducer(1, 4, Ambient.SYMMETRIC)
        payload = json.loads(rb.to_json())
        assert "basis" not in payload
        # payloads written with the basis array still load
        payload["basis"] = rb.basis.toarray().tolist()
        np.testing.assert_array_equal(
            ReducerBasis.from_json(json.dumps(payload)).basis.toarray(), rb.basis.toarray()
        )
        payload["rank"] = 3
        with pytest.raises(InvalidRankError):
            ReducerBasis.from_json(json.dumps(payload))


def _real_coords(m):
    c = np.asarray(m, dtype=complex)
    return np.concatenate([c.real.ravel(), c.imag.ravel()])


class TestLeastSquaresOracle:
    """Compare against a projection built straight from the definition of W:
    the complex span of the coefficient matrices of (x - y)^2n x^i y^j."""

    @pytest.mark.parametrize("ambient", list(Ambient))
    @pytest.mark.parametrize("n,size", [(1, 2), (1, 5), (2, 7), (3, 9), (12, 26)])
    def test_projection_matches_lstsq_complement(self, rng, ambient, n, size):
        mats = separating_subspace_basis(size, 2 * n)
        w = np.array([_real_coords(b) for b in mats] + [_real_coords(1j * b) for b in mats])
        w = w.T.reshape(2 * size * size, len(w))

        def residual(m):
            v = _real_coords(m)
            if not w.shape[1]:
                return v
            x, *_ = np.linalg.lstsq(w, v, rcond=None)
            return v - w @ x

        rb = build_reducer(n, size, ambient)
        ms = []
        for _ in range(6):
            g = rng.standard_normal((size, size))
            if ambient is Ambient.HERMITIAN:
                g = g + 1j * rng.standard_normal((size, size))
            ms.append(g + g.conj().T)
        coords = [rb.project(m) for m in ms]
        for m, c in zip(ms, coords):
            assert np.linalg.norm(c) == pytest.approx(np.linalg.norm(residual(m)), rel=1e-12)
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                expected = np.linalg.norm(residual(ms[i] - ms[j]))
                assert np.linalg.norm(coords[i] - coords[j]) == pytest.approx(expected, rel=1e-12)

    def test_large_size_dimensions(self):
        assert build_reducer(1, 64, Ambient.SYMMETRIC).dim == 2 * 64 - 1
        assert build_reducer(1, 64, Ambient.HERMITIAN).dim == 4 * (64 - 1)


def _rows(rng, group, shape):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if group.is_complex else x


class TestRankOneRoute:
    """At n = 1 the reduced features are self-correlations of the row (by
    FFT, with no Gram root and no sparse operator); the sparse product over
    the Gram roots is the oracle."""

    @pytest.mark.parametrize("l", ["minimal", 4, 5, 31, 32, 33, 256, 1024])
    @pytest.mark.parametrize("group", list(GroupAction))
    def test_matches_the_sparse_route(self, rng, group, l):
        if l == "minimal":
            l = 3 if group.quotients_translations else 2
        x = _rows(rng, group, (2 if l >= 256 else 8, 1, l))
        f = _reduced_stack(group, x)
        expected = csr_reduced_features(group, x)
        assert f.shape == expected.shape == (len(x), reduced_feature_dim(group, 1, l))
        tol = 1e-12 if group.is_complex else 1e-14
        err = np.linalg.norm(f - expected, axis=-1)
        assert (err <= tol * np.linalg.norm(expected, axis=-1)).all(), err

    @pytest.mark.parametrize("l", [5, 33])
    @pytest.mark.parametrize("group", list(GroupAction))
    def test_scalar_equals_database_row(self, rng, monkeypatch, group, l):
        # blocks of 4 rows of l, so the rows come from three batches, the
        # last of one record
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 4 * l)
        records = [(str(i), x) for i, x in enumerate(_rows(rng, group, (9, 1, l)))]
        db = ShapeDatabase(group, records, REDUCED)
        for i, (_, x) in enumerate(records):
            np.testing.assert_array_equal(reduced_embedding(group, x), db.features[i])

    @pytest.mark.parametrize("group", list(GroupAction))
    def test_zero_configuration_gives_zeros(self, group):
        f = reduced_embedding(group, np.zeros((1, 6)))
        np.testing.assert_array_equal(f, np.zeros(reduced_feature_dim(group, 1, 6)))

    @pytest.mark.parametrize("k", [-500, 500, 1000])
    @pytest.mark.parametrize("group", list(GroupAction))
    def test_power_of_two_scaling_is_exact(self, rng, group, k):
        a, scale = _rows(rng, group, (1, 7)), 2.0**k
        np.testing.assert_array_equal(
            reduced_embedding(group, scale * a), scale * reduced_embedding(group, a)
        )

    @pytest.mark.parametrize("group", list(GroupAction))
    def test_huge_row_has_a_finite_feature(self, rng, group):
        a = _rows(rng, group, (1, 9))
        f = reduced_embedding(group, 1e156 * a)
        assert np.isfinite(f).all()
        np.testing.assert_allclose(f, 1e156 * reduced_embedding(group, a), rtol=1e-12)

    def test_loads_no_operator(self, rng, monkeypatch):
        def _operator(*args):
            raise AssertionError("operator built")

        monkeypatch.setattr(reduction, "_operator", _operator)
        reduction.reducer_for.cache_clear()  # no reducer whose operator is built
        reduction.build_reducer.cache_clear()
        f = _reduced_stack(GroupAction.UNITARY, _rows(rng, GroupAction.UNITARY, (3, 1, 6)))
        assert f.shape == (3, reduced_feature_dim(GroupAction.UNITARY, 1, 6))


def _witness(l: int) -> tuple[np.ndarray, np.ndarray]:
    """For odd k = l - 1, the coefficient rows of ``((1+z)^k + (1-z)^k)/2``
    and ``((1+z)^k - (1-z)^k)/2``: the binomial coefficients of even and of
    odd degree.  The rows are orthogonal and of one norm."""
    c = np.array([math.comb(l - 1, j) for j in range(l)], dtype=float)
    even = np.where(np.arange(l) % 2 == 0, c, 0.0)
    return even, c - even


def _mixed_witness(l: int) -> tuple[np.ndarray, np.ndarray]:
    """For odd k = l - 1, with ``P = (1+z)^k`` and ``G = (1-z)^(k-1)``, the
    rows ``(P + G)/2``, ``P/2`` and ``(P - G)/2``, ``P/2``.  Unlike those of
    :func:`_witness`, the first rows hold both parities and square to
    polynomials of odd degree too (their squares differ by
    ``PG = (1-z^2)^(k-1) (1+z)``), so the roots of the two configurations
    differ on odd antidiagonals as well."""
    p = np.array([math.comb(l - 1, j) for j in range(l)], dtype=float)
    g = np.array([math.comb(l - 2, j) * (-1.0) ** j for j in range(l - 1)] + [0.0])
    return np.vstack([(p + g) / 2, p / 2]), np.vstack([(p - g) / 2, p / 2])


def _zero_padded(rows: tuple[np.ndarray, np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-by-l pair whose first rows are ``rows`` and whose other rows are zero."""
    return tuple(np.vstack([v] + [0.0 * v] * (n - 1)) for v in rows)


def _exact_ratio(a: np.ndarray, b: np.ndarray) -> mpmath.mpf:
    """||reduced(a) - reduced(b)|| / d(a, b) under O at 50 digits, from the
    definitions, for real n-by-l configurations of full row rank: the root
    ``a^T (a a^T)^(-1/2) a``; on each antidiagonal s, of L_s cells, its
    moments against the orthonormal polynomials in ``c - s/2`` of even
    degree below ``min(2n, L_s)`` (at n = 1 only degree 0, the sum of
    ``y_{s-c} y_c / ||y||`` over sqrt(L_s)); and
    ``d^2 = ||a||^2 + ||b||^2 - 2 ||a b^T||_*``."""
    n, l = a.shape
    with mpmath.workdps(50):

        def feature(x):
            evals, evecs = mpmath.eigsy(x * x.T)
            root = x.T * evecs * mpmath.diag([1 / mpmath.sqrt(e) for e in evals]) * evecs.T * x
            out = []
            for s in range(2 * l - 1):
                cells = range(max(0, s - l + 1), min(s, l - 1) + 1)
                basis = []  # Gram-Schmidt on 1, t, t^2, ...
                for k in range(min(2 * n, len(cells))):
                    v = [(c - mpmath.mpf(s) / 2) ** k for c in cells]
                    for u in basis:
                        dot = mpmath.fsum(p * q for p, q in zip(v, u))
                        v = [p - dot * q for p, q in zip(v, u)]
                    norm = mpmath.sqrt(mpmath.fsum(p * p for p in v))
                    basis.append([p / norm for p in v])
                out += [mpmath.fsum(w * root[s - c, c] for w, c in zip(u, cells)) for u in basis[::2]]
            return out

        x, y = mpmath.matrix(a.tolist()), mpmath.matrix(b.tolist())
        gap = mpmath.sqrt(mpmath.fsum((p - q) ** 2 for p, q in zip(feature(x), feature(y))))
        nuclear = mpmath.fsum(mpmath.svd_r(x * y.T, compute_uv=False))
        return gap / mpmath.sqrt(mpmath.fsum(v * v for v in x) + mpmath.fsum(v * v for v in y) - 2 * nuclear)


@functools.lru_cache(maxsize=None)
def _witness_ratio(l: int) -> mpmath.mpf:
    """:func:`_exact_ratio` of the rows of :func:`_witness`.  Its reduced
    feature is ``Y(z)^2 / ||y||`` with weight 1/sqrt(L_s) on antidiagonal s,
    and the squares of y and y' differ by the coefficients of
    ``(1 - z^2)^k``, which are exponentially smaller."""
    return _exact_ratio(*_zero_padded(_witness(l), 1))


@functools.lru_cache(maxsize=None)
def _mixed_witness_ratio(l: int, n: int) -> mpmath.mpf:
    """:func:`_exact_ratio` of the first n rows of :func:`_mixed_witness`."""
    return _exact_ratio(*(x[:n] for x in _mixed_witness(l)))


def _ratios(group: GroupAction, a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """The reduced and the full map's ratio ||f(A) - f(B)|| / d(A, B) under
    ``group`` for the real configurations whose rows are ``a`` and ``b`` as
    the group reads them: under a translation quotient, ``a`` and ``b``
    are the Helmert coordinates (x W') of l + 1 points."""
    if group.quotients_translations:
        helmert = embeddings._helmert(np.eye(a.shape[1] + 1))
        a, b = a @ helmert.T, b @ helmert.T
    if group.is_complex:
        a, b = a + 0j, b + 0j
    d = orbit_distance(group, a, b)[0]
    reduced = np.linalg.norm(reduced_embedding(group, a) - reduced_embedding(group, b)) / d
    full = np.linalg.norm(feature_vector(group, a) - feature_vector(group, b)) / d
    return reduced, full


# the n = 2 witness rows' reduced ratio to four digits, at some l
N2_RATIOS = {6: 0.2865, 8: 6.335e-2, 16: 1.718e-4, 32: 2.027e-9}
WITNESS_GROUPS = [GroupAction.ORTHOGONAL, GroupAction.UNITARY, GroupAction.EUCLIDEAN]


class TestCompactRatio:
    """The reduced map's lower Lipschitz ratio is exponentially small in l
    on a witness pair (:func:`_witness`), at n = 1 and as the first rows
    of an n = 2 pair, while the full map's is 1: a survey's minimum over
    random pairs is only an upper bound.  Pairs of mixed parity
    (:func:`_mixed_witness`) are as small and pin the odd antidiagonals,
    which the first family leaves at zero."""

    @pytest.mark.parametrize("l", range(4, 33, 2))
    @pytest.mark.parametrize("group", WITNESS_GROUPS)
    def test_witness_pair(self, group, l):
        reduced, full = _ratios(group, *_zero_padded(_witness(l), 1))
        # each errs by a few dozen ulps of the features, whose norm is d
        assert abs(reduced - float(_witness_ratio(l))) <= 2.0**-46
        assert abs(full - 1.0) <= 2.0**-46
        if l == 32:
            assert reduced < 4e-10

    @pytest.mark.parametrize("l", range(4, 33, 2))
    @pytest.mark.parametrize("group", WITNESS_GROUPS)
    def test_witness_rows_at_n2(self, group, l):
        # the rows (y, 0) and (y', 0): the zero row leaves the root as at
        # n = 1, and the rank-4 reducer keeps the degree-0 coordinates of
        # the rank-2 one, plus degree 2, so the ratio is at least the n = 1
        # one; it is 1 at l = 4, where size = 2n keeps every coordinate
        reduced, full = _ratios(group, *_zero_padded(_witness(l), 2))
        assert reduced >= float(_witness_ratio(l)) - 2.0**-46
        assert reduced <= 10.0 * 2.0 ** (1 - l)
        assert abs(full - 1.0) <= 2.0**-46
        if l == 4:
            assert abs(reduced - 1.0) <= 2.0**-46
        if l in N2_RATIOS:
            assert reduced == pytest.approx(N2_RATIOS[l], rel=2e-4)

    @pytest.mark.parametrize("l", range(4, 33, 2))
    @pytest.mark.parametrize("group", WITNESS_GROUPS)
    @pytest.mark.parametrize("n", [1, 2])
    def test_mixed_parity_rows(self, n, group, l):
        # both squares of _witness have even degrees only, so a reducer
        # that read only the even antidiagonals would pass the two tests
        # above; these rows differ on the odd ones too
        reduced, full = _ratios(group, *(x[:n] for x in _mixed_witness(l)))
        assert abs(reduced - float(_mixed_witness_ratio(l, n))) <= 2.0**-46
        assert 1.0 - 2.0**-46 <= full <= math.sqrt(2.0)
        if l == 32:
            assert reduced < 4e-9


class TestDimension:
    @pytest.mark.parametrize(
        "group,n,l",
        [
            (GroupAction.UNITARY, 3, 2),
            (GroupAction.ORTHOGONAL, 2, 3),
            (GroupAction.EUCLIDEAN, 1, 2),
            (GroupAction.COMPLEX_EUCLIDEAN, 2, 4),
        ],
    )
    def test_refused_shapes_raise_as_the_reducer_does(self, rng, group, n, l):
        with pytest.raises(DimensionHypothesisError) as dim_error:
            reduced_feature_dim(group, n, l)
        with pytest.raises(DimensionHypothesisError) as embed_error:
            reduced_embedding(group, _rows(rng, group, (n, l)))
        with pytest.raises(DimensionHypothesisError) as reducer_error:
            reducer_for(group, n, l)
        assert str(dim_error.value) == str(embed_error.value) == str(reducer_error.value)

    @pytest.mark.parametrize("ambient", list(Ambient))
    @pytest.mark.parametrize("n", range(1, 4))
    def test_closed_form_dim_counts_the_operator_rows(self, ambient, n):
        for size in range(2 * n, 2 * n + 4):
            rb = ReducerBasis(rank=2 * n, size=size, ambient=ambient)
            dim = rb.dim
            assert "basis" not in vars(rb)  # the closed form builds nothing
            assert rb.basis.shape[0] == dim


class TestReducerValue:
    """A reducer is the value (rank, size, ambient), checked once when it is
    made; the feature code looks it up by shape."""

    @pytest.mark.parametrize(
        "rank, size, ambient, error",
        [
            (3, 5, Ambient.SYMMETRIC, InvalidRankError),
            (0, 4, Ambient.HERMITIAN, InvalidRankError),
            (-2, 4, Ambient.SYMMETRIC, InvalidRankError),
            (4, 3, Ambient.SYMMETRIC, DimensionHypothesisError),
            (True, 4, Ambient.SYMMETRIC, InvalidRankError),
            (2.5, 4, Ambient.SYMMETRIC, InvalidRankError),
            (2.0, 4, Ambient.HERMITIAN, InvalidRankError),
            (2, 4.5, Ambient.SYMMETRIC, DimensionHypothesisError),
            (2, "5", Ambient.HERMITIAN, DimensionHypothesisError),
        ],
    )
    def test_construction_refuses(self, rank, size, ambient, error):
        with pytest.raises(error):
            ReducerBasis(rank, size, ambient)
        payload = {"rank": rank, "size": size, "ambient": ambient.value}
        with pytest.raises(error):
            ReducerBasis.from_json(json.dumps(payload))

    def test_build_reducer_refuses_as_the_value_does(self):
        for n in (0, 1.0):
            with pytest.raises(InvalidRankError):
                build_reducer(n, 4, Ambient.SYMMETRIC)

    @pytest.mark.parametrize("ambient", list(Ambient))
    def test_dim_counts_rows_and_json_round_trips(self, ambient):
        for rank in (2, 4, 6):
            for size in range(rank, rank + 5):
                rb = ReducerBasis(rank, size, ambient)
                assert rb.dim == rb.basis.shape[0]
                assert rb.dim + rb.intersection_dim == (
                    size * (size + 1) // 2 if ambient is Ambient.SYMMETRIC else size * size
                )
                restored = ReducerBasis.from_json(rb.to_json())
                assert restored == rb
                np.testing.assert_array_equal(restored.basis.toarray(), rb.basis.toarray())

    def test_hand_built_reducer_returns_no_feature_for_a_refused_shape(self, rng):
        a = rng.standard_normal((2, 3))
        group = GroupAction.ORTHOGONAL
        with pytest.raises(DimensionHypothesisError):
            reduced_embedding(group, a, ReducerBasis(4, 3, Ambient.SYMMETRIC))
        # a valid reducer of another shape cannot stand in for the refused one
        for call in (
            lambda: reduced_embedding(group, a, ReducerBasis(4, 4, Ambient.SYMMETRIC)),
            lambda: feature_vector(group, a, REDUCED, ReducerBasis(4, 4, Ambient.SYMMETRIC)),
            lambda: reduced_embedding(group, a),
        ):
            with pytest.raises(DimensionHypothesisError):
                call()

    def test_equal_value_is_accepted(self, rng):
        group = GroupAction.UNITARY
        a = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        same = ReducerBasis(4, 6, Ambient.HERMITIAN)
        assert same is not reducer_for(group, 2, 6)
        np.testing.assert_array_equal(reduced_embedding(group, a, same), reduced_embedding(group, a))

    @pytest.mark.parametrize(
        "group, n, l",
        [(GroupAction.EUCLIDEAN, 1, 2), (GroupAction.UNITARY, 1, 1), (GroupAction.ORTHOGONAL, 2, 3)],
    )
    def test_stacks_refuse_shapes_without_a_reducer(self, rng, group, n, l):
        x = _rows(rng, group, (3, n, l))
        with pytest.raises(DimensionHypothesisError):
            _reduced_stack(group, x)
        with pytest.raises(DimensionHypothesisError):
            ShapeDatabase(group, [(str(i), m) for i, m in enumerate(x)], REDUCED)

    def test_reducer_for_is_memoized_and_refusals_are_not(self):
        group = GroupAction.EUCLIDEAN
        assert reducer_for(group, 2, 7) is reducer_for(group, 2, 7)
        for _ in range(2):
            with pytest.raises(DimensionHypothesisError):
                reducer_for(group, 2, 4)
        # the memo tells 2 from 2.0, so a cached reducer never admits a float n
        with pytest.raises(InvalidRankError):
            reducer_for(group, 2.0, 7)
        with pytest.raises(InvalidRankError):
            build_reducer(2.0, 6, Ambient.SYMMETRIC)
