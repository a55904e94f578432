import warnings

import mpmath
import numpy as np
import pytest

from orbitdist import (
    ConvergenceFailureError,
    GroupAction,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    ShapeMismatchError,
    embedding_for,
    psd_sqrt,
)
from orbitdist import linalg
from orbitdist.linalg import _unscaled, svd

from oracles import nuclear_norm_by_gram

# factor orthonormality (absolute, unit-scale factors) and relative
# reconstruction tolerances of the SVD
ORTH_TOL = 1e-8
RECON_TOL = 1e-10


def nuclear_norm(m) -> float:
    return float(svd(m)[1].sum())


class TestSvd:
    def test_identity(self):
        u, s, v = svd(np.eye(3))
        np.testing.assert_allclose(s, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(u @ np.diag(s) @ v.T, np.eye(3), atol=1e-12)

    def test_diagonal_with_sign(self):
        # singular values are the absolute diagonal entries
        _, s, _ = svd(np.diag([3.0, -4.0]))
        np.testing.assert_allclose(s, [4.0, 3.0])

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4), (3, 3)])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_reconstruction_and_factor_invariants(self, rng, shape, complex_entries):
        m = rng.standard_normal(shape)
        if complex_entries:
            m = m + 1j * rng.standard_normal(shape)
        u, s, v = svd(m)
        r = min(shape)
        assert u.shape == (shape[0], r) and v.shape == (shape[1], r)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        assert np.abs(u.conj().T @ u - np.eye(r)).max() < ORTH_TOL
        assert np.abs(v.conj().T @ v - np.eye(r)).max() < ORTH_TOL
        recon = u @ np.diag(s) @ v.conj().T
        assert np.linalg.norm(recon - m) <= RECON_TOL * np.linalg.norm(m)

    def test_real_input_gives_real_factors(self, rng):
        u, s, v = svd(rng.standard_normal((3, 5)))
        assert not np.iscomplexobj(u) and not np.iscomplexobj(v)

    def test_stack_matches_each_matrix(self, rng):
        m = rng.standard_normal((5, 3, 4))
        u, s, v = svd(m)
        assert u.shape == (5, 3, 3) and s.shape == (5, 3) and v.shape == (5, 4, 3)
        for i in range(5):
            ui, si, vi = svd(m[i])
            np.testing.assert_allclose(s[i], si, rtol=1e-14)
            np.testing.assert_allclose((u[i] * s[i]) @ v[i].T, m[i], atol=1e-12)


def _svd_inputs():
    rng = np.random.default_rng(7)
    real = {
        f"{n}x{l}": rng.standard_normal((n, l)) for n, l in [(2, 5), (5, 2), (3, 3), (1, 1)]
    }
    cases = dict(real)
    cases.update({k + " complex": v + 1j * rng.standard_normal(v.shape) for k, v in real.items()})
    cases["stack"] = rng.standard_normal((4, 3, 2, 6))
    cases["complex stack"] = rng.standard_normal((5, 3, 4)) + 1j * rng.standard_normal((5, 3, 4))
    cases["empty 0x3"] = np.zeros((0, 3))
    cases["empty 2x0"] = np.zeros((2, 0))
    cases["empty stack"] = np.zeros((0, 2, 3))
    cases["fortran"] = np.asfortranarray(rng.standard_normal((4, 7)))
    cases["strided view"] = rng.standard_normal((9, 12))[::2, 1::3]
    cases["transposed complex"] = cases["2x5 complex"].T
    cases["integers"] = np.arange(12).reshape(3, 4)
    cases["float32"] = rng.standard_normal((3, 5)).astype(np.float32)
    return cases


SVD_INPUTS = _svd_inputs()


class TestSvdIsNumpySvd:
    """``svd`` calls LAPACK's thin SVD itself; its factors are those of
    ``np.linalg.svd(m, full_matrices=False)`` to the bit.  It is a kernel:
    its callers pass arrays validated where the input entered, and
    test_scalar_api.py checks that no NaN/Inf reaches it."""

    @pytest.mark.parametrize("name", sorted(SVD_INPUTS))
    def test_bit_identical_to_numpy(self, name):
        m = SVD_INPUTS[name]
        u, s, v = svd(m)
        want_u, want_s, want_vh = np.linalg.svd(np.asarray(m, dtype=u.dtype), full_matrices=False)
        for got, want in [(u, want_u), (s, want_s), (v.conj().swapaxes(-1, -2), want_vh)]:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_factor_dtypes(self):
        assert svd(SVD_INPUTS["integers"])[0].dtype == np.float64
        u, s, v = svd(SVD_INPUTS["2x5 complex"])
        assert u.dtype == v.dtype == np.complex128
        assert s.dtype == np.float64

    def test_nonconvergence_raises(self, monkeypatch):
        class NotConverging:
            # the gufunc reports nonconvergence by the "invalid" FP flag
            @staticmethod
            def svd_s(a, signature):
                np.zeros(1) / np.zeros(1)
                return np.linalg.svd(a, full_matrices=False)

        monkeypatch.setattr(linalg, "_umath_linalg", NotConverging)
        with pytest.raises(ConvergenceFailureError, match="did not converge"):
            svd(np.eye(2))

    # each check runs in an np.errstate block of its own, so that a state
    # that an earlier call left behind cannot hide one that this call leaves
    def test_error_state_is_restored_after_success(self):
        with np.errstate(all="warn", call=None):
            before = np.geterr(), np.geterrcall()
            svd(np.arange(6.0).reshape(2, 3))
            assert (np.geterr(), np.geterrcall()) == before

    def test_error_state_is_restored_after_nonconvergence(self, monkeypatch):
        with np.errstate(all="warn", call=None):
            before = np.geterr(), np.geterrcall()
            self.test_nonconvergence_raises(monkeypatch)
            assert (np.geterr(), np.geterrcall()) == before

    def test_callers_error_state_survives(self):
        # the caller's "raise" holds again once svd returns
        with np.errstate(all="raise", call=None):
            before = np.geterr(), np.geterrcall()
            svd(np.arange(6.0).reshape(3, 2))
            assert (np.geterr(), np.geterrcall()) == before
            with pytest.raises(FloatingPointError):
                np.ones(1) / np.zeros(1)

    @pytest.mark.parametrize(
        "m",
        [
            np.zeros((2, 5)),
            np.zeros((3, 4), dtype=complex),
            np.outer([1.0, 2.0, 3.0], [1.0, -1.0, 0.5, 2.0]),
            1e300 * np.random.default_rng(3).standard_normal((3, 6)),
            1e-300 * np.random.default_rng(4).standard_normal((3, 6)),
            1e300 * np.random.default_rng(5).standard_normal((2, 3, 3)) * (1 + 1j),
            1e-300 * np.random.default_rng(6).standard_normal((2, 3, 3)) * (1 - 1j),
        ],
        ids=["zero", "zero complex", "rank one", "1e300", "1e-300", "1e300 complex", "1e-300 complex"],
    )
    def test_lapack_flags_are_silent(self, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, s, v = svd(m)
        assert np.isfinite(s).all() and np.isfinite(u).all() and np.isfinite(v).all()


class TestUnscaled:
    def test_array_scale_overflow_is_silent_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _unscaled(np.array([1e308, 1.0]), np.array([2.0**-1000, 2.0**-1000]))
        assert got[0] == np.inf and got[1] == 2.0**1000

    def test_tiny_float_scale_overflow_is_silent_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _unscaled(np.array([1e308, 0.5]), 2.0**-1023)
        assert got[0] == np.inf and got[1] == 2.0**1022

    def test_complex_divides_by_parts(self):
        # numpy's complex division by c forms 1/c, which overflows for a
        # subnormal c; each part divided alone is exact
        for c in (2.0**-1024, np.array([[2.0**-1024]])):
            got = _unscaled(np.array([[complex(2.0**-30, -(2.0**-40))]]), c)
            assert got.dtype == np.complex128 and got[0, 0] == complex(2.0**994, -(2.0**984))

    def test_float_scale_divides_plainly(self):
        # a Python float scale >= 2^-1000 enters no error state of its own:
        # it divides in the caller's, which here raises on overflow
        f = np.array([3.0, 2.0**-20])
        with np.errstate(all="raise"):
            assert _unscaled(f, 2.0**-1000).tolist() == [3.0 * 2.0**1000, 2.0**980]
            assert _unscaled(f, 0.5).tolist() == [6.0, 2.0**-19]
            with pytest.raises(FloatingPointError):
                _unscaled(np.array([2.0**1023]), 0.5)


class TestNuclearNorm:
    def test_identity(self):
        assert nuclear_norm(np.eye(5)) == pytest.approx(5.0)

    def test_diagonal(self):
        assert nuclear_norm(np.diag([3.0, -4.0])) == pytest.approx(7.0)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_matches_gram_eigenvalue_oracle(self, rng, complex_entries):
        for _ in range(20):
            m = rng.standard_normal((3, 5))
            if complex_entries:
                m = m + 1j * rng.standard_normal((3, 5))
            assert nuclear_norm(m) == pytest.approx(nuclear_norm_by_gram(m), rel=1e-10)

    def test_bounds_frobenius_and_trace(self, rng):
        for _ in range(50):
            m = rng.standard_normal((4, 4))
            nuc = nuclear_norm(m)
            assert nuc >= np.linalg.norm(m) - 1e-12
            assert nuc >= abs(np.trace(m).real) - 1e-12

    def test_trace_equality_for_psd(self, rng):
        g = rng.standard_normal((5, 5))
        b = g @ g.T
        assert nuclear_norm(b) == pytest.approx(np.trace(b), rel=1e-10)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(2)), np.eye(2), atol=1e-12)

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_zero(self):
        np.testing.assert_allclose(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    @pytest.mark.parametrize("size", range(2, 9))
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_square_of_root_reconstructs_gram(self, rng, size, complex_entries):
        g = rng.standard_normal((size, size))
        if complex_entries:
            g = g + 1j * rng.standard_normal((size, size))
        b = g.conj().T @ g
        r = psd_sqrt(b)
        assert np.linalg.norm(r - r.conj().T) < 1e-12 * max(1.0, np.linalg.norm(r))
        assert np.min(np.linalg.eigvalsh(r)) > -1e-10
        assert np.linalg.norm(r @ r - b) <= 1e-10 * np.linalg.norm(b)
        if not complex_entries:
            assert not np.iscomplexobj(r)

    def test_rank_deficient_gram(self, rng):
        g = rng.standard_normal((2, 4))
        b = g.T @ g  # rank 2 out of 4
        r = psd_sqrt(b)
        assert np.linalg.norm(r @ r - b) <= 1e-10 * np.linalg.norm(b)

    # at 1e200 the norms overflow unless each matrix is measured at its
    # power of two; a warning is an error here
    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_rejects_asymmetric(self, scale):
        with pytest.raises(NotHermitianError):
            psd_sqrt(scale * np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotHermitianError):
            psd_sqrt(scale * np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_rejects_negative_definite(self, scale):
        with pytest.raises(NotPSDError):
            psd_sqrt(scale * np.diag([1.0, -0.5]))

    def test_rejects_a_matrix_that_is_not_square(self):
        with pytest.raises(ShapeMismatchError, match="square"):
            psd_sqrt(np.zeros((2, 3)))

    def test_stack_matches_each_matrix(self, rng):
        g = rng.standard_normal((6, 2, 3))
        b = np.swapaxes(g, -1, -2) @ g
        r = psd_sqrt(b)
        for i in range(6):
            np.testing.assert_allclose(r[i], psd_sqrt(b[i]), atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e200])
    def test_stack_rejects_one_negative_matrix(self, scale):
        # each matrix is measured at its own power of two
        with pytest.raises(NotPSDError):
            psd_sqrt(np.stack([np.eye(2), scale * np.diag([1.0, -0.5]), np.eye(2)]))

    def test_clamps_roundoff_negatives(self):
        b = np.diag([1.0, -1e-12])
        r = psd_sqrt(b)
        assert r[1, 1] == 0.0

    # the root is factored at a power of four and divided by its square
    # root, so an input whose eigenvalues pass float64, or whose entries
    # are subnormal, has the root of its scaled copy; a warning is an error
    def test_root_near_the_float64_limit(self):
        b = np.array([[1.0, 0.5], [0.5, 1.0]])
        got = psd_sqrt(1.7e308 * b)
        np.testing.assert_allclose(got, np.sqrt(1.7e308) * psd_sqrt(b), rtol=1e-15, atol=0)

    def test_complex_root_near_the_float64_limit(self):
        m = np.array([[1.0, 1j], [-1j, 1.0]])
        got = psd_sqrt(1e308 * m)
        np.testing.assert_allclose(got, np.sqrt(0.5e308) * m, rtol=1e-15, atol=0)

    def test_subnormal_root_matches_mpmath(self, rng):
        worst = 0.0
        for _ in range(200):
            g = rng.standard_normal((3, 3))
            b = g.T @ g
            b = (b / np.abs(b).max()) * 1e-315  # subnormal entries, as stored
            r = psd_sqrt(b)
            with mpmath.workdps(60):
                w, q = mpmath.eigsy(mpmath.matrix(b.tolist()))
                root = q * mpmath.diag([mpmath.sqrt(max(e, 0)) for e in w]) * q.T
                err = mpmath.mnorm(mpmath.matrix(r.tolist()) - root, "f") / mpmath.mnorm(root, "f")
            worst = max(worst, float(err))
        assert worst <= 1e-13

    def test_root_of_an_infinite_entry_is_refused(self):
        with pytest.raises(NonFiniteError):
            psd_sqrt(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_every_root_is_exactly_hermitian(self, rng, complex_entries):
        g = rng.standard_normal((200, 6, 6))
        if complex_entries:
            g = g + 1j * rng.standard_normal((200, 6, 6))
        r = psd_sqrt(g @ linalg._adjoint(g))
        assert (r == linalg._adjoint(r)).all()
        assert r.dtype == (np.complex128 if complex_entries else np.float64)

    @pytest.mark.parametrize("group", list(GroupAction))
    @pytest.mark.parametrize("l", [6, 64, 256])
    def test_every_gram_root_is_exactly_hermitian(self, rng, group, l):
        # the feature matrix is the Gram root of the (centred) configuration
        a = rng.standard_normal((3, l))
        if group.is_complex:
            a = a + 1j * rng.standard_normal((3, l))
        r = embedding_for(group, a)[0]
        assert r.shape == (l, l)
        assert (r == linalg._adjoint(r)).all()

    def test_eigensolver_failure_is_a_convergence_failure(self, monkeypatch):
        def eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(ConvergenceFailureError, match="did not converge"):
            psd_sqrt(np.eye(2))
