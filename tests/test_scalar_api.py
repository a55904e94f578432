"""The scalar entry points against their error contract, and the reduced
feature against the stacked kernel of the database build.

Each scalar entry validates its input once, at the public boundary; the
error tests pin down that every malformed input still raises the same
OrbitDistError subclass at every entry.  (Full features and distances are
checked against the stacked kernels in test_search.py and test_metrics.py.)
"""
import re
import warnings

import numpy as np
import pytest

from orbitdist import (
    Ambient,
    AmbientMismatchError,
    DimensionHypothesisError,
    GroupAction,
    InvalidRankError,
    NonFiniteError,
    OutOfRangeError,
    ReducerBasis,
    ShapeDatabase,
    ShapeMismatchError,
    build_reducer,
    center,
    dist_complex_euclidean,
    dist_euclidean,
    dist_orthogonal,
    dist_unitary,
    embedding_for,
    feature_nearest,
    feature_vector,
    linear_scan_nearest,
    orbit_distance,
    psd_sqrt,
    reduced_embedding,
    reduced_feature_dim,
    reducer_for,
    separating_subspace_basis,
    side_lengths,
    side_lengths_counterexample,
    triangle_embedding,
    verify,
)
from orbitdist import embeddings, linalg, metrics
from orbitdist.experiments import lower_constant_survey
from orbitdist.features import _feature_stack
from orbitdist.linalg import svd

G = GroupAction
GROUPS = list(GroupAction)
REAL_ACTIONS = [G.ORTHOGONAL, G.EUCLIDEAN]
DISTANCES = {
    G.ORTHOGONAL: dist_orthogonal,
    G.EUCLIDEAN: dist_euclidean,
    G.UNITARY: dist_unitary,
    G.COMPLEX_EUCLIDEAN: dist_complex_euclidean,
}
# n x l shapes that every group can reduce
N, L = 1, 5


def good(rng, group, n=N, l=L):
    a = rng.standard_normal((n, l))
    return a + 1j * rng.standard_normal((n, l)) if group.is_complex else a


def with_entry(a, value):
    a = np.array(a)
    a[0, 1] = value
    return a


# (label, nested list or object array that is not a float64 matrix, error
# class), for every group: rows of unequal length, a Python integer beyond
# float64, text (numeric text too, which numpy would cast), and a complex
# number beside an integer beyond float64
MALFORMED_LISTS = [
    ("ragged", [[1.0, 2.0], [3.0]], ShapeMismatchError),
    ("integer beyond float64", [[10**400] + [0] * (L - 1)], NonFiniteError),
    ("text", [["a"] + [0.0] * (L - 1)], NonFiniteError),
    ("numeric text", [["1.5"] * L], NonFiniteError),
    ("numeric text beside numbers", [["1.5"] + [0.0] * (L - 1)], NonFiniteError),
    ("bytes", [[b"1.5"] * L], NonFiniteError),
    ("object array holding text", np.array([["1.5"] + [0.0] * (L - 1)], dtype=object), NonFiniteError),
    ("complex and integer beyond float64", [[1j, 10**400] + [0] * (L - 2)], NonFiniteError),
]


def bad_inputs(rng, group):
    """(label, malformed configuration, error class) for one group."""
    a = good(rng, group)
    cases = [
        ("nan", with_entry(a, np.nan), NonFiniteError),
        ("inf", with_entry(a, np.inf), NonFiniteError),
        ("3-D", a[None], ShapeMismatchError),
    ] + MALFORMED_LISTS
    if not group.is_complex:
        cases.append(("complex", a + 1j, ShapeMismatchError))
        cases.append(("complex objects", (a + 1j).astype(object), ShapeMismatchError))
    return cases


def scalar_entries(group):
    """(name, call taking one configuration) for every scalar entry."""
    reducer = reducer_for(group, N, L)
    return [
        ("orbit_distance", lambda a: orbit_distance(group, a, a)),
        ("dist_*", lambda a: DISTANCES[group](a, a)),
        ("embedding_for", lambda a: embedding_for(group, a)),
        ("feature_vector", lambda a: feature_vector(group, a)),
        ("feature_vector reduced", lambda a: feature_vector(group, a, "reduced", reducer)),
        ("reduced_embedding", lambda a: reduced_embedding(group, a, reducer)),
        ("reduced_embedding no reducer", lambda a: reduced_embedding(group, a)),
    ]


def database_entries(rng, group, feature_map):
    db = ShapeDatabase(group, [(f"r{i}", good(rng, group)) for i in range(4)], feature_map)
    hit = feature_nearest(db, db.matrices[0])[0]
    return [
        ("query_feature", db.query_feature),
        ("feature_nearest", lambda q: feature_nearest(db, q, k=2)),
        ("linear_scan_nearest", lambda q: linear_scan_nearest(db, q)),
        ("verify", lambda q: verify(db, hit, q)),
    ]


class TestErrorContract:
    @pytest.mark.parametrize("group", GROUPS)
    def test_scalar_entries(self, rng, group):
        for label, a, error in bad_inputs(rng, group):
            for name, call in scalar_entries(group):
                with pytest.raises(error):
                    call(a)
                    pytest.fail(f"{name} accepted a {label} input")

    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize("feature_map", ["full", "reduced"])
    def test_database_entries(self, rng, group, feature_map):
        cases = bad_inputs(rng, group) + [
            ("wrong shape", good(rng, group, N, L + 1), ShapeMismatchError),
            ("transposed", good(rng, group).T, ShapeMismatchError),
        ]
        for name, call in database_entries(rng, group, feature_map):
            for label, q, error in cases:
                with pytest.raises(error):
                    call(q)
                    pytest.fail(f"{name} accepted a {label} query")

    def test_malformed_lists_at_the_other_entries(self, rng):
        aligner = orbit_distance(G.ORTHOGONAL, good(rng, G.ORTHOGONAL), good(rng, G.ORTHOGONAL))[1]
        entries = [("center", center), ("psd_sqrt", psd_sqrt), ("Alignment.apply", aligner.apply)]
        for label, bad, error in MALFORMED_LISTS:
            for name, call in entries:
                with pytest.raises(error):
                    call(bad)
                    pytest.fail(f"{name} accepted a {label} input")

    @pytest.mark.parametrize("group", GROUPS)
    def test_object_arrays_read_as_their_numbers(self, rng, group):
        # an array of Python numbers has the bits of the float64 array, and
        # one that holds a complex number those of the complex128 array,
        # which a real group refuses (bad_inputs)
        a, b = good(rng, group), good(rng, group)
        a[0, 0] = 2.0
        objects_a, objects_b = a.astype(object), b.astype(object)
        objects_a[0, 0] = 2.0  # a Python float among Python complex numbers
        calls = [
            lambda x, y: orbit_distance(group, x, y)[0],
            lambda x, y: feature_vector(group, x),
            lambda x, y: reduced_embedding(group, y),
        ]
        for call in calls:
            expected, got = np.asarray(call(a, b)), np.asarray(call(objects_a, objects_b))
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("group", GROUPS)
    def test_pair_shapes_must_match(self, rng, group):
        a, b = good(rng, group), good(rng, group, N, L + 1)
        for call in (lambda: orbit_distance(group, a, b), lambda: DISTANCES[group](b, a)):
            with pytest.raises(ShapeMismatchError):
                call()

    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize("n, l", [(N, L + 1), (N + 1, L + 1)])
    def test_reducer_of_wrong_size(self, rng, group, n, l):
        # the reducer of n x l inputs, applied to an N x L configuration
        reducer = reducer_for(group, n, l)
        a = good(rng, group)
        with pytest.raises(ShapeMismatchError):
            reduced_embedding(group, a, reducer)
        with pytest.raises(ShapeMismatchError):
            feature_vector(group, a, "reduced", reducer)

    @pytest.mark.parametrize("group", [G.UNITARY, G.COMPLEX_EUCLIDEAN])
    def test_symmetric_reducer_rejects_complex_features(self, rng, group):
        # right size, wrong ambient: it would drop the imaginary part
        size = reducer_for(group, N, L).size
        reducer = build_reducer(N, size, Ambient.SYMMETRIC)
        a = good(rng, group)
        with pytest.raises(AmbientMismatchError):
            reduced_embedding(group, a, reducer)
        with pytest.raises(AmbientMismatchError):
            feature_vector(group, a, "reduced", reducer)

    @pytest.mark.parametrize("group", REAL_ACTIONS)
    def test_hermitian_reducer_rejected_under_real_groups(self, rng, group):
        size = reducer_for(group, N, L).size
        reducer = build_reducer(N, size, Ambient.HERMITIAN)
        with pytest.raises(AmbientMismatchError):
            reduced_embedding(group, good(rng, group), reducer)

    @pytest.mark.parametrize("group, n", [(G.EUCLIDEAN, 2), (G.COMPLEX_EUCLIDEAN, 1)])
    def test_translation_quotient_refuses_zero_points(self, group, n):
        # the mean of no points is undefined: one ShapeMismatchError, no warning
        a = np.zeros((n, 0), dtype=complex if group.is_complex else float)
        entries = scalar_entries(group) + [
            (f"ShapeDatabase {m}", lambda x, m=m: ShapeDatabase(group, [("x", x)], m))
            for m in ("full", "reduced")
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, call in entries:
                with pytest.raises(ShapeMismatchError, match="a configuration needs at least one column"):
                    call(a)
                    pytest.fail(f"{name} accepted {n} x 0 points")

    @pytest.mark.parametrize("n", [1, 2])
    def test_coincident_extreme_points_have_the_zero_feature(self, n):
        # finite entries whose centring sum would overflow: every point
        # coincides, so each feature is zero, with no warning on the way
        a = np.full((n, 6), 1.5e308)
        for group in (G.EUCLIDEAN, G.COMPLEX_EUCLIDEAN):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                features = [
                    reduced_embedding(group, a),
                    feature_vector(group, a, "reduced"),
                    feature_vector(group, a),
                    *embedding_for(group, a),
                ]
            for f in features:
                assert np.isfinite(f).all() and not f.any()

    @pytest.mark.parametrize("n", [1, 2])
    def test_reduced_feature_beyond_float64(self, n):
        # one point at +1.5e308, five at -1.5e308: the centred first point
        # is 2.5e308, and the feature truly exceeds float64
        a = np.full((n, 6), -1.5e308)
        a[:, 0] = 1.5e308
        too_large = "^A has a feature too large for float64$"
        for group in (G.EUCLIDEAN, G.COMPLEX_EUCLIDEAN):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError, match=too_large):
                    reduced_embedding(group, a)
                with pytest.raises(NonFiniteError, match=too_large):
                    embedding_for(group, a)
                for feature_map in ("reduced", "full"):
                    with pytest.raises(NonFiniteError, match=too_large):
                        feature_vector(group, a, feature_map)

    def test_complex_entry_beyond_the_modulus_range(self):
        # parts of 1.5e308: the modulus overflows, the larger part does not,
        # so the row runs at scale and its feature is refused, with no warning
        z = np.array([[1.5e308 + 1.5e308j, 0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^A has a feature too large for float64$"):
                reduced_embedding(G.UNITARY, z)

    @pytest.mark.parametrize("group", GROUPS)
    def test_root_near_the_limit_runs_at_scale(self, group):
        # the Gram root's largest singular value, up to sqrt(n l) max|x|,
        # would leave float64 unscaled: every group's root runs at a power
        # of two past max|x| = 2**1022 / max(n, l), so a feature within
        # float64 is computed and one beyond it refused, with no warning
        if group.quotients_translations:
            # n > 4l: the rows centre to norm 1.63 c, so the root's largest
            # singular value is 2.3e308 (4.6e308 beyond)
            x, c = np.tile([1.0, -1.0, 1.0], (200, 1)), 1e307
            too_large, feature_map = 1.4e307 * np.tile([1.0, -1.0, 1.0], (400, 1)), "full"
        else:
            # the full feature's largest entry is 1.22e308, a reduced one 2.1e308
            x, c = np.ones((2, 6)), 1.5e308
            too_large, feature_map = c * x, "reduced"
        a = c * x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = feature_vector(group, a)
            m, v = embedding_for(group, a)
            with pytest.raises(NonFiniteError, match="^A has a feature too large for float64$"):
                feature_vector(group, too_large, feature_map)
        want = c * feature_vector(group, x)
        np.testing.assert_allclose(f, want, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(v, f)
        np.testing.assert_allclose(m, c * embedding_for(group, x)[0], rtol=1e-14, atol=1e-14 * c)

    def test_extreme_configuration_in_a_stack_keeps_the_others_bits(self, rng):
        # a stack that holds one configuration beyond the overflow guard runs
        # each configuration at its own power of two; the others keep the
        # bits they have alone
        for group in (G.EUCLIDEAN, G.COMPLEX_EUCLIDEAN):
            for n, l in [(1, 6), (2, 6), (3, 8)]:
                x = rng.standard_normal((4, n, l)) * np.exp(rng.uniform(-30.0, 30.0, (4, 1, 1)))
                if group.is_complex:
                    x = x + 1j * rng.standard_normal((4, n, l))
                x[1] = 1.5e308
                for feature_map in ("full", "reduced"):
                    stack = _feature_stack(group, x, feature_map)
                    assert not stack[1].any()
                    for i in (0, 2, 3):
                        assert stack[i].tobytes() == _feature_stack(group, x[i], feature_map).tobytes()

    @pytest.mark.parametrize("call", [triangle_embedding, side_lengths])
    def test_triangle_entries(self, rng, call):
        t = rng.standard_normal((2, 3))
        cases = [
            ("nan", with_entry(t, np.nan), NonFiniteError),
            ("inf", with_entry(t, np.inf), NonFiniteError),
            ("3-D", t[None], ShapeMismatchError),
            ("complex", t + 1j, ShapeMismatchError),
            ("wrong shape", t[:, :2], ShapeMismatchError),
            ("transposed", t.T, ShapeMismatchError),
        ] + MALFORMED_LISTS
        for label, bad, error in cases:
            with pytest.raises(error, match="^triangle "):
                call(bad)
                pytest.fail(f"{call.__name__} accepted a {label} triangle")

    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize("feature_map", ["full", "reduced"])
    def test_database_construction(self, rng, group, feature_map):
        cases = bad_inputs(rng, group) + [
            ("wrong shape", good(rng, group, N, L + 1), ShapeMismatchError),
        ]
        for label, bad, error in cases:
            records = [("r0", good(rng, group)), ("x", bad), ("r2", good(rng, group))]
            with pytest.raises(error, match="^record 'x' "):
                ShapeDatabase(group, records, feature_map)
                pytest.fail(f"ShapeDatabase accepted a {label} record")

    @pytest.mark.parametrize("group", GROUPS)
    def test_messages_name_the_input(self, rng, group):
        a = good(rng, group)
        db = ShapeDatabase(group, [("r0", a)])
        hit = feature_nearest(db, a)[0]
        entries = [
            ("A", lambda x: orbit_distance(group, x, a)),
            ("B", lambda x: orbit_distance(group, a, x)),
            ("A", lambda x: embedding_for(group, x)),
            ("A", lambda x: feature_vector(group, x)),
            ("A", lambda x: reduced_embedding(group, x)),
            ("query", lambda x: feature_nearest(db, x)),
            ("query", lambda x: verify(db, hit, x)),
            ("record 'x'", lambda x: ShapeDatabase(group, [("r0", a), ("x", x)])),
        ]
        cases = bad_inputs(rng, group) + [("wrong shape", good(rng, group, N, L + 1), None)]
        for label, bad, error in cases:
            for name, call in entries:
                if error is None and name == "A":
                    continue  # a lone configuration has no shape to match
                with pytest.raises(error or ShapeMismatchError, match=f"^{re.escape(name)} "):
                    call(bad)
                    pytest.fail(f"{name} accepted a {label} input")

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda big: lower_constant_survey("O", big, 4, 10, 0), DimensionHypothesisError),
            (lambda big: reducer_for(G.ORTHOGONAL, big, 4), DimensionHypothesisError),
            (lambda big: reduced_feature_dim(G.ORTHOGONAL, big, 4), DimensionHypothesisError),
            (lambda big: build_reducer(1, -big, Ambient.SYMMETRIC), DimensionHypothesisError),
            (lambda big: ReducerBasis(big + 1, 4, Ambient.SYMMETRIC), InvalidRankError),
            (lambda big: separating_subspace_basis(4, big), InvalidRankError),
            (lambda big: feature_nearest(ShapeDatabase(G.EUCLIDEAN, [("a", np.eye(2, 3))]), np.eye(2, 3), k=-big),
             OutOfRangeError),
            (lambda big: side_lengths_counterexample(big), OutOfRangeError),
        ],
        ids=["lower_constant_survey", "reducer_for", "reduced_feature_dim", "build_reducer",
             "ReducerBasis", "separating_subspace_basis", "feature_nearest", "side_lengths_counterexample"],
    )
    def test_integers_too_long_to_print(self, call, error):
        # repr of an integer past Python's 4300-digit limit is a ValueError;
        # the message names it instead
        with pytest.raises(error, match="an integer too long to print"):
            call(10**5000)


# one shape per group with room for the reduced map, and one with n = 2
STACK_CASES = [
    (G.ORTHOGONAL, 1, 5),
    (G.ORTHOGONAL, 2, 6),
    (G.EUCLIDEAN, 1, 6),
    (G.EUCLIDEAN, 2, 7),
    (G.UNITARY, 1, 4),
    (G.UNITARY, 2, 6),
    (G.COMPLEX_EUCLIDEAN, 1, 5),
    (G.COMPLEX_EUCLIDEAN, 2, 7),
]


def records(rng, group, n, l, size):
    return [(f"r{i:03d}", good(rng, group, n, l)) for i in range(size)]


class TestScalarMatchesStacked:
    @pytest.mark.parametrize("group, n, l", STACK_CASES)
    # blocks of 4 records (of an l x l root each, a row of l at n = 1): one
    # record, fewer than a block, and whole blocks with a last block of one
    @pytest.mark.parametrize("size", [1, 2, 5, 37])
    def test_reduced_feature_is_the_database_row(self, rng, monkeypatch, group, n, l, size):
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 4 * (l if n == 1 else l * l))
        db = ShapeDatabase(group, records(rng, group, n, l, size), "reduced")
        reducer = reducer_for(group, n, l)
        for m, row in zip(db.matrices, db.features):
            np.testing.assert_array_equal(feature_vector(group, m, "reduced", reducer), row)
            np.testing.assert_array_equal(reduced_embedding(group, m), row)


def extreme_configurations(rng, group, n, l):
    """(label, configuration) of valid inputs at the edges of float64."""
    x = good(rng, group, n, l)
    spread = np.full((n, l), -1.5e308)
    spread[:, 0] = 1.5e308
    return [
        ("random", x),
        ("zero", np.zeros_like(x)),
        ("rank one", np.outer(np.arange(1.0, n + 1.0), x[0])),
        ("1e300", 1e300 * x),
        ("1e-300", 1e-300 * x),
        ("1.5e308", np.full((n, l), 1.5e308)),
        ("+-1.5e308", spread),
    ]


class TestSvdSeesValidatedArrays:
    """``linalg.svd`` does not check its input: every caller passes a
    finite float64/complex128 array built from input that was validated
    where it entered.  Each module that calls it is given a copy that
    checks this invariant, and every entry point runs on valid inputs at
    the edges of float64 and on NaN/Inf ones."""

    @pytest.fixture
    def svd_inputs(self, monkeypatch):
        seen = []

        def checked_svd(a):
            assert type(a) is np.ndarray and a.dtype in (np.float64, np.complex128), a
            assert a.ndim >= 2 and np.isfinite(a).all(), a
            seen.append(a.shape)
            return svd(a)

        for module in (metrics, embeddings):
            monkeypatch.setattr(module, "svd", checked_svd)
        return seen

    @staticmethod
    def entries(group, n, l, records):
        """(name, call taking one configuration) for every entry point, the
        database ones over ``records``; None for a database beyond float64."""
        reducer = reducer_for(group, n, l)
        calls = [
            ("orbit_distance", lambda a: orbit_distance(group, a, a)),
            ("orbit_distance reversed", lambda a: orbit_distance(group, a, a[:, ::-1])),
            ("dist_*", lambda a: DISTANCES[group](records[0][1], a)),
            ("embedding_for", lambda a: embedding_for(group, a)),
            ("feature_vector", lambda a: feature_vector(group, a)),
            ("feature_vector reduced", lambda a: feature_vector(group, a, "reduced", reducer)),
            ("reduced_embedding", lambda a: reduced_embedding(group, a)),
        ]
        for feature_map in ("full", "reduced"):
            try:
                db = ShapeDatabase(group, records, feature_map)
            except NonFiniteError:
                continue
            hit = feature_nearest(db, records[0][1])[0]
            calls += [
                (f"ShapeDatabase {feature_map}", lambda a, m=feature_map: ShapeDatabase(group, [("a", a)], m)),
                (f"feature_nearest {feature_map}", lambda a, db=db: feature_nearest(db, a, k=2)),
                (f"verify {feature_map}", lambda a, db=db, hit=hit: verify(db, hit, a)),
                (f"linear_scan_nearest {feature_map}", lambda a, db=db: linear_scan_nearest(db, a)),
            ]
        return calls

    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize("n, l", [(1, 5), (2, 6)])
    def test_edges_of_float64(self, rng, svd_inputs, group, n, l):
        configs = extreme_configurations(rng, group, n, l)
        # records whose distances to one another stay within float64
        records = [(label, a) for label, a in configs if not label.endswith("e308")]
        entries = self.entries(group, n, l, records)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for label, a in configs:
                for name, call in entries:
                    try:
                        call(a)
                    except NonFiniteError:
                        # a result beyond float64, refused without a warning
                        assert label.endswith("e308"), (name, label)
        assert svd_inputs

    @pytest.mark.parametrize("group", GROUPS)
    def test_lower_constant_survey(self, svd_inputs, group):
        lower_constant_survey(group, 2, 6, 8, 0)
        assert svd_inputs

    @pytest.mark.parametrize("group", GROUPS)
    def test_non_finite_input_never_reaches_svd(self, rng, svd_inputs, group):
        configs = [("random", good(rng, group, 2, 6))]
        entries = self.entries(group, 2, 6, configs)
        del svd_inputs[:]  # the database builds above
        bad = [np.nan, np.inf, -np.inf] + ([complex(0.0, np.nan)] if group.is_complex else [])
        for value in bad:
            a = configs[0][1].astype(type(value) if isinstance(value, complex) else configs[0][1].dtype)
            for name, call in entries:
                with pytest.raises(NonFiniteError):
                    call(with_entry(a, value))
                    pytest.fail(f"{name} accepted {value}")
        assert not svd_inputs
