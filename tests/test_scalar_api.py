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
    GroupAction,
    NonFiniteError,
    ShapeDatabase,
    ShapeMismatchError,
    build_reducer,
    complex_euclidean_embedding,
    dist_complex_euclidean,
    dist_euclidean,
    dist_orthogonal,
    dist_unitary,
    embedding_for,
    euclidean_embedding,
    feature_nearest,
    feature_vector,
    linear_scan_nearest,
    orbit_distance,
    orthogonal_embedding,
    reduced_embedding,
    reducer_for,
    side_lengths,
    triangle_embedding,
    unitary_embedding,
    verify,
)
from orbitdist.search import _BLOCK

G = GroupAction
GROUPS = list(GroupAction)
REAL_ACTIONS = [G.ORTHOGONAL, G.EUCLIDEAN]
DISTANCES = {
    G.ORTHOGONAL: dist_orthogonal,
    G.EUCLIDEAN: dist_euclidean,
    G.UNITARY: dist_unitary,
    G.COMPLEX_EUCLIDEAN: dist_complex_euclidean,
}
EMBEDDINGS = {
    G.ORTHOGONAL: orthogonal_embedding,
    G.EUCLIDEAN: euclidean_embedding,
    G.UNITARY: unitary_embedding,
    G.COMPLEX_EUCLIDEAN: complex_euclidean_embedding,
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


def bad_inputs(rng, group):
    """(label, malformed configuration, error class) for one group."""
    a = good(rng, group)
    cases = [
        ("nan", with_entry(a, np.nan), NonFiniteError),
        ("inf", with_entry(a, np.inf), NonFiniteError),
        ("3-D", a[None], ShapeMismatchError),
    ]
    if not group.is_complex:
        cases.append(("complex", a + 1j, ShapeMismatchError))
    return cases


def scalar_entries(group):
    """(name, call taking one configuration) for every scalar entry."""
    reducer = reducer_for(group, N, L)
    return [
        ("orbit_distance", lambda a: orbit_distance(group, a, a)),
        ("dist_*", lambda a: DISTANCES[group](a, a)),
        ("embedding_for", lambda a: embedding_for(group, a)),
        ("*_embedding", lambda a: EMBEDDINGS[group](a)),
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
    def test_reduced_feature_beyond_float64(self, n):
        # finite entries whose centring sum overflows
        a = np.full((n, 6), 1.5e308)
        with pytest.raises(NonFiniteError):
            reduced_embedding(G.EUCLIDEAN, a)
        with pytest.raises(NonFiniteError):
            feature_vector(G.EUCLIDEAN, a, "reduced")

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
        ]
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
    # _BLOCK + 1 records build in two blocks, the last of one record
    @pytest.mark.parametrize("size", [1, 2, 37, _BLOCK + 1])
    def test_reduced_feature_is_the_database_row(self, rng, group, n, l, size):
        db = ShapeDatabase(group, records(rng, group, n, l, size), "reduced")
        reducer = reducer_for(group, n, l)
        for m, row in zip(db.matrices, db.features):
            np.testing.assert_array_equal(feature_vector(group, m, "reduced", reducer), row)
            np.testing.assert_array_equal(reduced_embedding(group, m), row)
