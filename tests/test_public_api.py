"""The public surface: ``orbitdist.__all__`` names exactly the supported
entry points, each of them resolves, and the names taken off the surface
are gone from the package and from the modules that defined them."""
import pytest

import orbitdist
from orbitdist import embeddings, linalg

PUBLIC = [
    "Alignment",
    "Ambient",
    "AmbientMismatchError",
    "ConfigInvalidError",
    "ConvergenceFailureError",
    "DimensionHypothesisError",
    "DuplicateIdError",
    "EmptyDatabaseError",
    "ExperimentConfig",
    "ExperimentReport",
    "FULL",
    "FeatureMapMismatchError",
    "GroupAction",
    "InvalidRankError",
    "MAP_EXACT",
    "MAP_SIDE_LENGTHS",
    "MAP_TRIANGLE",
    "NonFiniteError",
    "NotHermitianError",
    "NotPSDError",
    "OrbitDistError",
    "OutOfRangeError",
    "QueryResult",
    "REDUCED",
    "ReducerBasis",
    "ShapeDatabase",
    "ShapeMismatchError",
    "UnknownIdError",
    "build_reducer",
    "center",
    "classification_experiment",
    "dist_complex_euclidean",
    "dist_euclidean",
    "dist_orthogonal",
    "dist_unitary",
    "distortion_experiment",
    "embedding_for",
    "feature_dim",
    "feature_nearest",
    "feature_vector",
    "linear_scan_nearest",
    "lower_constant_survey",
    "orbit_distance",
    "psd_sqrt",
    "reduced_embedding",
    "reduced_feature_dim",
    "reducer_for",
    "separating_subspace_basis",
    "side_lengths",
    "side_lengths_counterexample",
    "triangle_embedding",
    "triangle_from_coords",
    "verify",
]

# module -> names it no longer defines; embedding_for is the one matrix
# feature entry point, and linalg.svd stays a kernel, not a public name
REMOVED = {
    orbitdist: ["svd"],
    linalg: ["ORTH_TOL", "RECON_TOL", "SvdFactors", "frobenius_dist", "nuclear_norm"],
    embeddings: [
        "complex_euclidean_embedding",
        "euclidean_embedding",
        "herm_flatten",
        "mean_last_basis",
        "orthogonal_embedding",
        "sym_flatten",
        "unitary_embedding",
    ],
}


def test_all_is_the_public_surface():
    assert len(PUBLIC) == 53
    assert sorted(orbitdist.__all__) == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_resolves(name):
    assert getattr(orbitdist, name) is not None


@pytest.mark.parametrize(
    "module, name",
    [(m, n) for m, names in REMOVED.items() for n in names],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_removed_name_is_gone(module, name):
    assert not hasattr(orbitdist, name)
    assert not hasattr(module, name)
