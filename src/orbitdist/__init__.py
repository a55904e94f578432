"""Orbit distances and bi-Lipschitz invariant embeddings for tuples of
points under orthogonal, euclidean, unitary, and complex-euclidean group
actions."""

from .errors import (
    AmbientMismatchError,
    ConfigInvalidError,
    ConvergenceFailureError,
    DimensionHypothesisError,
    DuplicateIdError,
    EmptyDatabaseError,
    FeatureMapMismatchError,
    InvalidRankError,
    NonFiniteError,
    NotHermitianError,
    NotPSDError,
    OrbitDistError,
    OutOfRangeError,
    ShapeMismatchError,
    UnknownIdError,
)
from .linalg import psd_sqrt
from .metrics import (
    Alignment,
    GroupAction,
    center,
    dist_complex_euclidean,
    dist_euclidean,
    dist_orthogonal,
    dist_unitary,
    orbit_distance,
)
from .embeddings import embedding_for, feature_dim
from .reduction import (
    Ambient,
    ReducerBasis,
    build_reducer,
    reduced_embedding,
    reduced_feature_dim,
    reducer_for,
    separating_subspace_basis,
)
from .triangles import (
    side_lengths,
    side_lengths_counterexample,
    triangle_embedding,
    triangle_from_coords,
)
from .features import FULL, REDUCED, feature_vector
from .search import QueryResult, ShapeDatabase, feature_nearest, linear_scan_nearest, verify
from .experiments import (
    MAP_EXACT,
    MAP_SIDE_LENGTHS,
    MAP_TRIANGLE,
    ExperimentConfig,
    ExperimentReport,
    classification_experiment,
    distortion_experiment,
    lower_constant_survey,
)

__version__ = "0.1.0"

__all__ = [
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
