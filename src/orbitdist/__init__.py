"""Orbit distances and bi-Lipschitz invariant embeddings for tuples of
points under orthogonal, euclidean, unitary, and complex-euclidean group
actions.

``import orbitdist`` loads numpy and the exact route eagerly: the modules
``errors``, ``linalg`` and ``metrics``.  Every other public name loads its
module on first use (``_LAZY``; PEP 562): a feature map, a database or an
experiment costs a process only once it is used.  ``__all__`` and ``dir()``
list every public name either way, and ``from orbitdist import *`` binds
them all.
"""

from importlib import import_module

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

__version__ = "0.1.0"

# the home module of each public name that loads on first use
_LAZY = {
    name: module
    for module, names in {
        "embeddings": ("embedding_for", "feature_dim"),
        "reduction": (
            "Ambient",
            "ReducerBasis",
            "build_reducer",
            "reduced_embedding",
            "reduced_feature_dim",
            "reducer_for",
            "separating_subspace_basis",
        ),
        "triangles": (
            "side_lengths",
            "side_lengths_counterexample",
            "triangle_embedding",
            "triangle_from_coords",
        ),
        "features": ("FULL", "MAP_TRIANGLE", "REDUCED", "feature_vector"),
        "search": ("QueryResult", "ShapeDatabase", "feature_nearest", "linear_scan_nearest", "verify"),
        "experiments": (
            "MAP_EXACT",
            "MAP_SIDE_LENGTHS",
            "ExperimentConfig",
            "ExperimentReport",
            "classification_experiment",
            "distortion_experiment",
            "lower_constant_survey",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups are plain module globals
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


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
