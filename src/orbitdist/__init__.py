"""Orbit distances and bi-Lipschitz invariant embeddings for tuples of
points under orthogonal, euclidean, unitary, and complex-euclidean group
actions.

Each public name is written once, in ``_HOME``, under the module that
defines it; ``__all__``, ``dir()`` and both lookups read that table.
``import orbitdist`` loads numpy and the exact route eagerly, the modules
of ``_EAGER`` (``errors``, ``linalg``, ``metrics``), and binds their
names.  Every other public name loads its module on first use (``_LAZY``;
PEP 562): a feature map, a database or an experiment costs a process
only once it is used.  ``from orbitdist import *`` binds every name.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_HOME = {
    "errors": (
        "AmbientMismatchError",
        "ConfigInvalidError",
        "ConvergenceFailureError",
        "DimensionHypothesisError",
        "DuplicateIdError",
        "EmptyDatabaseError",
        "FeatureMapMismatchError",
        "InvalidRankError",
        "NonFiniteError",
        "NotHermitianError",
        "NotPSDError",
        "OrbitDistError",
        "OutOfRangeError",
        "ShapeMismatchError",
        "UnknownIdError",
    ),
    "linalg": ("psd_sqrt",),
    "metrics": (
        "Alignment",
        "GroupAction",
        "center",
        "dist_complex_euclidean",
        "dist_euclidean",
        "dist_orthogonal",
        "dist_unitary",
        "orbit_distance",
    ),
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
}
# the home modules that load with the package, in import order
_EAGER = ("errors", "linalg", "metrics")

globals().update(
    (name, getattr(import_module(f"{__name__}.{module}"), name)) for module in _EAGER for name in _HOME[module]
)

# the home module of each public name that loads on first use
_LAZY = {name: module for module, names in _HOME.items() if module not in _EAGER for name in names}
__all__ = sorted(name for names in _HOME.values() for name in names)


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups are plain module globals
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
