"""The public surface: ``orbitdist.__all__`` names exactly the supported
entry points, each of them resolves, in a fresh interpreter too, to the
object its home module defines, and the names taken off the surface are
gone from the package and from the modules that defined them."""
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

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

# home module -> the public names it defines
HOME = {
    "errors": [
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
    ],
    "linalg": ["psd_sqrt"],
    "metrics": [
        "Alignment",
        "GroupAction",
        "center",
        "dist_complex_euclidean",
        "dist_euclidean",
        "dist_orthogonal",
        "dist_unitary",
        "orbit_distance",
    ],
    "embeddings": ["embedding_for", "feature_dim"],
    "reduction": [
        "Ambient",
        "ReducerBasis",
        "build_reducer",
        "reduced_embedding",
        "reduced_feature_dim",
        "reducer_for",
        "separating_subspace_basis",
    ],
    "triangles": ["side_lengths", "side_lengths_counterexample", "triangle_embedding", "triangle_from_coords"],
    "features": ["FULL", "MAP_TRIANGLE", "REDUCED", "feature_vector"],
    "search": ["QueryResult", "ShapeDatabase", "feature_nearest", "linear_scan_nearest", "verify"],
    "experiments": [
        "ExperimentConfig",
        "ExperimentReport",
        "MAP_EXACT",
        "MAP_SIDE_LENGTHS",
        "classification_experiment",
        "distortion_experiment",
        "lower_constant_survey",
    ],
}

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


# Run in a fresh interpreter, where no module but those that ``import
# orbitdist`` loads eagerly has been imported yet; prints one JSON line.
FRESH = """
import importlib, json, sys
import orbitdist

home = json.loads(sys.argv[1])
report = {"missing_from_dir": sorted(set(orbitdist.__all__) - set(dir(orbitdist)))}
unresolved = []
for name in json.loads(sys.argv[2]):
    try:
        getattr(orbitdist, name)
    except AttributeError:
        continue
    unresolved.append(name)
report["resolved"] = unresolved
ns = {}
exec("from orbitdist import *", ns)
report["bound"] = sorted(set(ns) - {"__builtins__"})
# a name resolved once is a plain module global
report["uncached"] = sorted(set(orbitdist.__all__) - set(vars(orbitdist)))
report["not_home"] = sorted(
    name for module, names in home.items() for name in names
    if ns[name] is not getattr(importlib.import_module("orbitdist." + module), name)
)
print(json.dumps(report))
"""


def test_fresh_interpreter_resolves_every_name_at_home():
    assert sorted(n for names in HOME.values() for n in names) == PUBLIC
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    absent = REMOVED[orbitdist] + ["no_such_name", "embeddings_for"]
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, json.dumps(HOME), json.dumps(absent)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"missing_from_dir": [], "resolved": [], "bound": PUBLIC, "uncached": [], "not_home": []}


@pytest.mark.parametrize(
    "group, is_complex, quotients_translations",
    [
        (orbitdist.GroupAction.ORTHOGONAL, False, False),
        (orbitdist.GroupAction.EUCLIDEAN, False, True),
        (orbitdist.GroupAction.UNITARY, True, False),
        (orbitdist.GroupAction.COMPLEX_EUCLIDEAN, True, True),
    ],
    ids=lambda x: getattr(x, "value", None),
)
def test_group_action_flags(group, is_complex, quotients_translations):
    assert type(group.is_complex) is bool and group.is_complex is is_complex
    assert type(group.quotients_translations) is bool
    assert group.quotients_translations is quotients_translations
    assert orbitdist.GroupAction(group.value) is group
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(group, protocol)) is group
