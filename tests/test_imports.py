"""The import boundary: ``import orbitdist`` loads numpy and the exact
route but no scipy, and none of the modules that the search, the file
formats and the experiments live in; each of those loads on first use.
Full-feature databases, the reduced features of one small configuration
(numpy applies the operator up to ``reduction._NUMPY_PRODUCTS`` products),
the distortion and classification studies and the n = 1 survey load no
scipy either, and each scipy module loads in the function that uses it,
and only there: a product above that size loads ``scipy.sparse``.  Nor
does ``import orbitdist.cli`` load ``decimal``, which only the sampler's
log table needs, when first drawn, nor the sampler and the experiments.
Each command loads only the modules it runs: ``dist``, ``embed`` and
``db-query`` no experiments, ``distortion`` and ``lower-constant`` no
search; ``classify`` loads the search module, which holds its ranking
kernel.  No case that loads no scipy loads ``numpy.ma`` (``scipy.sparse``
imports it itself).

Every case runs in a fresh interpreter, since the test session itself has
scipy loaded.  The interpreters start together, so the file costs about as
much as its slowest case.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orbitdist import GroupAction

SRC = str(Path(__file__).resolve().parents[1] / "src")

PRELUDE = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import orbitdist as od
assert not scipy_modules(), scipy_modules()
lazy = {"orbitdist.experiments", "orbitdist.io", "orbitdist.sampling", "orbitdist.search"}
assert not lazy & set(sys.modules), sorted(lazy & set(sys.modules))
import orbitdist.cli
assert not scipy_modules(), scipy_modules()
studies = {"orbitdist.experiments", "orbitdist.sampling"}
assert not studies & set(sys.modules), sorted(studies & set(sys.modules))
assert "decimal" not in sys.modules  # sampling._log builds its table on first use
"""

NO_EXPERIMENTS = ("orbitdist.experiments",)
NO_SEARCH = ("orbitdist.search",)

# case -> (code run after the prelude, scipy subpackage the case must load
# or None for no scipy at all, modules the case must not load)
CASES = {
    "import": ("", None, ()),
    "dist-and-embed": (
        """
assert orbitdist.cli.main(["dist", "--group", "E", *sys.argv[1:]]) == 0
assert orbitdist.cli.main(["embed", "--group", "O", sys.argv[1]]) == 0
assert orbitdist.cli.main(["embed", "--group", "E", "--reduced", "--out", "e.csv", "row.csv"]) == 0
""",
        None,
        NO_EXPERIMENTS,
    ),
    "ShapeDatabase": (
        """
rng = np.random.default_rng(0)
db = od.ShapeDatabase(od.GroupAction.EUCLIDEAN, [(str(i), rng.standard_normal((2, 3))) for i in range(8)])
assert od.feature_nearest(db, db.matrices[5])[0].id == "5"
""",
        None,
        (),
    ),
    "db-build-and-query": (
        """
assert orbitdist.cli.main(["db-build", "--group", "E", "--out", "db.jsonl", *sys.argv[1:]]) == 0
assert orbitdist.cli.main(["db-query", "db.jsonl", sys.argv[1], "-k", "1", "--verify"]) == 0
""",
        None,
        NO_EXPERIMENTS,
    ),
    "db-query": (
        """
assert orbitdist.cli.main(["db-query", "db8.jsonl", sys.argv[1], "-k", "5", "--verify"]) == 0
""",
        None,
        NO_EXPERIMENTS,
    ),
    "experiment-commands": (
        """
for kind in ("distortion", "lower-constant"):
    assert orbitdist.cli.main(["experiment", kind, "--config", kind + ".json", "--out", kind]) == 0
""",
        None,
        NO_SEARCH,
    ),
    "experiment-classify": (
        """
assert orbitdist.cli.main(["experiment", "classify", "--config", "classify.json", "--out", "classify"]) == 0
assert "orbitdist.search" in sys.modules
""",
        None,
        (),
    ),
    "reduced_embedding": (
        """
f = od.reduced_embedding(od.GroupAction.ORTHOGONAL, np.arange(4.0)[None])
assert f.shape == (7,) and np.isfinite(f).all()
""",
        None,
        (),
    ),
    "reduced_embedding-n2": (
        """
f = od.reduced_embedding(od.GroupAction.ORTHOGONAL, np.arange(8.0).reshape(2, 4) ** 2)
assert f.shape == (10,) and np.isfinite(f).all()
""",
        None,
        (),
    ),
    "reduced_embedding-small-shapes": (
        """
rng = np.random.default_rng(0)
for n, l, cx in [(2, 5, False), (3, 8, False), (2, 6, True)]:
    for g in od.GroupAction:
        if cx and not g.is_complex:
            continue
        x = rng.standard_normal((n, l)) + (1j * rng.standard_normal((n, l)) if cx else 0)
        assert np.isfinite(od.reduced_embedding(g, x, od.reducer_for(g, n, l))).all()
""",
        None,
        (),
    ),
    "embed-reduced-F": (
        """
rng = np.random.default_rng(0)
z = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
with open("f26.json", "w") as fh:
    json.dump({"re": z.real.tolist(), "im": z.imag.tolist()}, fh)
assert orbitdist.cli.main(["embed", "--reduced", "--group", "F", "f26.json"]) == 0
""",
        None,
        (),
    ),
    "reduced_embedding-above-threshold": (
        """
from orbitdist.reduction import _NUMPY_PRODUCTS, reducer_for
assert reducer_for(od.GroupAction.ORTHOGONAL, 2, 32)._arrays.value.size > _NUMPY_PRODUCTS
f = od.reduced_embedding(od.GroupAction.ORTHOGONAL, np.random.default_rng(0).standard_normal((2, 32)))
assert f.shape == (122,) and np.isfinite(f).all()
""",
        "scipy.sparse",
        (),
    ),
    "distortion_experiment": (
        """
rep = od.distortion_experiment(od.ExperimentConfig(n_pairs=100, maps=("side_lengths", "triangle_embedding")))
assert 0.0 < rep.ratio_stats["side_lengths"]["min"] <= rep.ratio_stats["side_lengths"]["max"]
""",
        None,
        (),
    ),
    "lower_constant_survey": (
        """
rep = od.lower_constant_survey(od.GroupAction.ORTHOGONAL, 1, 32, 2000, seed=0)
assert rep.ratio_stats["reduced"]["min"] > 0.0
""",
        None,
        (),
    ),
    "lower_constant_survey-n2": (
        """
rep = od.lower_constant_survey(od.GroupAction.ORTHOGONAL, 2, 5, 20, seed=0)
assert rep.ratio_stats["reduced"]["min"] > 0.0
""",
        "scipy.sparse",
        (),
    ),
    "classification_experiment": (
        """
cfg = od.ExperimentConfig(db_size=20, n_draws=2, noise_grid=(0.0, 0.1),
                          maps=("exact", "side_lengths", "triangle_embedding"))
rates = od.classification_experiment(cfg).rates["misclassification"]
assert all(r[0] == 0.0 for r in rates.values()), rates
""",
        None,
        (),
    ),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    from orbitdist.io import save_database
    from orbitdist.search import ShapeDatabase

    tmp = tmp_path_factory.mktemp("imports")
    a, b = tmp / "a.csv", tmp / "b.csv"
    np.savetxt(a, [[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]], delimiter=",")
    np.savetxt(b, [[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]], delimiter=",")
    np.savetxt(tmp / "row.csv", [[0.0, 1.0, 3.0, 7.0, 2.0]], delimiter=",")
    rng = np.random.default_rng(0)
    records = [(str(i), rng.standard_normal((2, 3))) for i in range(8)]
    save_database(tmp / "db8.jsonl", ShapeDatabase(GroupAction.EUCLIDEAN, records))
    configs = {
        "distortion": {"n_pairs": 100},
        "classify": {"db_size": 20, "n_draws": 2},
        "lower-constant": {"group": "O", "n": 1, "l": 32, "n_pairs": 200},
    }
    for kind, config in configs.items():
        (tmp / f"{kind}.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    procs = {}
    try:
        for name, (code, _, _) in CASES.items():
            script = PRELUDE + code + "\nprint(json.dumps(sorted(sys.modules)))\n"
            procs[name] = subprocess.Popen(
                [sys.executable, "-c", script, str(a), str(b)],
                cwd=tmp,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        return {name: p.communicate(timeout=120) + (p.returncode,) for name, p in procs.items()}
    finally:
        for p in procs.values():
            p.kill()


@pytest.mark.parametrize("case", list(CASES))
def test_fresh_process(runs, case):
    out, err, code = runs[case]
    assert code == 0, err
    loaded = json.loads(out.splitlines()[-1])
    scipy = [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
    _, expected, forbidden = CASES[case]
    if expected is None:
        assert scipy == []
        assert "numpy.ma" not in loaded
    else:
        assert expected in scipy
    assert not set(forbidden) & set(loaded), sorted(set(forbidden) & set(loaded))
