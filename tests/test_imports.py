"""The import boundary: ``import orbitdist`` loads numpy but no scipy,
full-feature databases, the reduced features of one small configuration
(numpy applies the operator up to ``reduction._NUMPY_PRODUCTS`` products),
the distortion and classification studies and the n = 1 survey load none
either, and each scipy module loads in the function that uses it, and only
there: a product above that size loads ``scipy.sparse``.  Nor does
``import orbitdist.cli`` load ``decimal``, which only the sampler's log
table needs, when first drawn.

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

SRC = str(Path(__file__).resolve().parents[1] / "src")

PRELUDE = """
import json, sys
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import orbitdist as od
assert not scipy_modules(), scipy_modules()
import orbitdist.cli
assert not scipy_modules(), scipy_modules()
assert "decimal" not in sys.modules  # experiments._log builds its table on first use
"""

# case -> (code run after the prelude, scipy subpackage the case must load
# or None for no scipy at all, scipy subpackages the case must not load)
CASES = {
    "import": ("", None, ()),
    "dist-and-embed": (
        """
assert orbitdist.cli.main(["dist", "--group", "E", *sys.argv[1:]]) == 0
assert orbitdist.cli.main(["embed", "--group", "O", sys.argv[1]]) == 0
""",
        None,
        (),
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
    tmp = tmp_path_factory.mktemp("imports")
    a, b = tmp / "a.csv", tmp / "b.csv"
    np.savetxt(a, [[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]], delimiter=",")
    np.savetxt(b, [[1.0, 2.0, 0.5], [0.0, 1.0, 3.0]], delimiter=",")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    procs = {}
    try:
        for name, (code, _, _) in CASES.items():
            script = PRELUDE + code + "\nprint(json.dumps(scipy_modules()))\n"
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
    _, expected, forbidden = CASES[case]
    if expected is None:
        assert loaded == []
    else:
        assert expected in loaded
    assert not set(forbidden) & set(loaded), loaded
