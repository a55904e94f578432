"""One seed, one report, whatever the BLAS thread count.

The thread count of the BLAS backend is fixed when numpy loads, so each
count runs in its own interpreter: the F survey through the console entry
point, then full and reduced feature stacks and stacked orbit distances of
all four groups.  Both interpreters must give the same bytes.  The BLAS
runs one thread per CPU at most, so the test proves something only where
at least two CPUs are available.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

SURVEY = '{"group": "F", "n": 1, "l": 300, "n_pairs": 200}'

SCRIPT = """
import hashlib, sys
import numpy as np
from orbitdist import GroupAction
from orbitdist.cli import main
from orbitdist.features import FULL, REDUCED, _feature_stack
from orbitdist.metrics import _procrustes

out, config = sys.argv[1:]
assert main(["experiment", "lower-constant", "--seed", "3", "--config", config, "--out", out]) == 0
rng = np.random.default_rng(3)
for group in GroupAction:
    for n, l in [(1, 300), (2, 40)]:
        x = rng.standard_normal((16, n, l))
        if group.is_complex:
            x = x + 1j * rng.standard_normal((16, n, l))
        results = {
            "full": _feature_stack(group, x, FULL),
            "reduced": _feature_stack(group, x, REDUCED),
            "distances": _procrustes(group, x[:8], x[8:])[0],
        }
        for name, r in results.items():
            print("digest", group.value, n, l, name, hashlib.sha256(r.tobytes()).hexdigest())
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("threads")
    config = tmp / "survey.json"
    config.write_text(SURVEY)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    procs = {}
    try:
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[name] = threads
            procs[threads] = subprocess.Popen(
                [sys.executable, "-c", SCRIPT, str(tmp / threads), str(config)],
                cwd=tmp,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
        results = {}
        for threads, p in procs.items():
            out, err = p.communicate(timeout=300)
            assert p.returncode == 0, err
            digests = [line for line in out.splitlines() if line.startswith("digest ")]
            results[threads] = ((tmp / threads / "report.json").read_bytes(), digests)
        return results
    finally:
        for p in procs.values():
            p.kill()


def test_survey_report_bytes(runs):
    assert runs["1"][0] == runs["2"][0]


def test_feature_stacks_and_distances(runs):
    one, two = runs["1"][1], runs["2"][1]
    assert len(one) == 4 * 2 * 3
    assert [a for a, b in zip(one, two) if a != b] == []
