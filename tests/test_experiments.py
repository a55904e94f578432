import numpy as np
import pytest

from orbitdist import (
    ConfigInvalidError,
    ExperimentConfig,
    GroupAction,
    MAP_EXACT,
    MAP_SIDE_LENGTHS,
    MAP_TRIANGLE,
    classification_experiment,
    dist_euclidean,
    distortion_experiment,
    lower_constant_survey,
    side_lengths,
    triangle_embedding,
)
from orbitdist.experiments import _side_lengths_batch, _triangle_coords_batch

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


class TestVectorizedKernels:
    """The batch kernels must agree with the scalar reference paths."""

    def test_batch_side_lengths(self, rng):
        x = rng.standard_normal((32, 2, 3))
        batch = _side_lengths_batch(x)
        for i in range(32):
            np.testing.assert_allclose(batch[i], side_lengths(x[i]), rtol=1e-12)

    def test_batch_triangle_coords(self, rng):
        x = rng.standard_normal((32, 2, 3))
        batch = _triangle_coords_batch(x)
        for i in range(32):
            np.testing.assert_allclose(batch[i], triangle_embedding(x[i]), atol=1e-10)

    def test_batch_triangle_coords_degenerate(self):
        x = np.stack([np.ones((2, 3)), np.zeros((2, 3))])
        np.testing.assert_allclose(_triangle_coords_batch(x), np.zeros((2, 3)))


class TestDistortionExperiment:
    def test_ratio_ranges_and_stat_ordering(self):
        cfg = ExperimentConfig(seed=5, n_pairs=5000, maps=(MAP_SIDE_LENGTHS, MAP_TRIANGLE))
        rep = distortion_experiment(cfg)
        g = rep.ratio_stats[MAP_SIDE_LENGTHS]
        p = rep.ratio_stats[MAP_TRIANGLE]
        assert 0.0 <= g["min"] <= g["mean"] <= g["max"] <= SQRT3 + 1e-9
        assert 1.0 - 1e-9 <= p["min"] <= p["mean"] <= p["max"] <= SQRT2 + 1e-9

    def test_histogram_counts_cover_all_pairs(self):
        cfg = ExperimentConfig(seed=5, n_pairs=2000, maps=(MAP_TRIANGLE,))
        rep = distortion_experiment(cfg)
        h = rep.histograms[MAP_TRIANGLE]
        assert sum(h["counts"]) == 2000
        assert len(h["counts"]) == len(h["edges"]) - 1

    def test_deterministic_reports(self):
        cfg = ExperimentConfig(seed=99, n_pairs=1500, maps=(MAP_SIDE_LENGTHS, MAP_TRIANGLE))
        assert distortion_experiment(cfg).to_json() == distortion_experiment(cfg).to_json()

    def test_seed_changes_samples(self):
        a = distortion_experiment(ExperimentConfig(seed=1, n_pairs=500, maps=(MAP_TRIANGLE,)))
        b = distortion_experiment(ExperimentConfig(seed=2, n_pairs=500, maps=(MAP_TRIANGLE,)))
        assert a.to_json() != b.to_json()

    def test_config_echo(self):
        cfg = ExperimentConfig(seed=3, n_pairs=10, maps=(MAP_TRIANGLE,))
        rep = distortion_experiment(cfg)
        assert rep.config["seed"] == 3
        assert rep.config["n_pairs"] == 10

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_pairs=None, maps=(MAP_TRIANGLE,)),
            dict(n_pairs=0, maps=(MAP_TRIANGLE,)),
            dict(n_pairs=10, maps=()),
            dict(n_pairs=10, maps=(MAP_EXACT,)),
            dict(n_pairs=10, maps=("sides",)),
        ],
    )
    def test_invalid_configs(self, bad):
        with pytest.raises(ConfigInvalidError):
            distortion_experiment(ExperimentConfig(seed=0, **bad))


class TestClassificationExperiment:
    def test_zero_noise_classifies_perfectly(self):
        cfg = ExperimentConfig(
            seed=11,
            db_size=60,
            n_draws=3,
            noise_grid=(0.0,),
            maps=(MAP_EXACT, MAP_SIDE_LENGTHS, MAP_TRIANGLE),
        )
        rep = classification_experiment(cfg)
        for rates in rep.rates["misclassification"].values():
            assert rates == [0.0]

    def test_rates_are_probabilities_and_grid_echoed(self):
        cfg = ExperimentConfig(
            seed=12,
            db_size=50,
            n_draws=2,
            noise_grid=(0.0, 0.01, 0.03),
            maps=(MAP_TRIANGLE, MAP_SIDE_LENGTHS),
        )
        rep = classification_experiment(cfg)
        assert rep.rates["noise_grid"] == [0.0, 0.01, 0.03]
        for rates in rep.rates["misclassification"].values():
            assert all(0.0 <= r <= 1.0 for r in rates)

    def test_exact_map_agrees_with_scalar_reference(self, rng):
        # classify a handful of noisy triangles by a plain python loop
        cfg = ExperimentConfig(
            seed=13, db_size=12, n_draws=2, noise_grid=(0.02,), maps=(MAP_EXACT,)
        )
        rep = classification_experiment(cfg)
        children = np.random.SeedSequence(13).spawn(1 + 12 * 2)
        db = np.random.default_rng(children[0]).standard_normal((12, 2, 3))
        wrong = 0
        k = 0
        for i in range(12):
            for _ in range(2):
                noise = np.random.default_rng(children[1 + k]).standard_normal(6).reshape(2, 3)
                k += 1
                noisy = db[i] + 0.02 * noise
                dists = [dist_euclidean(noisy, db[j])[0] for j in range(12)]
                wrong += int(np.argmin(dists) != i)
        assert rep.rates["misclassification"][MAP_EXACT][0] == pytest.approx(wrong / 24)

    def test_determinism(self):
        cfg = ExperimentConfig(
            seed=21, db_size=30, n_draws=2, noise_grid=(0.0, 0.02), maps=(MAP_TRIANGLE,)
        )
        assert classification_experiment(cfg).to_json() == classification_experiment(cfg).to_json()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(db_size=None, noise_grid=(0.0,), maps=(MAP_EXACT,)),
            dict(db_size=5, noise_grid=(), maps=(MAP_EXACT,)),
            dict(db_size=5, noise_grid=(0.01, 0.01), maps=(MAP_EXACT,)),
            dict(db_size=5, noise_grid=(0.02, 0.01), maps=(MAP_EXACT,)),
            dict(db_size=5, noise_grid=(-0.01, 0.02), maps=(MAP_EXACT,)),
            dict(db_size=5, noise_grid=(0.0,), maps=(MAP_EXACT,), n_draws=0),
            dict(db_size=5, noise_grid=(0.0,), maps=("unknown",)),
        ],
    )
    def test_invalid_configs(self, bad):
        with pytest.raises(ConfigInvalidError):
            classification_experiment(ExperimentConfig(seed=0, **bad))


class TestLowerConstantSurvey:
    def test_positive_minimum_and_sqrt2_upper(self):
        rep = lower_constant_survey(GroupAction.ORTHOGONAL, 1, 4, 400, seed=31)
        s = rep.ratio_stats["reduced"]
        assert s["min"] > 0.0
        assert s["max"] <= SQRT2 + 1e-9
        assert s["min"] <= s["mean"] <= s["max"]
        assert s["quantiles"]["0.5"] >= s["quantiles"]["0.01"]

    def test_complex_group(self):
        rep = lower_constant_survey(GroupAction.UNITARY, 1, 3, 150, seed=32)
        s = rep.ratio_stats["reduced"]
        assert s["min"] > 0.0
        assert s["max"] <= SQRT2 + 1e-9

    def test_dimension_hypothesis(self):
        from orbitdist import DimensionHypothesisError

        with pytest.raises(DimensionHypothesisError):
            lower_constant_survey(GroupAction.ORTHOGONAL, 2, 3, 10, seed=0)

    def test_determinism(self):
        a = lower_constant_survey(GroupAction.ORTHOGONAL, 1, 4, 100, seed=7)
        b = lower_constant_survey(GroupAction.ORTHOGONAL, 1, 4, 100, seed=7)
        assert a.to_json() == b.to_json()
