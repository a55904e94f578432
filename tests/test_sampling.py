"""The counter-based sampler of ``orbitdist.sampling``: windows of one
Philox stream, Cephes ``ndtri`` with scipy's bits, and the table-driven
``log`` with the C library's bits."""
from hypothesis import example, given, settings
from hypothesis import strategies as st
import math
import mpmath
import numpy as np
import pytest
from scipy.special import ndtri

from orbitdist import (
    ConfigInvalidError,
    ExperimentConfig,
    GroupAction,
    MAP_EXACT,
    MAP_TRIANGLE,
    classification_experiment,
    distortion_experiment,
    lower_constant_survey,
)
from orbitdist import sampling
from orbitdist.sampling import _ndtri, _normals


class TestSampler:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 3),
        start=st.integers(0, 200),
        count=st.integers(0, 40),
    )
    @example(seed=0, stream=0, start=7, count=5)
    @example(seed=2**64 - 1, stream=2, start=601, count=3)
    def test_any_window_is_a_slice_of_one_long_draw(self, seed, stream, start, count):
        words = np.random.Philox(key=seed + (stream << 64)).random_raw(start + count)
        long_draw = ndtri(((words >> 12).astype(float) + 0.5) * 2.0**-52)
        window = _normals(seed, stream, start, count)
        np.testing.assert_array_equal(window, long_draw[start:])
        assert np.all(np.isfinite(window))

    def test_streams_differ(self):
        assert not np.array_equal(_normals(5, 0, 0, 12), _normals(5, 1, 0, 12))
        assert not np.array_equal(_normals(5, 0, 0, 12), _normals(6, 0, 0, 12))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range(self, seed):
        # refused when the config is made
        with pytest.raises(ConfigInvalidError, match="seed must be an integer"):
            ExperimentConfig(seed=seed, n_pairs=10, maps=(MAP_TRIANGLE,))
        with pytest.raises(ConfigInvalidError, match="seed must be an integer"):
            ExperimentConfig(seed=seed, db_size=5, noise_grid=(0.0,), maps=(MAP_EXACT,))
        with pytest.raises(ConfigInvalidError):
            lower_constant_survey(GroupAction.ORTHOGONAL, 1, 4, 10, seed=seed)
        with pytest.raises(ConfigInvalidError):
            ExperimentConfig.from_dict({"seed": seed})

    def test_report_carries_the_validated_seed(self):
        # an integral float or a numpy integer, in the seed or in any size
        # field, gives the report of the int, which states the int
        studies = {
            "distortion": lambda **kw: distortion_experiment(
                ExperimentConfig(**{"seed": 0, "n_pairs": 10, "maps": (MAP_TRIANGLE,), **kw})
            ),
            "classify": lambda **kw: classification_experiment(
                ExperimentConfig(
                    **{"seed": 0, "db_size": 5, "n_draws": 2, "noise_grid": (0.0,), "maps": (MAP_EXACT,), **kw}
                )
            ),
            "survey": lambda **kw: lower_constant_survey(
                **{"group": GroupAction.ORTHOGONAL, "n": 1, "l": 4, "n_pairs": 10, "seed": 0, **kw}
            ),
        }
        cases = [
            ("distortion", "seed"), ("classify", "seed"), ("survey", "seed"),
            ("distortion", "n_pairs"), ("survey", "n_pairs"),
            ("classify", "db_size"), ("classify", "n_draws"),
            ("survey", "n"), ("survey", "l"),
        ]
        for kind, key in cases:
            value = {"n_pairs": 10, "db_size": 5, "l": 4}.get(key, 1)
            reports = [studies[kind](**{key: v}) for v in (value, np.int64(value), float(value))]
            assert len({r.to_json() for r in reports}) == 1, (kind, key)
            stated = reports[0].seed if key == "seed" else reports[0].config[key]
            assert stated == value and type(stated) is int, (kind, key)

    def test_largest_seed_is_accepted(self):
        cfg = ExperimentConfig(seed=2**64 - 1, n_pairs=10, maps=(MAP_TRIANGLE,))
        assert distortion_experiment(cfg).config["seed"] == 2**64 - 1


class TestNdtri:
    """The numpy port of Cephes ``ndtri`` returns scipy's values bit for bit,
    so the sampling contract holds without scipy."""

    @staticmethod
    def assert_bitwise(u):
        u = np.asarray(u, dtype=np.float64)
        got = _ndtri(u.copy())
        assert got.dtype == np.float64 and got.shape == u.shape
        np.testing.assert_array_equal(got.view(np.int64), ndtri(u).view(np.int64))

    def test_grid_ends(self):
        k = np.arange(100_000, dtype=np.float64)
        self.assert_bitwise((k + 0.5) * 2.0**-52)
        self.assert_bitwise((2.0**52 - 0.5 - k) * 2.0**-52)

    @pytest.mark.parametrize("point", [math.exp(-2.0), 1.0 - math.exp(-2.0), 0.5])
    def test_branch_points_and_neighbours(self, point):
        # consecutive positive floats have consecutive bit patterns
        self.assert_bitwise((np.float64(point).view(np.int64) + np.arange(-64, 65)).view(np.float64))

    def test_far_tail(self):
        # y < exp(-32), where x = sqrt(-2 log y) >= 8 selects P2/Q2
        y = np.geomspace(5e-324, math.exp(-32.0), 4000)
        self.assert_bitwise(y)
        self.assert_bitwise(1.0 - y[y > 2.0**-53])

    def test_philox_words(self):
        words = np.random.Philox(key=20240613).random_raw(1 << 20)
        self.assert_bitwise(((words >> 12).astype(np.float64) + 0.5) * 2.0**-52)

    def test_in_place_and_empty(self):
        u = np.array([0.01, 0.3, 0.99])
        assert _ndtri(u) is u
        empty = _ndtri(np.empty(0))
        assert empty.dtype == np.float64 and empty.shape == (0,)

    def test_pinned_draws(self):
        expected = [
            "-0x1.22cd198aad6f1p+1", "-0x1.67147405be6f1p-1", "-0x1.380f15f728ce0p+0", "0x1.4c209a0cbd7dap-3",
            "0x1.86e90d5955c4cp-8", "-0x1.2e1078a9d8193p-1", "0x1.9cbb4059f946dp+0", "0x1.197da1df56aa3p+1",
            "-0x1.53344b9d44df3p-1", "-0x1.b807b9b496aa2p-1", "0x1.1de4e4d3212bap-1", "-0x1.1ed4b0cf7fed6p+0",
            "0x1.760561ab12a08p-3", "-0x1.5152a48827709p-1", "0x1.1a6e03c631886p+0", "0x1.6a2bf0eb58d02p-1",
        ]
        assert [float(v).hex() for v in _normals(0, 0, 0, 16)] == expected


def libm_log(x):
    """The C library's log of each entry, one ``math.log`` call each."""
    return np.fromiter(map(math.log, memoryview(np.ascontiguousarray(x))), np.float64, x.size)


def sampler_grid(rng, size, top):
    """``size`` values ``((w >> 12) + 1/2) / 2**52`` of the sampler below
    ``top``, half uniform in the grid, half log-uniform in it."""
    steps = top * 2.0**52
    j = np.concatenate([rng.random(size // 2) * steps, np.exp(rng.random(size - size // 2) * np.log(steps))])
    return (np.floor(j) + 0.5) * 2.0**-52


class TestLog:
    """``sampling._log`` returns ``math.log``'s bits: from its table where
    the value lies at least ulp/32 from a rounding midpoint, from
    ``math.log`` elsewhere."""

    # per domain: with a band of ulp/512 in place of ulp/32 these 8e6 inputs
    # hold mismatches
    SIZE = 2_000_000

    @staticmethod
    def assert_bitwise(x):
        np.testing.assert_array_equal(sampling._log(x).view(np.int64), libm_log(x).view(np.int64))

    def test_sampler_domains(self, monkeypatch):
        rng = np.random.default_rng(20240613)
        y = sampler_grid(rng, self.SIZE, math.exp(-2.0))  # the tails' y
        domains = {
            "y": y,
            "x": np.sqrt(-2.0 * libm_log(y)),  # their x, in [2, 39]
            "x uniform": rng.uniform(2.0, 39.0, self.SIZE),
            "1 - u": 1.0 - sampler_grid(rng, self.SIZE, 1.0),
        }
        want = {name: libm_log(x) for name, x in domains.items()}
        calls, log = [], math.log
        monkeypatch.setattr(math, "log", lambda v: calls.append(v) or log(v))
        for name, x in domains.items():
            calls.clear()
            got = sampling._log(x)
            np.testing.assert_array_equal(got.view(np.int64), want[name].view(np.int64), err_msg=name)
            if name != "1 - u":  # there most values have |log| < 1/2
                # the band of ulp/32 on each side of a midpoint is 1/16 of
                # the values, and the fallback gets those
                assert 0.05 < len(calls) / x.size < 0.075, (name, len(calls))

    def test_subnormals_and_special_points(self):
        x = np.array([1.0, 1.5, 0.7, 2.0**-1022, np.nextafter(2.0**-1022, 1.0), 5e-324, 2.0**-1074 * 3,
                      np.nextafter(2.0**-1022, 0.0), math.exp(0.5), math.exp(-0.5), np.finfo(np.float64).max])
        self.assert_bitwise(x)
        # every subnormal binade down to 5e-324, and the normals above it
        self.assert_bitwise(np.geomspace(5e-324, 2.0**-1000, 100_000))
        # random subnormal bit patterns
        self.assert_bitwise(np.random.default_rng(1).integers(1, 1 << 52, 100_000).view(np.float64))
        # results at powers of two or near them: x = exp(2^j) and neighbours
        near = np.exp(np.ldexp(1.0, np.arange(-1, 10)))
        self.assert_bitwise((near.view(np.int64)[:, None] + np.arange(-500, 501)).ravel().view(np.float64))

    def test_beside_a_power_of_two_result(self, monkeypatch):
        # below a result 2^j the spacing is half the ulp above it, so an
        # exact log within 1/64 of that spacing of the midpoint below 2^j,
        # which the band of ulp/32 above does not cover, must go to math.log
        near = []
        with mpmath.workdps(40):
            for j in range(-1, 10):
                for sign in (1, -1):
                    mid = sign * (mpmath.mpf(2) ** j - mpmath.mpf(2) ** (j - 54))
                    x0 = np.float64(mpmath.exp(mid))
                    xs = (x0.view(np.int64) + np.arange(-300, 301)).view(np.float64)
                    gap = [abs(mpmath.log(mpmath.mpf(float(x))) - mid) * 2 ** (54 - j) for x in xs]
                    near += [x for x, g in zip(xs, gap) if g < mpmath.mpf(1) / 64]
        near = np.array(near)
        assert near.size > 20
        calls, log = [], math.log
        monkeypatch.setattr(math, "log", lambda v: calls.append(v) or log(v))
        got = sampling._log(near)
        assert sorted(calls) == sorted(near.tolist())
        np.testing.assert_array_equal(got.view(np.int64), libm_log(near).view(np.int64))

    def test_cell_and_binade_edges(self):
        # each cell [1 + i/128, 1 + (i+1)/128) of m, in binades across the
        # float64 range, with 16 neighbours on each side
        m = 1.0 + np.arange(129) / 128.0
        edges = np.ldexp(m[:, None], np.arange(-1022, 1024, 37)).ravel()
        edges = edges[np.isfinite(edges)]
        self.assert_bitwise((edges.view(np.int64)[:, None] + np.arange(-16, 17)).ravel().view(np.float64))

    def test_bits_not_a_positive_normal(self):
        got = sampling._log(np.array([np.inf, np.nan]))
        assert got[0] == np.inf and np.isnan(got[1])
        for bad in (0.0, -0.0, -1.0, -np.inf):
            with pytest.raises(ValueError):
                sampling._log(np.array([2.0, bad]))
        assert sampling._log(np.empty(0)).shape == (0,)

    def test_ndtri_tail_longer_than_a_block(self, monkeypatch):
        # a tail of three blocks and a bit of _log's loop, in both tails
        u = sampler_grid(np.random.default_rng(5), 3 * 2**13 + 5, math.exp(-2.0))
        u = np.concatenate([u, 1.0 - u])
        got = _ndtri(u.copy())
        monkeypatch.setattr(sampling, "_log", libm_log)
        np.testing.assert_array_equal(got.view(np.int64), _ndtri(u.copy()).view(np.int64))

    def test_table(self):
        invc, logc_hi, logc_lo, ln2_hi, ln2_lo = sampling._log_table()
        assert invc.shape == logc_hi.shape == logc_lo.shape == (128,)
        # invc has 20 bits and keeps |r| = |m invc - 1| below 2**-8 on its cell
        assert np.all(np.ldexp(invc, 20) % 1.0 == 0.0)
        lo, hi = 1.0 + np.arange(128) / 128.0, 1.0 + np.arange(1, 129) / 128.0
        assert np.all(np.maximum(abs(lo * invc - 1.0), abs(hi * invc - 1.0)) < 2.0**-8)
        # the hi parts lie on the 2**-42 grid, so k ln2_hi + logc_hi is exact
        assert np.all(np.ldexp(np.append(logc_hi, ln2_hi), 42) % 1.0 == 0.0)
        assert np.all(abs(np.append(logc_lo, ln2_lo)) <= 2.0**-43)
        # -log(1/2) is ln 2
        rows = zip(np.append(invc, 0.5), np.append(logc_hi, ln2_hi), np.append(logc_lo, ln2_lo))
        with mpmath.workdps(40):
            for c, h, l in rows:
                assert abs(mpmath.mpf(h) + mpmath.mpf(l) + mpmath.log(mpmath.mpf(c))) < mpmath.mpf(2) ** -95
