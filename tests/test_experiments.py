from hypothesis import example, given, settings
from hypothesis import strategies as st
import json
import math
import mpmath
import tracemalloc
from unittest import mock
import warnings
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
    orbit_distance,
    reduced_embedding,
    reducer_for,
    triangle_embedding,
)
from orbitdist import experiments, linalg, search
from orbitdist.experiments import _plane_distances, _quantiles
from orbitdist.metrics import _procrustes
from orbitdist.sampling import _normals

from oracles import o2_grid_min

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def nearest(queries, db, labels, name=MAP_EXACT, reach=None):
    """The records that the classification study's kernel for map ``name``
    finds nearest to the queries, each labelled with its own record: built
    as the study builds it, the exact map over the triangle table, with
    rows sized by ``reach``, by default each record's largest ``||q - L||``
    over its queries."""
    if reach is None:
        reach = np.zeros(len(db))
        gaps = np.linalg.norm((queries - db[labels]).reshape(len(labels), -1), axis=1)
        np.maximum.at(reach, labels, gaps)
    return experiments._classifiers((name,), db, reach)[name](queries, labels)


def exact_rate(queries, db, labels):
    return np.mean(nearest(queries, db, labels) != labels)


def brute_force(queries, db, name=MAP_EXACT):
    """The argmin over every record, ties to the lowest index."""
    points, metric = experiments._MAPS[name][:2]
    q, records = (points(GroupAction.EUCLIDEAN, x) for x in (queries, db))
    return metric(q[:, None], records).argmin(axis=1)


def counting(monkeypatch, ranked, own=None):
    """Make the exact map's metric a ``_plane_distances`` that appends to
    ``ranked`` the (queries, candidates) shape of each call that ranks
    queries against candidate lists, the calls with a ``(m, w, 2, 3)``
    second argument, and to ``own`` the length of each call that pairs
    queries with their own records, ``(m, 2, 3)`` against ``(m, 2, 3)``.
    With ``own`` given, any other call, such as one pairing records with
    records, fails."""

    def spy(a, b):
        if b.ndim == 4:
            ranked.append(np.broadcast_shapes(a.shape, b.shape)[:2])
        elif own is not None:
            assert a.ndim == 3 and a.shape == b.shape, (a.shape, b.shape)
            own.append(len(a))
        return _plane_distances(a, b)

    points, _, *index = experiments._MAPS[MAP_EXACT]
    monkeypatch.setitem(experiments._MAPS, MAP_EXACT, (points, spy, *index))


def _triangle_case():
    def pair(row):
        return tuple(row.reshape(2, 2, 3))

    def ratio(a, b):
        return np.linalg.norm(triangle_embedding(a) - triangle_embedding(b)) / dist_euclidean(a, b)[0]

    def run():
        cfg = ExperimentConfig(seed=17, n_pairs=60, maps=(MAP_SIDE_LENGTHS, MAP_TRIANGLE))
        return distortion_experiment(cfg).ratio_stats[MAP_TRIANGLE]

    # 16 pairs of two 3 x 3 roots per block
    return 12, pair, lambda a, b: dist_euclidean(a, b)[0], ratio, run, 16 * 2 * 3 * 3


def _survey_case(group, n, l):
    reducer = reducer_for(group, n, l)

    def pair(row):
        a, b = experiments._config_pairs(group, n, l, row[None])
        return a[0], b[0]

    def ratio(a, b):
        gap = reduced_embedding(group, a, reducer) - reduced_embedding(group, b, reducer)
        return np.linalg.norm(gap) / orbit_distance(group, a, b)[0]

    def run():
        return lower_constant_survey(group, n, l, 60, seed=17).ratio_stats["reduced"]

    per = 2 * n * l * (2 if group.is_complex else 1)
    # 16 pairs of two rows of l per block
    return per, pair, lambda a, b: orbit_distance(group, a, b)[0], ratio, run, 16 * 2 * l


class TestRedraw:
    """Pairs below the degeneracy threshold are redrawn from stream r at
    the same words; forced here by raising the threshold, with the block
    rule set to 16 pairs per block so that redraws fall in several
    blocks."""

    @pytest.mark.parametrize(
        "case",
        [
            _triangle_case,
            lambda: _survey_case(GroupAction.ORTHOGONAL, 1, 4),
            lambda: _survey_case(GroupAction.UNITARY, 1, 3),
        ],
        ids=["distortion", "lower-constant-O", "lower-constant-U"],
    )
    def test_redrawn_pairs_come_from_stream_r(self, monkeypatch, case):
        per, pair, distance, ratio, run, entries = case()
        first = [distance(*pair(_normals(17, 0, per * i, per))) for i in range(60)]
        threshold = float(np.median(first))
        monkeypatch.setattr(experiments, "_DEGENERATE", threshold)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", entries)
        calls = []

        def spy(seed, stream, start, count):
            calls.append((stream, start, count))
            return _normals(seed, stream, start, count)

        monkeypatch.setattr(experiments, "_normals", spy)
        stats = run()
        redraws, ratios = [], []
        for i in range(60):
            stream, row = 0, _normals(17, 0, per * i, per)
            while distance(*pair(row)) < threshold:
                stream += 1
                redraws.append((stream, per * i, per))
                row = _normals(17, stream, per * i, per)
            ratios.append(ratio(*pair(row)))
        blocks = [(0, per * lo, per * min(16, 60 - lo)) for lo in range(0, 60, 16)]
        assert [c for c in calls if c[0] == 0] == blocks
        assert sorted(c for c in calls if c[0] >= 1) == sorted(redraws)
        assert len(redraws) >= 30 and max(r[0] for r in redraws) >= 2
        assert all(np.isfinite(stats[k]) for k in ("min", "max", "mean", "std"))
        for key, value in (("min", min(ratios)), ("max", max(ratios)), ("mean", np.mean(ratios))):
            assert stats[key] == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize(
    "kind, config, width",
    [
        # root entries per pair: two 3 x 3 roots, or two rows of l at n = 1
        ("distortion", {}, 18),
        *[("lower-constant", {"group": g, "n": 1, "l": 16}, 32) for g in "OEUF"],
    ],
    ids=["distortion", *[f"lower-constant-{g}" for g in "OEUF"]],
)
def test_report_bytes_do_not_depend_on_the_block(monkeypatch, tmp_path, kind, config, width):
    from orbitdist.cli import main

    # the default rule runs two blocks, a block of one pair's width runs each
    # pair alone
    n_pairs = linalg._BLOCK_ENTRIES // width + 100
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(config, n_pairs=n_pairs)))
    blocks, reports = [], []

    def spy(seed, stream, start, count):
        blocks[-1] += stream == 0
        return _normals(seed, stream, start, count)

    monkeypatch.setattr(experiments, "_normals", spy)
    for entries in (linalg._BLOCK_ENTRIES, width):
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", entries)
        blocks.append(0)
        out = tmp_path / str(entries)
        argv = ["experiment", kind, "--seed", "4", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        reports.append((out / "report.json").read_bytes())
    assert blocks == [2, n_pairs]
    assert reports[0] == reports[1]


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
            dict(n_pairs=experiments.MAX_PAIRS + 1, maps=(MAP_TRIANGLE,)),
            # an integer whose repr exceeds Python's 4300-digit limit
            dict(n_pairs=10**5000, maps=(MAP_TRIANGLE,)),
            dict(n_pairs=10.5, maps=(MAP_TRIANGLE,)),
            dict(n_pairs="10", maps=(MAP_TRIANGLE,)),
            dict(n_pairs=10, maps=("reduced",)),
            dict(n_pairs=10, maps=MAP_TRIANGLE),
        ],
    )
    def test_invalid_configs(self, bad):
        with pytest.raises(ConfigInvalidError):
            distortion_experiment(ExperimentConfig(seed=0, **bad))


def plane_distance_mp(a, b, digits=50):
    """Euclidean orbit distance of two planar configurations in
    ``digits``-digit arithmetic, from ``d^2 = |a|^2 + |b|^2 - 2 max(|<a, b>|,
    |a^T b|)`` over the centred points as complex numbers; the cancellation
    costs far fewer digits than it has."""
    with mpmath.workdps(digits):
        def points(x):
            z = [mpmath.mpc(float(x[0, j]), float(x[1, j])) for j in range(x.shape[1])]
            mean = mpmath.fsum(z) / len(z)
            return [w - mean for w in z]

        za, zb = points(a), points(b)
        sq = mpmath.fsum(abs(w) ** 2 for w in za) + mpmath.fsum(abs(w) ** 2 for w in zb)
        rot = abs(mpmath.fsum(mpmath.conj(x) * y for x, y in zip(za, zb)))
        ref = abs(mpmath.fsum(x * y for x, y in zip(za, zb)))
        return float(mpmath.sqrt(max(sq - 2 * max(rot, ref), 0)))


def reflect_rotate(a, theta, mirror, shift):
    c, s = np.cos(theta), np.sin(theta)
    w = np.array([[c, -s], [s, c]]) @ (np.diag([1.0, -1.0]) if mirror else np.eye(2))
    return w @ a + np.asarray(shift)[:, None]


@st.composite
def plane_pairs(draw):
    """Two planar configurations of 1 to 6 points: independent, collinear,
    nearly collinear, rigid or mirror-image copies (up to round-off), or
    zero."""
    l = draw(st.integers(1, 6))
    coord = st.floats(-1e3, 1e3, allow_subnormal=False)
    a = np.array(draw(st.lists(coord, min_size=2 * l, max_size=2 * l))).reshape(2, l)
    kind = draw(st.sampled_from(["independent", "collinear", "rigid", "mirror", "zero"]))
    if draw(st.booleans()):
        # collinear, or within a relative height of 1e-16 .. 1e-4 of a line
        height = draw(st.sampled_from([0.0, 1e-16, 1e-12, 1e-9, 1e-6, 1e-4]))
        slope = draw(st.floats(-3.0, 3.0))
        a[1] = slope * a[0] + height * np.abs(a).max() * np.sin(np.arange(l) + 1.0)
    if kind == "independent":
        b = np.array(draw(st.lists(coord, min_size=2 * l, max_size=2 * l))).reshape(2, l)
    elif kind == "zero":
        b, a = np.zeros((2, l)), a if draw(st.booleans()) else np.zeros((2, l))
    else:
        theta = draw(st.floats(0.0, 2.0 * np.pi))
        shift = draw(st.lists(coord, min_size=2, max_size=2))
        b = reflect_rotate(a, theta, kind == "mirror", shift)
        b += draw(st.sampled_from([0.0, 1e-9, 1e-3])) * np.cos(np.arange(2 * l) + 2.0).reshape(2, l)
    return (b, a) if draw(st.booleans()) else (a, b)


class TestPlaneDistances:
    @settings(max_examples=300, deadline=None)
    @given(plane_pairs())
    # |<a, a>| = 4.3e-320, whose reciprocal is beyond float64
    @example(pair=(np.array([[0.0, 0.0], [0.0, 2.93354731e-160]]),) * 2)
    def test_matches_high_precision_closed_form(self, pair):
        # a few dozen ulps of the norms, plus 2^-530 where squares underflow
        a, b = pair
        scale = sum(float(mpmath.mnorm(mpmath.matrix(x.tolist()), "f")) for x in (a, b))
        error = abs(_plane_distances(a, b) - plane_distance_mp(a, b))
        assert error <= 1e-14 * scale + 2.0**-530

    @pytest.mark.parametrize("l", [2, 3, 4, 6])
    def test_agrees_with_procrustes_kernel(self, rng, l):
        a, b = rng.standard_normal((2, 5000, 2, l))
        b[:1000] = a[:1000] + 1e-6 * b[:1000]  # nearly coincident pairs
        want = _procrustes(GroupAction.EUCLIDEAN, a, b)[0]
        scale = np.linalg.norm(a, axis=(1, 2)) + np.linalg.norm(b, axis=(1, 2))
        assert np.all(np.abs(_plane_distances(a, b) - want) <= 1e-14 * scale)

    def test_matches_grid_oracle(self, rng):
        for l in (2, 3, 5):
            a, b = rng.standard_normal((2, 2, l))
            a, b = a - a.mean(axis=1, keepdims=True), b - b.mean(axis=1, keepdims=True)
            assert abs(_plane_distances(a, b) - o2_grid_min(a, b, n_grid=200_000)) <= 1e-3

    def test_nearly_collinear_rigid_copies_are_at_zero(self, rng):
        # here the moduli |<a, b>| and |a^T b| agree to round-off, so a branch
        # chosen by comparing them may be off by about sqrt(u) |a|
        for height in (1e-6, 1e-9, 1e-12):
            a = rng.standard_normal((2, 3))
            a[1] = 0.7 * a[0] + height * rng.standard_normal(3)
            for mirror in (False, True):
                b = reflect_rotate(a, rng.uniform(0.0, 2.0 * np.pi), mirror, rng.standard_normal(2))
                assert _plane_distances(a, b) <= 1e-14 * (np.linalg.norm(a) + np.linalg.norm(b))

    def test_zero_and_coincident_configurations(self):
        a = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert _plane_distances(np.zeros((2, 3)), np.zeros((2, 3))) == 0.0
        assert _plane_distances(a, a) == 0.0
        # a configuration of one repeated point is a translation of zero
        assert _plane_distances(np.ones((2, 3)), np.zeros((2, 3))) == 0.0
        centred = a - a.mean(axis=1, keepdims=True)
        want = np.linalg.norm(centred)
        assert _plane_distances(a, np.zeros((2, 3))) == pytest.approx(want, rel=1e-15)

    def test_stacked_rows_equal_single_pairs(self, rng):
        q, db = rng.standard_normal((5, 2, 3)), rng.standard_normal((7, 2, 3))
        table = _plane_distances(q[:, None], db)
        for i in range(5):
            np.testing.assert_array_equal(table[i], _plane_distances(q[i], db))
            for j in range(7):
                assert table[i, j] == _plane_distances(q[i], db[j])


class TestNearestRecords:
    """The nearest-record kernel always returns the argmin of the map's
    distance over every record, ties to the lowest index."""

    @pytest.mark.parametrize("entries", [1, 200, None], ids=["k=2", "k=5", "full"])
    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.5, 2.0])
    def test_open_rows_with_duplicate_records(self, monkeypatch, rng, entries, eps):
        # a truncated table (K records per row) ranks the rows whose radius
        # reaches past it against every record; small blocks split the rest
        if entries is not None:
            monkeypatch.setattr(search, "_TABLE", entries)
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 16)
        db = rng.standard_normal((40, 2, 3))
        db[10], db[20:23] = db[3], db[5]
        labels = np.repeat(np.arange(40), 3)
        queries = db[labels] + eps * rng.standard_normal((len(labels), 2, 3))
        want = brute_force(queries, db)
        if eps == 0.0:
            assert want[labels == 10].tolist() == [3, 3, 3]
        ranked = []
        counting(monkeypatch, ranked)
        np.testing.assert_array_equal(nearest(queries, db, labels), want)
        # the 18 rows of duplicated records are open at every noise level,
        # and at 2.0 most rows are
        open_rows = sum(m for m, _ in ranked)
        assert open_rows >= 18 and (eps < 2.0 or open_rows > len(labels) / 2)
        assert exact_rate(queries, db, want) == 0.0
        assert exact_rate(queries, db, labels) == np.mean(want != labels)

    @pytest.mark.parametrize("name", [MAP_EXACT, MAP_SIDE_LENGTHS, MAP_TRIANGLE])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_tiny_databases(self, rng, name, size):
        db = rng.standard_normal((size, 2, 3))
        queries = rng.standard_normal((30, 2, 3))
        labels = np.arange(30) % size
        want = brute_force(queries, db, name)
        np.testing.assert_array_equal(nearest(queries, db, labels, name), want)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from([MAP_EXACT, MAP_SIDE_LENGTHS, MAP_TRIANGLE]),
        size=st.integers(1, 40),
        draws=st.integers(1, 3),
        eps=st.sampled_from([0.0, 1e-9, 0.01, 0.05, 0.5, 2.0]),
        duplicates=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        # entries per table: rows truncated to 2 or 64 // size records, or whole
        entries=st.sampled_from([1, 64, search._TABLE]),
    )
    @example(name=MAP_EXACT, size=1, draws=1, eps=0.0, duplicates=0, seed=0, entries=search._TABLE)
    @example(name=MAP_SIDE_LENGTHS, size=39, draws=2, eps=2.0, duplicates=3, seed=1, entries=64)
    def test_rate_equals_brute_force(self, name, size, draws, eps, duplicates, seed, entries):
        rng = np.random.default_rng(seed)
        db = rng.standard_normal((size, 2, 3))
        for _ in range(duplicates):  # an exact copy: ties go to the lower index
            db[rng.integers(size)] = db[rng.integers(size)]
        labels = np.repeat(np.arange(size), draws)
        queries = db[labels] + eps * rng.standard_normal((len(labels), 2, 3))
        want = brute_force(queries, db, name)
        with mock.patch.object(search, "_TABLE", entries):
            got = nearest(queries, db, labels, name)
        np.testing.assert_array_equal(got, want)
        assert np.mean(got != labels) == np.mean(want != labels)

    @staticmethod
    def exact_work_at_cli_defaults(monkeypatch, own=None):
        ranked = []
        counting(monkeypatch, ranked, own)
        cfg = ExperimentConfig.from_dict(
            dict(experiments._DEFAULT_CONFIGS["classify"], seed=0, maps=[MAP_EXACT])
        )
        classification_experiment(cfg)
        return sum(m * w for m, w in ranked)

    def test_ranking_work_at_cli_defaults(self, monkeypatch):
        # beyond one own distance per query, the exact map ranks few pairs:
        # about 21 000 through the triangle table's sqrt(2)-wider radius
        # (9337 through a table of exact distances), where the shortlist
        # before both ranked 280 000
        assert 0 < self.exact_work_at_cli_defaults(monkeypatch) <= 40_000

    def test_no_exact_distance_between_records(self, monkeypatch):
        # the exact map reads the triangle table: every exact distance the
        # study takes pairs a query with its own record or ranks it, where
        # a table of exact distances would take 500^2 more
        own = []
        ranked = self.exact_work_at_cli_defaults(monkeypatch, own)
        assert sum(own) <= 70_000 and ranked <= 40_000

    def test_nearer_record_beyond_twice_the_own_distance(self, rng):
        # a query 55% of the way from its record L to a record j that the
        # triangle features stretch by more than 1.2: j is nearer, yet
        # F(L, j) > 1.2 d(L, j) > 2 d(q, L), so only the sqrt(2) of the
        # feature radius lets the exact map rank j
        a, b = rng.standard_normal((2, 400, 2, 3))
        stretch = np.linalg.norm(
            experiments._triangle_coords(a) - experiments._triangle_coords(b), axis=1
        ) / _plane_distances(a, b)
        pairs = np.flatnonzero(stretch > 1.2)[:8]
        assert pairs.size
        for i in pairs:
            _, to_b = dist_euclidean(a[i], b[i])
            query = b[i] + 0.55 * (to_b.apply(a[i]) - b[i])
            db = np.stack([a[i], b[i]])
            assert brute_force(query[None], db).tolist() == [0]
            assert nearest(query[None], db, np.array([1])).tolist() == [0]

    @pytest.mark.parametrize("entries", [1, None], ids=["k=2", "full"])
    @pytest.mark.parametrize("eps", [0.0, 1e-12])
    def test_rigid_copy_at_a_lower_index(self, monkeypatch, rng, entries, eps):
        # a record's exact 90-degree rotation plus an integer translation
        # is at exact distance 0 from it, while their triangle features
        # differ by round-off: only the slack of the feature radius lets
        # the exact map rank the copy, to which brute force gives the tie
        draws = np.random.default_rng(0)
        a = draws.standard_normal((2000, 2, 3))
        b = np.array([[0.0, -1.0], [1.0, 0.0]]) @ a + draws.integers(-3, 4, (2000, 2, 1))
        found = (_plane_distances(a, b) == 0.0) & (
            experiments._triangle_coords(a) != experiments._triangle_coords(b)
        ).any(axis=1)
        i = np.flatnonzero(found)[0]
        assert _plane_distances(a[i], b[i]) == 0.0
        assert 0.0 < np.linalg.norm(triangle_embedding(a[i]) - triangle_embedding(b[i])) < 1e-14
        if entries is not None:
            monkeypatch.setattr(search, "_TABLE", entries)
        db = rng.standard_normal((20, 2, 3))
        db[4], db[11] = b[i], a[i]
        labels = np.full(5, 11)
        queries = db[labels] + eps * rng.standard_normal((5, 2, 3))
        want = brute_force(queries, db)
        if eps == 0.0:
            assert want.tolist() == [4] * 5
        np.testing.assert_array_equal(nearest(queries, db, labels), want)

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("reach", [0.0, np.inf], ids=["two-per-row", "whole-rows"])
    @pytest.mark.parametrize("name", [MAP_EXACT, MAP_SIDE_LENGTHS, MAP_TRIANGLE])
    def test_exact_whatever_the_bound(self, monkeypatch, rng, name, reach, eps):
        # the bound sizes the rows, never the answer: at 0 each row keeps
        # its own record and the next, so a query with any record inside
        # its radius ranks every record; at inf every row is whole
        db = rng.standard_normal((60, 2, 3))
        labels = np.repeat(np.arange(60), 2)
        queries = db[labels] + eps * rng.standard_normal((len(labels), 2, 3))
        kept = []
        kernel = search._record_table

        def spy(*args):
            index = kernel(*args)
            kept.append(index[2])
            return index

        monkeypatch.setattr(search, "_record_table", spy)
        ranked = []
        if name == MAP_EXACT:
            counting(monkeypatch, ranked)
        got = nearest(queries, db, labels, name, reach=np.full(60, reach))
        np.testing.assert_array_equal(got, brute_force(queries, db, name))
        assert kept[0].tolist() == [2 if reach == 0.0 else 60] * 60
        if name == MAP_EXACT and eps == 0.5:
            # open rows: with two records per row they rank every record
            assert ranked and all(w == 60 for _, w in ranked) == (reach == 0.0)

    def test_traced_peak_at_cli_defaults(self):
        # the tables and the ranking run in blocks of pairs: one 500 x 500
        # broadcast of _plane_distances would trace about 50 MB; and the
        # tables keep about 30 records per row, where whole rows of 500
        # traced 13 MB
        cfg = ExperimentConfig.from_dict(dict(experiments._DEFAULT_CONFIGS["classify"], seed=0))
        tracemalloc.start()
        try:
            classification_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20


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

    def test_exact_map_agrees_with_scalar_reference(self):
        # classify noisy triangles by a plain python loop over dist_euclidean,
        # at a noise level where that loop misclassifies some of them
        eps = 0.3
        for seed in (13, 14, 15, 16):
            cfg = ExperimentConfig(
                seed=seed, db_size=12, n_draws=2, noise_grid=(eps,), maps=(MAP_EXACT,)
            )
            rep = classification_experiment(cfg)
            db = _normals(seed, 0, 0, 72).reshape(12, 2, 3)
            wrong = 0
            for k in range(24):
                noisy = db[k // 2] + eps * _normals(seed, 1, 6 * k, 6).reshape(2, 3)
                dists = [dist_euclidean(noisy, db[j])[0] for j in range(12)]
                wrong += int(np.argmin(dists) != k // 2)
            assert wrong >= 1
            assert rep.rates["misclassification"][MAP_EXACT][0] == wrong / 24

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    def test_exact_rate_on_mirror_images(self, rng, eps):
        # every query is a reflected, rotated and shifted copy of a record,
        # so only the reflection term |a^T b| can find its record
        db = rng.standard_normal((16, 2, 3))
        labels = np.repeat(np.arange(16), 3)
        queries = []
        for i in labels:
            t = rng.uniform(0.0, 2.0 * np.pi)
            mirror = np.array([[np.cos(t), np.sin(t)], [np.sin(t), -np.cos(t)]])
            shift = rng.standard_normal((2, 1))
            queries.append(mirror @ db[i] + shift + eps * rng.standard_normal((2, 3)))
        queries = np.array(queries)
        wrong = sum(
            int(np.argmin([dist_euclidean(q, b)[0] for b in db]) != i)
            for q, i in zip(queries, labels)
        )
        rate = exact_rate(queries, db, labels)
        assert rate == wrong / len(labels)
        if eps == 0.0:
            assert rate == 0.0
        else:
            assert wrong >= 1

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
            dict(db_size=experiments.MAX_DB_SIZE + 1, noise_grid=(0.0,), maps=(MAP_EXACT,)),
            dict(db_size=5, noise_grid=(0.0,), maps=(MAP_EXACT,), n_draws=experiments.MAX_DRAWS + 1),
            # levels that are not numbers, a bool, a grid that is not a list
            dict(db_size=5, noise_grid=("a",), maps=(MAP_EXACT,)),
            dict(db_size=5, noise_grid=(None,), maps=(MAP_EXACT,)),
            dict(db_size=5, noise_grid=(True,), maps=(MAP_EXACT,)),
            dict(db_size=5, noise_grid=0.0, maps=(MAP_EXACT,)),
            dict(db_size=5.5, noise_grid=(0.0,), maps=(MAP_EXACT,)),
            dict(db_size=5, noise_grid=(0.0,), maps=(MAP_EXACT,), n_draws=2.5),
        ],
    )
    def test_invalid_configs(self, bad):
        with pytest.raises(ConfigInvalidError):
            classification_experiment(ExperimentConfig(seed=0, **bad))


class TestConfigChecks:
    """Noise levels and map names are refused before anything is drawn."""

    @pytest.mark.parametrize(
        "grid", [(0.0, 1e160), (0.0, 1e308), (0.0, math.inf), (0.0, math.nan), (math.inf,)]
    )
    def test_noise_beyond_the_ceiling(self, grid):
        with pytest.raises(ConfigInvalidError, match="finite"):
            ExperimentConfig(seed=0, db_size=5, n_draws=2, noise_grid=grid, maps=(MAP_EXACT,))

    def test_noise_at_the_ceiling_gives_rates(self):
        grid = (0.0, 1.0, experiments.MAX_NOISE)
        cfg = ExperimentConfig(
            seed=3, db_size=20, n_draws=2, noise_grid=grid,
            maps=(MAP_EXACT, MAP_SIDE_LENGTHS, MAP_TRIANGLE),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = classification_experiment(cfg)
        for rates in rep.rates["misclassification"].values():
            assert len(rates) == 3 and all(0.0 <= r <= 1.0 for r in rates)

    @pytest.mark.parametrize(
        "key, value", [("maps", "exact"), ("noise_grid", "0"), ("maps", None), ("noise_grid", 0.0)]
    )
    def test_from_dict_refuses_a_value_that_is_not_a_list(self, key, value):
        # a string would be read one character per entry: "exact" as the
        # maps ('e', 'x', 'a', 'c', 't'), "0" as the grid (0.0,)
        with pytest.raises(ConfigInvalidError, match=f"{key} must be a list"):
            ExperimentConfig.from_dict({key: value})

    @pytest.mark.parametrize(
        "d",
        [
            {"group": "Z"},
            {"group": None},
            {"group": ["E"]},
            {"noise_grid": ["a"]},
            {"noise_grid": [None]},
            {"noise_grid": [True]},
            {"noise_grid": [0.0, 10**400]},
            {"n_pair": 100},
            # ranges, as every entry checks them
            {"n_pairs": 0},
            {"n_pairs": 10**5000},
            {"maps": [10**5000]},
            {"n_draws": experiments.MAX_DRAWS + 1},
            {"l": experiments.MAX_L + 1},
            {"n": 0},
            {"seed": 2.5},
            {"noise_grid": []},
            {"noise_grid": [0.01, 0.01]},
            {"maps": []},
            {"maps": ["sides"]},
        ],
        ids=["group-Z", "group-null", "group-list", "noise-string", "noise-null", "noise-bool",
             "noise-int-beyond-float64", "unknown-key", "n_pairs-0", "n_pairs-too-long-to-print",
             "maps-too-long-to-print", "n_draws-beyond-ceiling", "l-beyond-ceiling", "n-0",
             "seed-fraction", "noise-empty", "noise-repeated", "maps-empty", "maps-unknown"],
    )
    def test_from_dict_raises_only_config_invalid(self, d):
        with pytest.raises(ConfigInvalidError):
            ExperimentConfig.from_dict(d)

    def test_a_null_size_is_refused_by_the_study_that_reads_it(self, tmp_path):
        # JSON null reads as "not set", the size's default
        from orbitdist.cli import main

        cfg = ExperimentConfig.from_dict({"db_size": None, "noise_grid": [0.0], "maps": [MAP_EXACT]})
        assert cfg == ExperimentConfig(noise_grid=(0.0,), maps=(MAP_EXACT,))
        with pytest.raises(ConfigInvalidError, match="db_size must be an integer"):
            classification_experiment(cfg)
        path = tmp_path / "cfg.json"
        path.write_text('{"db_size": null}')
        argv = ["experiment", "classify", "--config", str(path), "--out", str(tmp_path)]
        assert main(argv) == 6
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("distortion", "group", GroupAction.ORTHOGONAL),
            ("distortion", "n", 5),
            ("distortion", "l", 9),
            ("distortion", "db_size", 5),
            ("distortion", "noise_grid", (0.0,)),
            ("distortion", "noise_grid", np.array([0.0, 0.1])),
            ("distortion", "n_draws", 3),
            ("classify", "n_pairs", 10),
            ("classify", "group", GroupAction.UNITARY),
            ("classify", "n", 5),
            ("classify", "n", np.array([1, 2])),
            ("classify", "l", 9),
        ],
    )
    def test_a_field_the_study_does_not_read(self, kind, key, value):
        # the report would state a value that did not run; an array is
        # refused first, by its field's own check when the config is made
        study, read = {
            "distortion": (distortion_experiment, dict(n_pairs=10, maps=(MAP_TRIANGLE,))),
            "classify": (classification_experiment, dict(db_size=5, noise_grid=(0.0,), maps=(MAP_EXACT,))),
        }[kind]
        message = rf"^experiment {kind} reads no field \['{key}'\]"
        if isinstance(value, np.ndarray):
            message = rf"^{key} must be"
        with pytest.raises(ConfigInvalidError, match=message):
            study(ExperimentConfig(seed=0, **read, **{key: value}))

    @pytest.mark.parametrize("key, value", [("n", 2.0), ("l", np.int64(3)), ("group", "E")])
    def test_a_field_the_study_does_not_read_at_its_default(self, key, value):
        # compared in canonical form, and studied and reported as the default
        read = dict(n_pairs=10, maps=(MAP_TRIANGLE,))
        rep = distortion_experiment(ExperimentConfig(**read, **{key: value}))
        assert rep.to_json() == distortion_experiment(ExperimentConfig(**read)).to_json()

    def test_from_dict_reads_lists_and_tuples(self):
        cfg = ExperimentConfig.from_dict({"maps": [MAP_EXACT], "noise_grid": (0, 0.5)})
        assert cfg.maps == (MAP_EXACT,) and cfg.noise_grid == (0.0, 0.5)

    def test_canonical_when_made(self):
        # valid values in another form give the canonical config, equal and
        # with the same hash
        given = ExperimentConfig(
            seed=np.uint64(5), n_pairs=1e5, noise_grid=[0, 0.5], maps=[MAP_EXACT, MAP_TRIANGLE],
            group="O", n=2.0, l=np.int64(4),
        )
        canonical = ExperimentConfig(
            seed=5, n_pairs=100_000, noise_grid=(0.0, 0.5), maps=(MAP_EXACT, MAP_TRIANGLE),
            group=GroupAction.ORTHOGONAL, n=2, l=4,
        )
        assert given == canonical and hash(given) == hash(canonical)
        for key in ("seed", "n_pairs", "n", "l"):
            assert type(getattr(given, key)) is int
        assert all(type(e) is float for e in given.noise_grid)
        assert given.to_dict() == canonical.to_dict()

    def test_from_dict_gives_canonical_values(self):
        cfg = ExperimentConfig.from_dict(
            {"seed": np.int64(3), "n_pairs": 1e3, "n": 2.0, "l": np.int64(5), "group": "U"}
        )
        assert cfg == ExperimentConfig(seed=3, n_pairs=1000, n=2, l=5, group=GroupAction.UNITARY)
        assert all(type(getattr(cfg, key)) is int for key in ("seed", "n_pairs", "n", "l"))

    @pytest.mark.parametrize(
        "maps",
        [(), ([MAP_EXACT],), (MAP_TRIANGLE, MAP_TRIANGLE), (1,), (None,)],
        ids=["empty", "nested", "repeated", "number", "null"],
    )
    def test_map_names(self, maps):
        with pytest.raises(ConfigInvalidError):
            classification_experiment(
                ExperimentConfig(seed=0, db_size=5, n_draws=2, noise_grid=(0.0,), maps=maps)
            )
        with pytest.raises(ConfigInvalidError):
            distortion_experiment(ExperimentConfig(seed=0, n_pairs=10, maps=maps))


class TestTablesPerStudy:
    @pytest.mark.parametrize(
        "maps",
        [(MAP_EXACT,), (MAP_EXACT, MAP_SIDE_LENGTHS, MAP_TRIANGLE), (MAP_SIDE_LENGTHS,)],
    )
    def test_one_table_per_map_per_study(self, monkeypatch, maps):
        # one table per index: the exact map reads the triangle table, which
        # the triangle map shares; the side lengths keep their own
        tables = {
            (MAP_EXACT,): (MAP_TRIANGLE,),
            (MAP_EXACT, MAP_SIDE_LENGTHS, MAP_TRIANGLE): (MAP_TRIANGLE, MAP_SIDE_LENGTHS),
            (MAP_SIDE_LENGTHS,): (MAP_SIDE_LENGTHS,),
        }[maps]
        calls = []
        kernel = search._record_table

        def spy(points, metric, db, bound):
            calls.append((points, metric, db))
            return kernel(points, metric, db, bound)

        monkeypatch.setattr(search, "_record_table", spy)
        cfg = ExperimentConfig(
            seed=4, db_size=30, n_draws=2, noise_grid=(0.0, 0.01, 0.02, 0.05), maps=maps
        )
        rep = classification_experiment(cfg)
        db = _normals(4, 0, 0, 180).reshape(30, 2, 3)
        assert len(calls) == len(tables)
        for (points, metric, records), name in zip(calls, tables):
            assert (points, metric) == experiments._MAPS[name][:2]
            np.testing.assert_array_equal(records, db)
        labels = np.repeat(np.arange(30), 2)
        noise = _normals(4, 1, 0, 360).reshape(-1, 2, 3)
        for name in maps:
            want = [
                np.mean(brute_force(np.repeat(db, 2, axis=0) + eps * noise, db, name) != labels)
                for eps in cfg.noise_grid
            ]
            assert rep.rates["misclassification"][name] == want

    @pytest.mark.parametrize("name", [MAP_SIDE_LENGTHS, MAP_TRIANGLE])
    def test_feature_layout_keeps_the_table_bits(self, name):
        # both feature maps lay their coordinates outermost, so the table's
        # norms run as whole-array adds; a C-ordered copy gives the same bits
        points, metric = experiments._MAPS[name][:2]
        db = _normals(6, 0, 0, 6 * 300).reshape(300, 2, 3)
        assert not points(GroupAction.EUCLIDEAN, db).flags.c_contiguous

        def c_ordered(group, x):
            return np.ascontiguousarray(points(group, x))

        bound = np.full(300, np.inf)  # whole rows
        for got, want in zip(
            search._record_table(points, metric, db, bound),
            search._record_table(c_ordered, metric, db, bound),
        ):
            np.testing.assert_array_equal(got, want)


class TestQuantiles:
    SURVEY = [0.001, 0.01, 0.05, 0.25, 0.5]

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=3000),
            # ties, and zeros of both signs
            st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), min_size=1, max_size=3000),
            st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=3000),
        ),
        qs=st.lists(st.floats(0.0, 1.0), max_size=5),
    )
    @example(values=[0.0, -0.0, -0.0], qs=[1.0, 0.0])
    @example(values=[-0.0], qs=[0.5, 1.0])
    @example(values=[-1.7e308, 1.7e308, 1.0], qs=[0.25, 0.75])
    def test_bits_of_np_quantile(self, values, qs):
        r = np.array(values)
        qs = self.SURVEY + qs + [0.0, 1.0]
        # b - a overflows alike in both between values of opposite signs
        with np.errstate(over="ignore", invalid="ignore"):
            got = np.array(_quantiles(r, qs))
            want = np.array([np.quantile(r, q) for q in qs])
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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
        # too large an n for l is a dimension error, whatever the reducer's size
        with pytest.raises(DimensionHypothesisError):
            lower_constant_survey(GroupAction.ORTHOGONAL, 10**6, experiments.MAX_L, 10, seed=0)

    @pytest.mark.parametrize("group", list(GroupAction))
    def test_reducer_ceiling_admits_n_2_at_max_l(self, monkeypatch, group):
        class Built(Exception):
            pass

        def reducer_for(*args):
            raise Built

        monkeypatch.setattr(experiments, "reducer_for", reducer_for)
        with pytest.raises(Built):
            lower_constant_survey(group, 2, experiments.MAX_L, 10, seed=0)

    @pytest.mark.parametrize("group, n", [(GroupAction.ORTHOGONAL, 5), (GroupAction.UNITARY, 3)])
    def test_reducer_ceiling_rejects_before_building(self, monkeypatch, group, n):
        def reducer_for(*args):
            raise AssertionError("reducer built")

        monkeypatch.setattr(experiments, "reducer_for", reducer_for)
        with pytest.raises(ConfigInvalidError, match="non-zeros"):
            lower_constant_survey(group, n, experiments.MAX_L, 10, seed=0)

    @pytest.mark.parametrize(
        "group, n, l",
        [
            (GroupAction.ORTHOGONAL, 1, 4),
            (GroupAction.EUCLIDEAN, 1, 5),
            (GroupAction.UNITARY, 1, 3),
            (GroupAction.COMPLEX_EUCLIDEAN, 1, 4),
            (GroupAction.EUCLIDEAN, 2, 6),
            (GroupAction.UNITARY, 2, 5),
        ],
    )
    def test_batched_ratios_match_scalar_loop(self, monkeypatch, group, n, l):
        # the block rule set to 16 pairs of two roots (l x l at n >= 2, a
        # row of l at n = 1), so 50 pairs cross three block boundaries
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 16 * 2 * (l if n == 1 else l * l))
        rep = lower_constant_survey(group, n, l, 50, seed=9)
        per = 2 * n * l * (2 if group.is_complex else 1)
        reducer = reducer_for(group, n, l)
        ratios = []
        for i in range(50):
            a, b = experiments._config_pairs(group, n, l, _normals(9, 0, per * i, per)[None])
            gap = reduced_embedding(group, a[0], reducer) - reduced_embedding(group, b[0], reducer)
            ratios.append(np.linalg.norm(gap) / orbit_distance(group, a[0], b[0])[0])
        s = rep.ratio_stats["reduced"]
        for key, value in (("min", min(ratios)), ("max", max(ratios)), ("mean", np.mean(ratios))):
            assert s[key] == pytest.approx(value, rel=1e-12)
        assert s["quantiles"]["0.5"] == pytest.approx(np.quantile(ratios, 0.5), rel=1e-12)

    @pytest.mark.parametrize("bad", [None, 0, experiments.MAX_PAIRS + 1])
    def test_invalid_n_pairs(self, bad):
        with pytest.raises(ConfigInvalidError):
            lower_constant_survey(GroupAction.ORTHOGONAL, 1, 4, bad, seed=0)

    def test_group_names(self):
        # a group is read by name, as ExperimentConfig.from_dict reads it
        named = lower_constant_survey("O", 1, 4, 10, 0)
        assert named.to_json() == lower_constant_survey(GroupAction.ORTHOGONAL, 1, 4, 10, 0).to_json()
        for bad in ("Q", None, ["O"]):
            with pytest.raises(ConfigInvalidError, match="group must be one of"):
                lower_constant_survey(bad, 1, 4, 10, 0)

    def test_determinism(self):
        a = lower_constant_survey(GroupAction.ORTHOGONAL, 1, 4, 100, seed=7)
        b = lower_constant_survey(GroupAction.ORTHOGONAL, 1, 4, 100, seed=7)
        assert a.to_json() == b.to_json()
