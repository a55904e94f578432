"""Seeded, reproducible studies on random triangles and configurations.

This module holds the configs, the planar kernel and the three studies.
The draws come from :mod:`orbitdist.sampling`, and the classification's
certified ranking from :mod:`orbitdist.search`, which only it loads.

- ``distortion_experiment`` and ``lower_constant_survey``: one pair study
  (:func:`_pair_study`) of the ratio of feature distance to orbit distance
  over random pairs: of triangles for the side-length map and the triangle
  embedding, of ``(n, l)`` configurations for the reduced (projected)
  embedding, which has no closed-form lower constant; the survey's minimum
  is an upper bound on that constant.
- ``classification_experiment``: nearest-record classification of noisy
  triangles against a random database under the exact orbit distance and
  both invariant maps, across a noise grid.

One seed gives one byte-identical report.  In the pair studies trial ``i``
reads words ``[per*i, per*(i+1))`` of stream 0, with ``per`` = 12 for two
triangles and 2nl (doubled for the complex groups) for two configurations;
a pair closer than 1e-12 in orbit distance is redrawn, attempt ``r >= 1``
reading the same words of stream ``r``.  The classification study reads
its database from words ``[0, 6*db_size)`` of stream 0 and the noise of
query ``q`` from words ``[6q, 6q+6)`` of stream 1.

Every config field is checked in one place, the table ``_CHECKS``, which
maps each field to the function that returns it in canonical form (an
int, a tuple of floats, a GroupAction, a tuple of map names); a config is
checked when made, by that table.  Study sizes have ceilings: ``n_pairs`` at
most ``MAX_PAIRS`` (10**7), ``db_size`` at most ``MAX_DB_SIZE`` (10**4),
``n_draws`` at most ``MAX_DRAWS`` (100), the survey's ``l`` at most
``MAX_L`` (1024) and its reducer at most ``MAX_REDUCER_NNZ`` (2**22)
non-zeros, and each noise level is finite and at most ``MAX_NOISE``
(1e100).  A size outside ``[1, ceiling]``, an ``n`` below 1, an integer
field that is not a whole number, or a map list that is empty or holds a
repeated name raises ConfigInvalidError when the config is made.  Each
entry (:func:`_validated`) raises it for a field its study reads that is
not set, a map it does not run, or a field it does not read set to other
than its default, before anything is drawn or built.

The arithmetic is stacked over blocks of trials, each of about
``linalg._BLOCK_ENTRIES`` entries (:func:`linalg._blocks`).  Orbit
distances come from a closed-form planar kernel for triangles
(:func:`_plane_distances`, no SVD) and from the Procrustes kernel of
:mod:`orbitdist.metrics` for every other shape, reduced features from
:mod:`orbitdist.reduction` (by FFT at n = 1, by the sparse projection of
the Gram roots at n >= 2), and triangle features from the kernels of
:mod:`orbitdist.triangles`.
Neither the distortion nor the classification study loads scipy, nor does
the survey at n = 1; at n >= 2 it loads ``scipy.sparse`` for the
reducer's product over its stacks of roots.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
import json
import math
import numbers

import numpy as np

from .errors import ConfigInvalidError, _shown
from .features import MAP_TRIANGLE, REDUCED, _is_triangle
from .linalg import _blocks, _sum_last
from .metrics import GroupAction, _procrustes
from .reduction import _block_size, _reduced_stack, reducer_for
from .sampling import _normals
from .triangles import _SQRT2, _side_lengths, _triangle_coords

MAP_SIDE_LENGTHS = "side_lengths"
MAP_EXACT = "exact"

_DEGENERATE = 1e-12
_HIST_EDGES = np.linspace(0.0, 1.8, 61)
_SQRT3 = np.sqrt(3.0)
# Ceilings on the study sizes, so that a config cannot ask for more memory
# than a workstation has.  The pair studies keep a few float64 ratios per
# pair (about 0.3 GB at MAX_PAIRS); the classification study keeps a few
# hundred bytes per noisy query, db_size * n_draws of them (about 0.3 GB
# at both ceilings), and at most two record tables (one per index, see
# _MAPS) of at most about search._TABLE distances and indices each (16 MB),
# while the blocks of the one being built hold as much again; at the CLI
# defaults a row keeps about 30 of the 500 records.  At n >= 2 each pair
# of the lower-constant survey holds l x l Gram roots, 16 MB for a complex
# one at MAX_L, and shares a reducer of at most n * size**2 non-zeros
# (twice that Hermitian), 16 bytes each (a float64 value and an int64
# column, which its CSR container shares): the ceiling, 64 MB, admits
# every group at n <= 2 and l <= MAX_L.  At n = 1 a pair holds O(l)
# entries and no reducer is built.
MAX_PAIRS = 10**7
MAX_DB_SIZE = 10**4
MAX_DRAWS = 100
MAX_L = 1024
MAX_REDUCER_NNZ = 2**22
MAX_NOISE = 1e100  # far below the float64 range: no square of a query overflows


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs shared by the experiment drivers, checked when made: each
    field given is held in canonical form (``_CHECKS``), or
    ConfigInvalidError.  A field left at its default is not checked: None
    and ``()`` mean "not set"."""

    seed: int = 0
    n_pairs: int | None = None
    db_size: int | None = None
    noise_grid: tuple[float, ...] = ()
    n_draws: int = 20
    maps: tuple[str, ...] = ()
    group: GroupAction = GroupAction.EUCLIDEAN
    n: int = 2
    l: int = 3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not f.default:
                object.__setattr__(self, f.name, _CHECKS[f.name](value))

    def to_dict(self) -> dict:
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "noise_grid": list(self.noise_grid),
            "maps": list(self.maps),
            "group": self.group.value,
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Config from JSON values; a key not given keeps its default, and
        a JSON null size is not set.  ConfigInvalidError, and no other
        error, when a key names no field or a value fails its field's
        check: an integer field that is not a whole number in its range,
        ``maps`` or ``noise_grid`` that is not a list (a string would be
        read one character per entry), a noise level that is not a number
        in range, or a ``group`` that names no GroupAction."""
        unknown = [key for key in d if key not in _CHECKS]
        _require(
            not unknown,
            f"an experiment config has no field {_shown(unknown)}; its fields are {list(_CHECKS)}",
        )
        return ExperimentConfig(**d)


# Defaults of each ``orbitdist experiment`` kind, and the keys it reads: a
# config file overrides them and may hold no other.
_DEFAULT_CONFIGS = {
    "distortion": {"n_pairs": 100_000, "maps": [MAP_SIDE_LENGTHS, MAP_TRIANGLE]},
    "classify": {
        "db_size": 500,
        "n_draws": 20,
        "noise_grid": [0.0, 0.005, 0.01, 0.015, 0.02, 0.025, 0.03],
        "maps": [MAP_EXACT, MAP_SIDE_LENGTHS, MAP_TRIANGLE],
    },
    "lower-constant": {"group": "O", "n": 1, "l": 4, "n_pairs": 10_000},
}


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregate statistics plus full provenance of seed and parameters."""

    kind: str
    seed: int
    config: dict
    ratio_stats: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# stacked pair and triangle kernels (batch axis first)


def _plane_points(x: np.ndarray) -> np.ndarray:
    """Centred points of a ``(..., 2, l)`` stack of planar configurations
    as complex numbers, shape ``(..., l)``."""
    z = x[..., 0, :] + 1j * x[..., 1, :]
    return z - (_sum_last(z) / z.shape[-1])[..., None]  # z.mean(axis=-1), bit for bit


def _plane_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean orbit distances between broadcast ``(..., 2, l)`` stacks
    of planar configurations, without an SVD.

    With the centred points as complex vectors z_a and z_b, O(2) acts by
    ``z -> c z`` (rotations) and ``z -> c conj(z)`` (reflections) with
    ``|c| = 1``.  For ``w`` = z_a or conj(z_a), ``||c w - z_b||`` is least
    at c = the phase of ``<w, z_b>`` (c = 1 when that is 0), and the
    distance is the smaller of the two direct residuals, so nothing
    cancels.  Choosing the branch by comparing the moduli ``|<z_a, z_b>|``
    and ``|z_a^T z_b|`` instead would cancel: for a nearly collinear
    triangle against a rigid copy of itself the two moduli agree to
    round-off, and the wrong branch is off by up to about sqrt(u) ||a||.
    Each residual errs by at most 32u (||a|| + ||b||), u = 2^-53, plus at
    most 2^-530 where squares and products underflow: centring costs
    (l + 1) u per input norm; ``<w, z_b>`` is computed within about
    5u ||a|| ||b||, which, as the residual is stationary in the phase,
    costs at most 12.5u (||a|| + ||b||) whether it is small (then d >=
    (||a|| + ||b||) / 2) or not; the other roundings add about 14u.  No
    square of the inputs may overflow, as none of the normal draws does.
    """
    za, zb = _plane_points(a), _plane_points(b)
    d = None
    for w in (za, za.conj()):
        p = _sum_last(w.conj() * zb)
        m = np.abs(p)
        tiny = m < 2.0**-1000  # the division's 1/|p| would overflow
        if tiny.any():
            p = np.where(tiny, p * 2.0**600, p)  # exact: a power of two
            m = np.abs(p)
        c = np.where(m > 0.0, p / np.where(m > 0.0, m, 1.0), 1.0)
        r = c[..., None] * w - zb
        e = np.sqrt(_sum_last(r.real * r.real + r.imag * r.imag))
        d = e if d is None else np.minimum(d, e)
    return d


def _config_pairs(group: GroupAction, n: int, l: int, rows: np.ndarray):
    """The two ``(N, n, l)`` configurations in rows of draws: real draws in
    order, or for a complex group the real parts then the imaginary parts."""
    if group.is_complex:
        rows = rows[:, : 2 * n * l] + 1j * rows[:, 2 * n * l :]
    return rows[:, : n * l].reshape(-1, n, l), rows[:, n * l :].reshape(-1, n, l)


def _feature_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a - b, axis=-1)


# each map's points (the configurations or their features) under a group,
# the metric between them, and its index: the map whose record table the
# classification reads, a stretch s with index distance <= s * map
# distance, and a Lipschitz constant of the map's distance against the
# euclidean distance ||x - y|| of the configurations.  The exact map reads
# the triangle embedding's table through the sqrt(2) sandwich (the float64
# sqrt(2) is above the real one); side lengths have no lower bound, so they
# keep their own.  Each side of a triangle moves by at most the difference
# of its two vertices' moves, and the three squared differences sum to 3
# times the centred moves' squared norm: hence sqrt(3).  The reduced map is
# within its full map, whose sandwich bounds it by sqrt(2) d.
_MAPS = {
    MAP_EXACT: (lambda group, x: x, _plane_distances, MAP_TRIANGLE, _SQRT2, 1.0),
    MAP_SIDE_LENGTHS: (
        lambda group, x: _side_lengths(x), _feature_distances, MAP_SIDE_LENGTHS, 1.0, _SQRT3
    ),
    MAP_TRIANGLE: (lambda group, x: _triangle_coords(x), _feature_distances, MAP_TRIANGLE, 1.0, _SQRT2),
    REDUCED: (_reduced_stack, _feature_distances, REDUCED, 1.0, _SQRT2),
}


# ---------------------------------------------------------------------------
# experiments


def _ratio_stats(r: np.ndarray) -> dict:
    logs = np.log(np.maximum(r, 1e-300))
    return {
        "count": int(r.size),
        "min": float(r.min()),
        "max": float(r.max()),
        "mean": float(r.mean()),
        "std": float(r.std()),
        "log_mean": float(logs.mean()),
        "log_std": float(logs.std()),
    }


def _quantiles(r: np.ndarray, qs) -> list[float]:
    """``np.quantile(r, q)`` of a finite 1-D ``r`` for each q of ``qs``,
    bit for bit, with numpy's ``linear`` rule written out: ``np.quantile``
    costs a process ``numpy.ma``, which it imports through ``np.unique``.

    Index v = (n - 1) q falls between a = x[i] and b = x[i + 1] of the
    sorted values, i = floor(v); from v >= n - 1 numpy reads both at index
    i = -1.  Then numpy's ``_lerp`` at t = v - i, which takes
    ``b - (b - a)(1 - t)`` from t >= 0.5.  a and b come from the
    ``np.partition`` that numpy makes, at the same indices, not from one
    sort: the two leave -0.0 and 0.0 in different orders, so a sort would
    give some zero quantiles the other sign.
    """
    n = r.size
    out = []
    for q in qs:
        v = (n - 1) * q
        i = math.floor(v) if v < n - 1 else -1
        j = i + 1 if i >= 0 else -1
        x = np.partition(r, sorted({0, -1, i, j}))
        a, b = x[i], x[j]
        t = v - i
        out.append(float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t))
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigInvalidError(message)


def _is_whole(value) -> bool:
    """An integer other than a bool, or a float with an integral value
    (JSON may write 1e5 for 100000)."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(name: str, low: int, high: int | None = None):
    """The check of an integer field: a whole number in [low, high]."""
    span = f">= {low}" if high is None else f"in [{low}, {high}]"

    def check(value) -> int:
        if not (_is_whole(value) and low <= value and (high is None or value <= high)):
            raise ConfigInvalidError(f"{name} must be an integer {span}, got {_shown(value)}")
        return int(value)

    return check


def _list(name: str, value) -> None:
    # a string would be read one character per entry
    _require(isinstance(value, (list, tuple)), f"{name} must be a list, got {_shown(value)}")


def _noise_grid(value) -> tuple[float, ...]:
    """A nonempty, strictly increasing list of real numbers (no bools) in
    [0, MAX_NOISE], as floats."""
    _list("noise_grid", value)
    bad = [e for e in value if not isinstance(e, numbers.Real) or isinstance(e, bool)]
    _require(not bad, f"noise levels must be numbers, got {_shown(bad[:1])}")
    span = f"noise levels must be finite and in [0, {MAX_NOISE:g}]"
    try:
        grid = tuple(float(e) for e in value)
    except OverflowError:  # an integer beyond float64, maybe too long to print
        raise ConfigInvalidError(f"{span}, got an integer beyond float64") from None
    _require(len(grid) >= 1, "noise_grid must be nonempty")
    _require(all(0.0 <= e <= MAX_NOISE for e in grid), f"{span}, got {list(grid)}")
    _require(all(a < b for a, b in zip(grid, grid[1:])), "noise levels must be strictly increasing")
    return grid


def _maps(value) -> tuple[str, ...]:
    """A nonempty list of distinct map names of ``_MAPS``, as a tuple;
    :func:`_validated` narrows it to the names its study runs."""
    _list("maps", value)
    _require(len(value) >= 1, "at least one map is required")
    _require(
        all(isinstance(m, str) and m in _MAPS for m in value) and len(set(value)) == len(value),
        f"maps must be distinct names from {list(_MAPS)}, got {_shown(list(value))}",
    )
    return tuple(value)


def _group(value) -> GroupAction:
    names = [g.value for g in GroupAction]
    _require(
        isinstance(value, GroupAction) or (isinstance(value, str) and value in names),
        f"group must be one of {names}, got {_shown(value)}",
    )
    return GroupAction(value)


# each config field's check: its value in canonical form, or
# ConfigInvalidError
_CHECKS = {
    "seed": _integer("seed", 0, 2**64 - 1),
    "n_pairs": _integer("n_pairs", 1, MAX_PAIRS),
    "db_size": _integer("db_size", 1, MAX_DB_SIZE),
    "noise_grid": _noise_grid,
    "n_draws": _integer("n_draws", 1, MAX_DRAWS),
    "maps": _maps,
    "group": _group,
    "n": _integer("n", 1),
    "l": _integer("l", 1, MAX_L),
}


def _require_read(kind: str, keys) -> None:
    """ConfigInvalidError unless experiment ``kind`` reads every one of the
    config ``keys`` (a key of ``_DEFAULT_CONFIGS[kind]``, never the seed),
    so that none is dropped silently and a report states only what ran."""
    read = _DEFAULT_CONFIGS[kind]
    unread = sorted(set(keys) - set(read))
    _require(not unread, f"experiment {kind} reads no field {unread}; it reads {sorted(read)}")


def _validated(cfg: ExperimentConfig, kind: str) -> ExperimentConfig:
    """``cfg``, or ConfigInvalidError when a field that experiment ``kind``
    does not read (the seed aside) is not its default (:func:`_require_read`),
    when a field it reads is not set (None or ``()``, which no check
    admits), or when ``maps`` names a map the kind does not run."""
    read = _DEFAULT_CONFIGS[kind]
    changed = [f.name for f in fields(cfg) if f.name != "seed" and getattr(cfg, f.name) != f.default]
    _require_read(kind, changed)
    for key in read:
        if getattr(cfg, key) in (None, ()):
            _CHECKS[key](getattr(cfg, key))
    allowed = read.get("maps", [])
    _require(
        set(cfg.maps) <= set(allowed),
        f"experiment {kind} runs maps from {allowed}, got {list(cfg.maps)!r}",
    )
    return cfg


def _pair_study(cfg: ExperimentConfig, kind: str) -> ExperimentReport:
    """Report ``kind`` of the ratios ``||f(A) - f(B)|| / d_G(A, B)`` of
    each map f of ``cfg.maps`` over ``cfg.n_pairs`` random pairs drawn as
    the module docstring says; ``cfg`` is :func:`_validated`.  Beside the ratio
    statistics, the reduced map reports quantiles, the triangle maps
    histograms.

    Each block of pairs (:func:`linalg._blocks`) is drawn, measured and
    redrawn on its own, and holds about ``linalg._BLOCK_ENTRIES`` root
    entries: two roots per pair, l x l per configuration at n >= 2, l at
    n = 1, where reduced features are self-correlations with no root
    (:func:`reduction._rank_one_stack`).  So memory grows with neither
    ``n_pairs`` nor l until a block is one pair.
    """
    group, seed, n_pairs, n, l = cfg.group, cfg.seed, cfg.n_pairs, cfg.n, cfg.l
    per = 2 * n * l * (2 if group.is_complex else 1)
    maps = [_MAPS[name][:2] for name in cfg.maps]

    def distances(rows: np.ndarray) -> np.ndarray:
        a, b = _config_pairs(group, n, l, rows)
        return _plane_distances(a, b) if _is_triangle(group, a) else _procrustes(group, a, b)[0]

    ratios = []
    for r in _blocks(n_pairs, 2 * (l if n == 1 else l * l)):
        lo = r.start
        rows = _normals(seed, 0, per * lo, per * (r.stop - lo)).reshape(-1, per)
        d = distances(rows)
        bad, stream = np.flatnonzero(d < _DEGENERATE), 1
        while bad.size:
            rows[bad] = [_normals(seed, stream, per * (lo + i), per) for i in bad]
            d[bad] = distances(rows[bad])
            bad, stream = bad[d[bad] < _DEGENERATE], stream + 1
        a, b = _config_pairs(group, n, l, rows)
        gaps = [metric(points(group, a), points(group, b)) for points, metric in maps]
        ratios.append(np.stack(gaps, axis=1) / d[:, None])
    ratio_stats, histograms = {}, {}
    for name, r in zip(cfg.maps, np.concatenate(ratios).T):
        ratio_stats[name] = _ratio_stats(r)
        if name == REDUCED:
            qs = (0.001, 0.01, 0.05, 0.25, 0.5)
            ratio_stats[name]["quantiles"] = dict(zip(map(str, qs), _quantiles(r, qs)))
        else:
            counts, _ = np.histogram(r, bins=_HIST_EDGES)
            histograms[name] = {
                "edges": [float(e) for e in _HIST_EDGES],
                "counts": [int(c) for c in counts],
            }
    return ExperimentReport(
        kind=kind, seed=seed, config=cfg.to_dict(), ratio_stats=ratio_stats, histograms=histograms
    )


def distortion_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Ratio distribution of feature distance over orbit distance for
    random triangle pairs with standard normal vertex coordinates.

    Pairs closer than 1e-12 in orbit distance are redrawn from the next
    stream at the same words, so the ratio is always well defined.
    """
    return _pair_study(_validated(cfg, "distortion"), "distortion")


def _classifiers(maps, db: np.ndarray, reach: np.ndarray) -> dict:
    """The :func:`search._nearest_records` kernel of each map in ``maps``
    over ``db``, with one record table per index, shared by the maps it
    serves.  ``reach[L]`` bounds ``||q - L||`` over record L's queries; a
    map of Lipschitz constant c and stretch s then asks for a radius of at
    most about ``2 s c reach[L]``, and each table's row L holds, up to its
    ceiling, the records within the largest such radius of the maps it
    serves and one more (see :func:`search._record_table`)."""
    from .search import _nearest_records, _record_table

    scale = {}
    for name in maps:
        _, _, index, stretch, lipschitz = _MAPS[name]
        scale[index] = max(scale.get(index, 0.0), 2.0 * stretch * lipschitz)
    tables = {index: _record_table(*_MAPS[index][:2], db, s * reach) for index, s in scale.items()}
    return {
        name: _nearest_records(points, metric, stretch, tables[index], db)
        for name, (points, metric, index, stretch, _) in ((name, _MAPS[name]) for name in maps)
    }


def classification_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Misclassification rate of noisy triangles looked up in a random
    database, per map and per noise level.

    Each database triangle is perturbed ``n_draws`` times by additive
    gaussian noise of standard deviation eps on every coordinate, and
    classified by its nearest database record under each map's distance.
    A query of record L lies within ``max(eps) * max||noise||`` of L, over
    the grid and L's own draws, which sizes L's rows of the record tables
    (:func:`_classifiers`).
    """
    cfg = _validated(cfg, "classify")
    db = _normals(cfg.seed, 0, 0, 6 * cfg.db_size).reshape(cfg.db_size, 2, 3)
    noise = _normals(cfg.seed, 1, 0, 6 * cfg.db_size * cfg.n_draws).reshape(-1, 2, 3)
    labels = np.repeat(np.arange(cfg.db_size), cfg.n_draws)
    base = np.repeat(db, cfg.n_draws, axis=0)
    draws = np.linalg.norm(noise.reshape(cfg.db_size, cfg.n_draws, 6), axis=2)
    reach = cfg.noise_grid[-1] * draws.max(axis=1)
    nearest = _classifiers(cfg.maps, db, reach)
    rates = {name: [] for name in cfg.maps}
    for eps in cfg.noise_grid:
        queries = base + eps * noise
        for name in cfg.maps:
            rates[name].append(float(np.mean(nearest[name](queries, labels) != labels)))
    return ExperimentReport(
        kind="classification",
        seed=cfg.seed,
        config=cfg.to_dict(),
        rates={
            "noise_grid": list(cfg.noise_grid),
            "misclassification": {k: [float(x) for x in v] for k, v in rates.items()},
        },
    )


def lower_constant_survey(
    group: GroupAction, n: int, l: int, n_pairs: int, seed: int
) -> ExperimentReport:
    """Empirical distribution of the reduced embedding's lower Lipschitz
    ratio ||feature(A) - feature(B)|| / d_G(A, B) over random pairs.

    No closed-form lower constant is available for the projection, so the
    survey reports the observed minimum and quantiles; the minimum must be
    strictly positive.  That minimum is an upper bound on the lower
    constant, taken from random pairs, which miss the worst directions; it
    is not an estimate of the constant.  At n = 1 the constant is
    exponentially small in l: for odd k and l = k + 1, the rows of the
    even and of the odd coefficients of (1 + z)^k, ``((1+z)^k +- (1-z)^k)/2``,
    are orthogonal and of one norm, so the full map's ratio is 1, while
    their squares, which the reduced coordinates read, differ only by
    ``(1 - z^2)^k``: the reduced ratio is 0.200, 9.76e-3, 3.09e-5 and
    3.88e-10 at l = 4, 8, 16 and 32 under O, U and E (in Helmert
    coordinates).  At n = 2 the pair ``(y, 0)``, ``(y', 0)`` of the same
    rows reads 0.2865, 6.335e-2, 1.718e-4 and 2.027e-9 at l = 6, 8, 16
    and 32, at least the n = 1 ratio and at most ``10 * 2**(1 - l)``
    (1 at l = 4, where size = 2n keeps every coordinate).  The minimum
    over random pairs at O 1 x 32 reads about 0.25, some 10**9 too high.
    Pairs run in blocks whose memory grows with neither ``n_pairs`` nor l
    (see :func:`_pair_study`).
    ``group`` is a GroupAction or its name, as ``ExperimentConfig``
    reads it.
    """
    cfg = ExperimentConfig(seed=seed, n_pairs=n_pairs, group=group, n=n, l=l)
    cfg = _validated(cfg, "lower-constant")
    group, n, l = cfg.group, cfg.n, cfg.l
    size = _block_size(group, l)
    nnz = n * size * size * (2 if group.is_complex else 1)
    # below size 2n reducer_for raises DimensionHypothesisError, building nothing
    if 2 * n <= size and nnz > MAX_REDUCER_NNZ:
        raise ConfigInvalidError(
            f"the reducer for n={n}, l={l} would hold about {nnz} non-zeros, "
            f"more than {MAX_REDUCER_NNZ}"
        )
    reducer_for(group, n, l)
    return _pair_study(replace(cfg, maps=(REDUCED,)), "lower_constant")
