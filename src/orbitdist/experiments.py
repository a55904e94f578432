"""Seeded, reproducible experiments on random triangles and configurations.

- ``distortion_experiment``: ratio of feature distance to euclidean orbit
  distance over random triangle pairs, for the side-length map and the
  triangle embedding.
- ``classification_experiment``: nearest-record classification of noisy
  triangles against a random database under the exact orbit distance and
  both invariant maps, across a noise grid.
- ``lower_constant_survey``: empirical lower Lipschitz ratio of the
  reduced (projected) embedding, for which no closed-form constant exists;
  its minimum over random pairs is an upper bound on that constant.

Sampling is counter-based (Salmon et al., SC'11).  For a seed
``0 <= k < 2**64``, stream ``s`` is the 64-bit word sequence of
``Philox(key=k + (s << 64))`` and word ``w`` gives the standard normal
``ndtri(((w >> 12) + 1/2) / 2**52)``.  ``ndtri`` is Cephes's normal
quantile, ported to numpy in :func:`_ndtri` with the same rational
approximations and order of operations and the C library's ``log`` (through
``math.log``), so it returns the values of SciPy's ``ndtri`` bit for bit
without importing scipy.  ``Philox.advance`` reaches any word
directly, so a whole block of trials is drawn with one call, and one seed
gives one byte-identical report.  In the pair studies trial ``i`` reads
words ``[per*i, per*(i+1))`` of stream 0, with ``per`` = 12 for two
triangles and 2nl (doubled for the complex groups) for two configurations;
a pair closer than 1e-12 in orbit distance is redrawn, attempt ``r >= 1``
reading the same words of stream ``r``.  The classification study reads
its database from words ``[0, 6*db_size)`` of stream 0 and the noise of
query ``q`` from words ``[6q, 6q+6)`` of stream 1.

Study sizes have ceilings: ``n_pairs`` at most ``MAX_PAIRS`` (10**7),
``db_size`` at most ``MAX_DB_SIZE`` (10**4), ``n_draws`` at most
``MAX_DRAWS`` (100), the survey's ``l`` at most ``MAX_L`` (1024) and its
reducer at most ``MAX_REDUCER_NNZ`` (2**22) non-zeros, and each noise level
is finite and at most ``MAX_NOISE`` (1e100).  A size outside
``[1, ceiling]``, an ``n`` below 1, an integer field that is not a whole
number, a map list that is empty or holds a repeated or unknown name, or a
field the study does not read set to other than its default raises
ConfigInvalidError before anything is drawn or built.

The arithmetic is stacked over blocks of trials.  Triangle orbit
distances come from a closed-form planar kernel (:func:`_plane_distances`,
no SVD), the survey's orbit distances from the Procrustes kernel of
:mod:`orbitdist.metrics`, reduced features from :mod:`orbitdist.reduction`
(by FFT at n = 1, by the sparse projection of the Gram roots at n >= 2),
and triangle features from the kernels of :mod:`orbitdist.triangles`.
The classification ranks the queries of each map with one nearest-record
kernel (:func:`_nearest_records`): a query's own record certifies the
nearest one by the triangle inequality, so only the records near it in a
table of feature distances between the records are ranked, and the result
is the exact argmin of the map's distance.  Each table is built once per
study: the exact map reads the triangle embedding's through the sqrt(2)
sandwich, so no exact distance between two records is computed, and the
side lengths, which have no lower bound, keep their own.
Neither the distortion nor the classification study loads scipy, nor does
the survey at n = 1; at n >= 2 it loads ``scipy.sparse`` for the
reducer's product over its stacks of roots.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
import json
import math
import numbers

import numpy as np

from .errors import ConfigInvalidError
from .metrics import GroupAction, _procrustes
from .reduction import _block_size, _reduced_stack, reducer_for
from .search import _BLOCK
from .triangles import _SQRT2, _side_lengths, _triangle_coords

MAP_SIDE_LENGTHS = "side_lengths"
MAP_TRIANGLE = "triangle_embedding"
MAP_EXACT = "exact"

_DEGENERATE = 1e-12
# The round-off slack of the nearest-record certificate, pairs per block of
# its kernel, and entries kept per record table (see _nearest_records).
_SLACK = 2.0**-46
_PAIRS = 1 << 16
_TABLE = 1 << 20
_HIST_EDGES = np.linspace(0.0, 1.8, 61)
# Pairs per block in the distortion study, and words per block of the
# quantile's central branch in _ndtri.
_PAIR_BLOCK = 1 << 14
# Ceilings on the study sizes, so that a config cannot ask for more memory
# than a workstation has.  The pair studies keep a few float64 ratios per
# pair (about 0.3 GB at MAX_PAIRS); the classification study keeps a few
# hundred bytes per noisy query, db_size * n_draws of them (about 0.3 GB
# at both ceilings), and at most two record tables (one per index, see
# _MAPS) of at most _TABLE distances and indices each (16 MB).  At n >= 2
# each pair of the lower-constant survey holds l x l Gram roots, 16 MB for
# a complex one at MAX_L, and shares a reducer of at most n * size**2
# non-zeros (twice that Hermitian), 16 bytes each (a float64 value and an
# int64 column, which its CSR container shares): the ceiling, 64 MB, admits
# every group at n <= 2 and l <= MAX_L.
# At n = 1 a pair holds O(l) entries and no reducer is built.
MAX_PAIRS = 10**7
MAX_DB_SIZE = 10**4
MAX_DRAWS = 100
MAX_L = 1024
MAX_REDUCER_NNZ = 2**22
MAX_NOISE = 1e100  # far below the float64 range: no square of a query overflows


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs shared by the experiment drivers.  A study refuses a field
    it does not read unless that field keeps its default."""

    seed: int = 0
    n_pairs: int | None = None
    db_size: int | None = None
    noise_grid: tuple[float, ...] = ()
    n_draws: int = 20
    maps: tuple[str, ...] = ()
    group: GroupAction = GroupAction.EUCLIDEAN
    n: int = 2
    l: int = 3

    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "n_pairs": self.n_pairs,
            "db_size": self.db_size,
            "noise_grid": [float(e) for e in self.noise_grid],
            "n_draws": int(self.n_draws),
            "maps": list(self.maps),
            "group": self.group.value,
            "n": int(self.n),
            "l": int(self.l),
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Config from JSON values.  ConfigInvalidError, and no other
        error, when an integer field is not a whole number, ``n`` is below
        1, ``maps`` or ``noise_grid`` is not a list (a string would be read
        one character per entry), a noise level is not a number or is an
        integer beyond float64, or ``group`` names no GroupAction."""
        n = _whole(d, "n", 2)
        _require(n is not None and n >= 1, f"n must be >= 1, got {n}")
        for key in ("maps", "noise_grid"):
            value = d.get(key, ())
            _require(isinstance(value, (list, tuple)), f"{key} must be a list, got {value!r}")
        return ExperimentConfig(
            seed=_seed(_whole(d, "seed", 0)),
            n_pairs=_whole(d, "n_pairs", None),
            db_size=_whole(d, "db_size", None),
            noise_grid=tuple(_noise_level(e) for e in d.get("noise_grid", ())),
            n_draws=_whole(d, "n_draws", 20),
            maps=tuple(d.get("maps", ())),
            group=_group(d.get("group", "E")),
            n=n,
            l=_whole(d, "l", 3),
        )


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
# seeded sampling


def _seed(seed: int) -> int:
    _require(_is_whole(seed) and 0 <= seed < 1 << 64, f"seed must be in [0, 2**64), got {seed}")
    return int(seed)


def _normals(seed: int, stream: int, start: int, count: int) -> np.ndarray:
    """Standard normals from words ``[start, start + count)`` of one stream.

    ``Philox.advance`` moves one counter step, four words, at a time.
    ``Generator.random`` turns word w into (w >> 11) / 2**53; flooring to
    52 bits and adding half a step, exactly and in place, gives
    ((w >> 12) + 1/2) / 2**52, strictly inside (0, 1), so every normal is
    finite (with 53 bits the largest word would round up to 1.0).  The
    quantile function is :func:`_ndtri`, applied in place.
    """
    steps, skip = divmod(int(start), 4)  # Philox.advance rejects numpy integers
    bits = np.random.Philox(key=seed + (stream << 64))
    bits.advance(steps)
    u = np.random.Generator(bits).random(skip + count)[skip:]
    u *= 2.0**52
    np.floor(u, out=u)
    u += 0.5
    u *= 2.0**-52
    return _ndtri(u)


# Cephes ndtri (Moshier): rational approximations of the normal quantile on
# |y - 1/2| <= 1/2 - exp(-2) (P0/Q0) and, with x = sqrt(-2 log y), on the
# tails 2 <= x < 8 (P1/Q1) and x >= 8 (P2/Q2).  Highest degree first; each
# Q leads with the 1 that Cephes's p1evl leaves implicit.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coefs: tuple[float, ...]) -> np.ndarray:
    """Horner's rule in the order of Cephes ``polevl``; with a leading 1 it
    is ``p1evl`` bit for bit, since x * 1 is exact."""
    out = x * coefs[0]
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _log(x: np.ndarray) -> np.ndarray:
    # math.log is the C library's log, the one compiled Cephes calls; numpy's
    # vectorised float64 log may differ from it in the last bits.
    return np.fromiter(map(math.log, memoryview(x)), np.float64, x.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Cephes ``ndtri``, the standard normal quantile, of float64 values
    strictly inside (0, 1), in place: the values of SciPy's ``ndtri`` bit
    for bit.  The central branch, most of the draws, runs over the whole
    array in blocks; the tails, ``u <= exp(-2)`` or ``u > 1 - exp(-2)``, are
    gathered."""
    tail = np.flatnonzero((u <= _EXP_M2) | (u > 1.0 - _EXP_M2))
    y = u[tail]
    upper = y > 0.5
    y[upper] = 1.0 - y[upper]  # exact for y >= 1/2
    for lo in range(0, u.size, _PAIR_BLOCK):  # blocks small enough to stay in cache
        c = u[lo : lo + _PAIR_BLOCK]
        c -= 0.5
        c2 = c * c
        r = _polevl(c2, _P0)
        r *= c2
        r /= _polevl(c2, _Q0)
        r *= c
        c += r
        c *= _S2PI
    x = _log(y)
    x *= -2.0
    np.sqrt(x, out=x)
    z = 1.0 / x
    far = np.flatnonzero(x >= 8.0)  # y < exp(-32)
    x1 = _polevl(z, _P1)
    x1 *= z
    x1 /= _polevl(z, _Q1)
    zf = z[far]
    x1[far] = zf * _polevl(zf, _P2) / _polevl(zf, _Q2)
    x -= _log(x) / x
    x -= x1
    u[tail] = np.where(upper, x, -x)
    return u


# ---------------------------------------------------------------------------
# stacked pair and triangle kernels (batch axis first)


def _plane_points(x: np.ndarray) -> np.ndarray:
    """Centred points of a ``(..., 2, l)`` stack of planar configurations
    as complex numbers, shape ``(..., l)``."""
    z = x[..., 0, :] + 1j * x[..., 1, :]
    return z - z.mean(axis=-1, keepdims=True)


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
    Each residual errs by at most a few dozen ulps of ``||a|| + ||b||``
    (see :func:`_nearest_records`), because the residual is stationary in the
    phase, plus at most 2^-530 where squares and products underflow.  The
    inputs must be small enough that no square overflows, as the
    experiments' normal draws are.
    """
    za, zb = _plane_points(a), _plane_points(b)
    d = None
    for w in (za, za.conj()):
        p = (w.conj() * zb).sum(axis=-1)
        m = np.abs(p)
        tiny = m < 2.0**-1000  # the division's 1/|p| would overflow
        if tiny.any():
            p = np.where(tiny, p * 2.0**600, p)  # exact: a power of two
            m = np.abs(p)
        c = np.where(m > 0.0, p / np.where(m > 0.0, m, 1.0), 1.0)
        r = c[..., None] * w - zb
        e = np.sqrt((r.real * r.real + r.imag * r.imag).sum(axis=-1))
        d = e if d is None else np.minimum(d, e)
    return d


def _config_pairs(group: GroupAction, n: int, l: int, rows: np.ndarray):
    """The two ``(N, n, l)`` configurations in rows of draws: real draws in
    order, or for a complex group the real parts then the imaginary parts."""
    if group.is_complex:
        rows = rows[:, : 2 * n * l] + 1j * rows[:, 2 * n * l :]
    return rows[:, : n * l].reshape(-1, n, l), rows[:, n * l :].reshape(-1, n, l)


def _pair_ratios(
    group: GroupAction, n: int, l: int, seed: int, n_pairs: int, block: int, distance, gaps
):
    """``gaps(A, B) / distance(A, B)``, one row per trial, over ``n_pairs``
    random pairs of ``(n, l)`` configurations drawn as the module docstring
    says; ``distance`` maps two stacks to their ``d_G``.  Each block of
    ``block`` pairs is drawn, measured and redrawn on its own, so memory
    does not grow with n_pairs."""
    per = 2 * n * l * (2 if group.is_complex else 1)

    def distances(rows: np.ndarray) -> np.ndarray:
        return distance(*_config_pairs(group, n, l, rows))

    ratios = []
    for lo in range(0, n_pairs, block):
        rows = _normals(seed, 0, per * lo, per * min(block, n_pairs - lo)).reshape(-1, per)
        d = distances(rows)
        bad, stream = np.flatnonzero(d < _DEGENERATE), 1
        while bad.size:
            rows[bad] = [_normals(seed, stream, per * (lo + i), per) for i in bad]
            d[bad] = distances(rows[bad])
            bad, stream = bad[d[bad] < _DEGENERATE], stream + 1
        ratios.append(gaps(*_config_pairs(group, n, l, rows)) / d[:, None])
    return np.concatenate(ratios)


def _feature_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a - b, axis=-1)


# each map's points (the triangles or their features), the metric between
# them, and its index: the map whose record table the classification reads,
# and a stretch s with index distance <= s * map distance.  The exact map
# reads the triangle embedding's table through the sqrt(2) sandwich (the
# float64 sqrt(2) is above the real one); side lengths have no lower bound,
# so they keep their own.
_MAPS = {
    MAP_EXACT: (lambda x: x, _plane_distances, MAP_TRIANGLE, _SQRT2),
    MAP_SIDE_LENGTHS: (_side_lengths, _feature_distances, MAP_SIDE_LENGTHS, 1.0),
    MAP_TRIANGLE: (_triangle_coords, _feature_distances, MAP_TRIANGLE, 1.0),
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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigInvalidError(message)


def _is_whole(value) -> bool:
    """An integer other than a bool, or a float with an integral value
    (JSON may write 1e5 for 100000)."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _whole(d: dict, key: str, default) -> int | None:
    value = d.get(key, default)
    _require(value is None or _is_whole(value), f"{key} must be an integer, got {value!r}")
    return None if value is None else int(value)


def _noise_level(value) -> float:
    """A noise level read as a float: any real number but a bool; the
    studies check its range."""
    _require(
        isinstance(value, numbers.Real) and not isinstance(value, bool),
        f"noise levels must be numbers, got {value!r}",
    )
    try:
        return float(value)
    except OverflowError:  # an integer beyond float64, maybe too long to print
        raise ConfigInvalidError(
            f"noise levels must be finite and in [0, {MAX_NOISE:g}], got an integer beyond float64"
        ) from None


def _group(value) -> GroupAction:
    names = [g.value for g in GroupAction]
    _require(
        isinstance(value, GroupAction) or (isinstance(value, str) and value in names),
        f"group must be one of {names}, got {value!r}",
    )
    return GroupAction(value)


def _require_read(cfg: ExperimentConfig, kind: str) -> None:
    """ConfigInvalidError when a field that experiment ``kind`` does not
    read (any but the seed and the keys of ``_DEFAULT_CONFIGS[kind]``)
    differs from its default, so a report states only what ran."""
    unread = [
        f.name
        for f in fields(cfg)
        if f.name != "seed"
        and f.name not in _DEFAULT_CONFIGS[kind]
        and getattr(cfg, f.name) != f.default
    ]
    _require(
        not unread,
        f"experiment {kind} reads no field {unread}; it reads {sorted(_DEFAULT_CONFIGS[kind])}",
    )


def _require_count(value, name: str, ceiling: int) -> int:
    _require(
        _is_whole(value) and 1 <= value <= ceiling,
        f"{name} must be an integer in [1, {ceiling}], got {value}",
    )
    return int(value)


def _validate_noise_grid(grid) -> None:
    _require(len(grid) >= 1, "noise_grid must be nonempty")
    _require(
        all(0.0 <= e <= MAX_NOISE for e in grid),
        f"noise levels must be finite and in [0, {MAX_NOISE:g}], got {list(grid)}",
    )
    _require(
        all(a < b for a, b in zip(grid, grid[1:])),
        "noise levels must be strictly increasing",
    )


def _validate_maps(maps, allowed: tuple[str, ...]) -> None:
    _require(len(maps) >= 1, "at least one map is required")
    _require(
        all(isinstance(m, str) and m in allowed for m in maps) and len(set(maps)) == len(maps),
        f"maps must be distinct names from {list(allowed)}, got {list(maps)!r}",
    )


def distortion_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Ratio distribution of feature distance over orbit distance for
    random triangle pairs with standard normal vertex coordinates.

    Pairs closer than 1e-12 in orbit distance are redrawn from the next
    stream at the same words, so the ratio is always well defined.
    """
    seed = _seed(cfg.seed)
    _require_read(cfg, "distortion")
    _require_count(cfg.n_pairs, "n_pairs", MAX_PAIRS)
    _validate_maps(cfg.maps, (MAP_SIDE_LENGTHS, MAP_TRIANGLE))
    fmaps = [_MAPS[name][0] for name in cfg.maps]
    ratios = _pair_ratios(
        GroupAction.EUCLIDEAN, 2, 3, seed, cfg.n_pairs, _PAIR_BLOCK, _plane_distances,
        lambda a, b: np.stack([np.linalg.norm(f(a) - f(b), axis=1) for f in fmaps], axis=1),
    )
    ratio_stats, histograms = {}, {}
    for name, r in zip(cfg.maps, ratios.T):
        ratio_stats[name] = _ratio_stats(r)
        counts, _ = np.histogram(r, bins=_HIST_EDGES)
        histograms[name] = {
            "edges": [float(e) for e in _HIST_EDGES],
            "counts": [int(c) for c in counts],
        }
    return ExperimentReport(
        kind="distortion",
        seed=seed,
        config=cfg.to_dict(),
        ratio_stats=ratio_stats,
        histograms=histograms,
    )


def _blocks(rows: np.ndarray, width: int) -> list[np.ndarray]:
    """``rows`` split into blocks of about ``_PAIRS`` pairs, ``width`` per row."""
    return np.array_split(rows, max(1, -(-len(rows) * width // _PAIRS)))


def _record_table(points, metric, db: np.ndarray):
    """``(order, table)``: for each record L of ``db``, the records sorted
    stably by their computed distance F^(L, j) under ``metric`` between
    their ``points``, and those distances, then a last column of inf beyond
    every radius.  A row holds all N records, or the first ``_TABLE`` // N
    when N^2 do not fit.  Built in ``_PAIRS``-pair blocks."""
    records = points(db)
    n = len(records)
    k = min(n, max(2, _TABLE // n))
    order = np.empty((n, k), dtype=np.intp)
    table = np.full((n, k + 1), np.inf)
    for r in _blocks(np.arange(n), n):
        d = metric(records[r, None], records)
        if k < n:
            # the first k by (distance, index) without sorting whole rows;
            # where ties at the k-th distance fall changes no prefix
            # narrower than k, the only prefixes ranked
            part = np.argpartition(d, k - 1, axis=1)[:, :k]
            rank = np.lexsort((part, np.take_along_axis(d, part, axis=1)), axis=1)
            order[r] = np.take_along_axis(part, rank, axis=1)
        else:
            order[r] = np.argsort(d, axis=1, kind="stable")
        table[r, :k] = np.take_along_axis(d, order[r], axis=1)
    return order, table


def _nearest_records(name: str, index, db: np.ndarray):
    """``nearest(queries, labels)``: per query, the lowest-index argmin of
    map ``name``'s distance d over every record of ``db``, with its own
    record ``labels[i]`` as the first candidate.  ``index`` is the
    :func:`_record_table` of the map's index (``_MAPS``), whose distance F
    satisfies F <= s d: the map itself (s = 1), or for the exact map the
    triangle embedding (s = sqrt(2), the upper end of the sandwich), so
    that no table of exact distances is built.

    By the triangle inequality (Orchard, ICASSP 1991; the lower-bounding
    lemma of Faloutsos, Ranganathan & Manolopoulos, SIGMOD 1994) record j
    is no farther than L from a query q only if d(L, j) <= 2 d(q, L), and
    then F(L, j) <= 2s d(q, L).  So only the prefix of L's row within
    ``s (2 d^(q, L) + 3 delta) + delta_F`` is ranked under d: none when it
    is L alone (F^(L, L) = 0), every record when it reaches past a
    truncated row.

    The slack delta = ``_SLACK`` (N_q + N) is absolute, with ``_SLACK`` =
    2^-46 = 128u for u = 2^-53, N_q the norm of the query's points (the
    uncentred triangle or its feature) and N the largest record norm:

    - A computed distance errs by at most 32u (||a|| + ||b||).  In
      :func:`_plane_distances`, centring costs at most (l + 1) u per input
      norm, and d is 1-Lipschitz in each input.  The phase c = p / |p|
      comes from ``p = <w, z_b>`` computed within about 5u ||a|| ||b||;
      since the residual is stationary in c, a phase error theta raises
      the squared residual by at most |p| theta^2, at most 2.5 * 5u
      (||a|| + ||b||) in distance whether |p| is small (then d >=
      (||a|| + ||b||) / 2) or not.  The rounding of |c|, of the products,
      the differences and the norm adds about 14u.  A feature distance
      errs by at most about 4u (||a|| + ||b||).
    - So if d^(q, j) <= d^(q, L), then d(L, j) <= d(q, j) + d(q, L) <=
      2 d^(q, L) + 64u (N_q + N), half a delta.  The radius reads
      d^(q, L) from another evaluation, at most 64u (N_q + N) away: one
      more delta.  The rest covers the radius's own rounding, and the at
      most 2^-530 that underflowing squares and products add to a distance
      when N_q + N > 2^-480, as for any draw of the experiments.

    The table's slack delta_F = ``_SLACK`` (N_q + N) / 2 = 64u (N_q + N)
    bounds F^(L, j) - F(L, j).  For a feature map that is its own index it
    need only cover the 4u of a feature distance.  For the exact map it
    also covers the rounding of :func:`triangles._triangle_coords` for both
    records, whose features have the norm of the centred triangle, at most
    the triangle's.  Its power-of-two scaling is exact; the edge matrix E is
    computed within 3u ||x|| (Cauchy-Schwarz bounds the three terms of v),
    which the root, sqrt(2)-Lipschitz in E, turns into 4.3u ||x||; the
    closed form's products and sums err by a few u ||E||^2 over a
    denominator t >= ||E||, under 18u ||x|| for the three coordinates.
    With the 4u of the feature distance, |F^(L, j) - F(L, j)| <= 27u
    (||L|| + ||j||) <= 54u N.

    So every record that ties or beats L is ranked.  Open queries are
    ranked by prefix width in ``_PAIRS``-pair blocks.
    """
    points, metric, _, stretch = _MAPS[name]
    order, table = index
    records = points(db)
    n, k = order.shape
    norm = np.linalg.norm(records.reshape(n, -1), axis=1).max()

    def nearest(queries: np.ndarray, labels: np.ndarray) -> np.ndarray:
        q = points(queries)
        blocks = _blocks(np.arange(len(q)), 1)
        own = np.concatenate([metric(q[r], records[labels[r]]) for r in blocks])
        slack = _SLACK * (np.linalg.norm(q.reshape(len(q), -1), axis=1) + norm)
        radius = stretch * (2.0 * own + 3.0 * slack) + 0.5 * slack
        rows = np.flatnonzero(table[labels, 1] <= radius)
        width = np.concatenate(
            [(table[labels[r], :k] <= radius[r, None]).sum(axis=1) for r in _blocks(rows, k)]
        )
        width[(width == k) & (k < n)] = n  # past a truncated row: every record
        pred = labels.copy()
        for w in np.unique(width):
            for r in _blocks(rows[width == w], w):
                ids = order[labels[r], :w] if w <= k else np.arange(n)[None]
                d = metric(q[r, None], records[ids])
                pred[r] = np.where(d == d.min(axis=1, keepdims=True), ids, n).min(axis=1)
        return pred

    return nearest


def _classifiers(maps, db: np.ndarray) -> dict:
    """The :func:`_nearest_records` kernel of each map in ``maps`` over
    ``db``, with one record table per index, shared by the maps it
    serves."""
    indexes = dict.fromkeys(_MAPS[name][2] for name in maps)
    tables = {index: _record_table(*_MAPS[index][:2], db) for index in indexes}
    return {name: _nearest_records(name, tables[_MAPS[name][2]], db) for name in maps}


def classification_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Misclassification rate of noisy triangles looked up in a random
    database, per map and per noise level.

    Each database triangle is perturbed ``n_draws`` times by additive
    gaussian noise of standard deviation eps on every coordinate, and
    classified by its nearest database record under each map's distance.
    """
    seed = _seed(cfg.seed)
    _require_read(cfg, "classify")
    _require_count(cfg.db_size, "db_size", MAX_DB_SIZE)
    _require_count(cfg.n_draws, "n_draws", MAX_DRAWS)
    _validate_noise_grid(cfg.noise_grid)
    _validate_maps(cfg.maps, (MAP_EXACT, MAP_SIDE_LENGTHS, MAP_TRIANGLE))
    db = _normals(seed, 0, 0, 6 * cfg.db_size).reshape(cfg.db_size, 2, 3)
    noise = _normals(seed, 1, 0, 6 * cfg.db_size * cfg.n_draws).reshape(-1, 2, 3)
    labels = np.repeat(np.arange(cfg.db_size), cfg.n_draws)
    base = np.repeat(db, cfg.n_draws, axis=0)
    nearest = _classifiers(cfg.maps, db)
    rates = {name: [] for name in cfg.maps}
    for eps in cfg.noise_grid:
        queries = base + eps * noise
        for name in cfg.maps:
            rates[name].append(float(np.mean(nearest[name](queries, labels) != labels)))
    return ExperimentReport(
        kind="classification",
        seed=seed,
        config=cfg.to_dict(),
        rates={
            "noise_grid": [float(e) for e in cfg.noise_grid],
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
    is not an estimate of the constant.  Pairs run in blocks of at most
    ``search._BLOCK`` whose feature step holds at most about 2**14 entries
    per stack: l x l Gram roots at n >= 2, one row of l per configuration
    at n = 1, where the reduced features are self-correlations with no root
    (:func:`reduction._rank_one_stack`).  So the memory of the feature
    step grows with neither ``n_pairs`` nor l.
    """
    seed = _seed(seed)
    n_pairs = _require_count(n_pairs, "n_pairs", MAX_PAIRS)
    _require(_is_whole(n) and n >= 1, f"n must be an integer >= 1, got {n}")
    n, l = int(n), _require_count(l, "l", MAX_L)
    size = _block_size(group, l)
    nnz = n * size * size * (2 if group.is_complex else 1)
    # below size 2n reducer_for raises DimensionHypothesisError, building nothing
    _require(
        size < 2 * n or nnz <= MAX_REDUCER_NNZ,
        f"the reducer for n={n}, l={l} would hold about {nnz} non-zeros, "
        f"more than {MAX_REDUCER_NNZ}",
    )
    reducer_for(group, n, l)
    block = min(_BLOCK, max(1, (1 << 14) // (l if n == 1 else l * l)))

    def gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        gap = _reduced_stack(group, a) - _reduced_stack(group, b)
        return np.linalg.norm(gap, axis=1, keepdims=True)

    def distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _procrustes(group, a, b)[0]

    ratios = _pair_ratios(group, n, l, seed, n_pairs, block, distance, gaps)[:, 0]
    stats = _ratio_stats(ratios)
    stats["quantiles"] = {
        str(q): float(np.quantile(ratios, q)) for q in (0.001, 0.01, 0.05, 0.25, 0.5)
    }
    cfg = ExperimentConfig(seed=seed, n_pairs=n_pairs, maps=("reduced",), group=group, n=n, l=l)
    return ExperimentReport(
        kind="lower_constant",
        seed=seed,
        config=cfg.to_dict(),
        ratio_stats={"reduced": stats},
    )
