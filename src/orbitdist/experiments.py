"""Seeded, reproducible experiments on random triangles and configurations.

Three studies are provided:

- ``distortion_experiment``: distribution of the ratio between feature
  distances and the euclidean orbit distance over random triangle pairs,
  for the side-length map and the triangle embedding.
- ``classification_experiment``: nearest-record classification of noisy
  triangles against a random database, comparing the exact orbit distance
  with both invariant maps across a noise grid.
- ``lower_constant_survey``: empirical lower Lipschitz ratio of the
  reduced (projected) embedding, for which no closed-form constant exists.

Every trial owns an RNG stream derived from (master seed, trial index)
through numpy's splittable SeedSequence, so reports are bit-reproducible
and trials could be evaluated in any order.  The heavy arithmetic is
vectorized over trials: the distortion study's orbit distances come from
the stacked Procrustes kernel of :mod:`orbitdist.metrics`, called in
blocks of pairs; the classification study ranks records with one GEMM per
block of queries and the closed-form 2x2 nuclear norm.  The triangle
feature closed forms are cross-checked against the scalar reference
implementations in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass, field
import json
import math

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigInvalidError
from .metrics import GroupAction, _procrustes, orbit_distance
from .reduction import reduced_embedding, reducer_for

MAP_SIDE_LENGTHS = "side_lengths"
MAP_TRIANGLE = "triangle_embedding"
MAP_EXACT = "exact"

_SQRT2 = np.sqrt(2.0)
_SQRT6 = np.sqrt(6.0)
_DEGENERATE = 1e-12
_HIST_EDGES = np.linspace(0.0, 1.8, 61)
# Pairs per stacked distance call in the distortion study.
_PAIR_BLOCK = 1 << 14


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs shared by the experiment drivers; unused fields may stay None."""

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
        return ExperimentConfig(
            seed=int(d.get("seed", 0)),
            n_pairs=None if d.get("n_pairs") is None else int(d["n_pairs"]),
            db_size=None if d.get("db_size") is None else int(d["db_size"]),
            noise_grid=tuple(float(e) for e in d.get("noise_grid", ())),
            n_draws=int(d.get("n_draws", 20)),
            maps=tuple(d.get("maps", ())),
            group=GroupAction(d.get("group", "E")),
            n=int(d.get("n", 2)),
            l=int(d.get("l", 3)),
        )


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
        return {
            "kind": self.kind,
            "seed": self.seed,
            "config": self.config,
            "ratio_stats": self.ratio_stats,
            "histograms": self.histograms,
            "rates": self.rates,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# seeded sampling


def _trial_streams(seed: int, n_trials: int):
    return np.random.SeedSequence(seed).spawn(n_trials)


def _trial_normals(children, count: int) -> np.ndarray:
    out = np.empty((len(children), count))
    for i, c in enumerate(children):
        out[i] = np.random.default_rng(c).standard_normal(count)
    return out


def _redraw(child, count: int, n_skip: int) -> np.ndarray:
    """Continue a trial's stream past its first ``n_skip`` draws."""
    rng = np.random.default_rng(child)
    rng.standard_normal(count * n_skip)
    return rng.standard_normal(count)


# ---------------------------------------------------------------------------
# vectorized triangle kernels (batch axis first)


def _center_batch(x: np.ndarray) -> np.ndarray:
    return x - x.mean(axis=2, keepdims=True)


def _nuclear_2x2(c: np.ndarray) -> np.ndarray:
    """Nuclear norm of a batch of 2x2 matrices: the singular values satisfy
    (s1 + s2)^2 = ||C||_F^2 + 2 |det C|."""
    fro2 = np.einsum("...ij,...ij->...", c, c)
    det = c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0]
    return np.sqrt(np.maximum(fro2 + 2.0 * np.abs(det), 0.0))


def _euclidean_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean orbit distance of each pair (a[i], b[i]), through the
    stacked Procrustes kernel in blocks of pairs to bound its memory."""
    return np.concatenate(
        [
            _procrustes(GroupAction.EUCLIDEAN, a[lo : lo + _PAIR_BLOCK], b[lo : lo + _PAIR_BLOCK])[0]
            for lo in range(0, len(a), _PAIR_BLOCK)
        ]
    )


def _side_lengths_batch(x: np.ndarray) -> np.ndarray:
    a1, a2, a3 = x[:, :, 0], x[:, :, 1], x[:, :, 2]
    return np.stack(
        [
            np.linalg.norm(a2 - a3, axis=1),
            np.linalg.norm(a3 - a1, axis=1),
            np.linalg.norm(a1 - a2, axis=1),
        ],
        axis=1,
    )


def _triangle_coords_batch(x: np.ndarray) -> np.ndarray:
    """Batch of triangle embeddings via the closed-form 2x2 PSD square root
    sqrt(M) = (M + sqrt(det M) I) / sqrt(trace M + 2 sqrt(det M))."""
    u = (x[:, :, 1] - x[:, :, 0]) / _SQRT2
    v = (2.0 * x[:, :, 2] - x[:, :, 0] - x[:, :, 1]) / _SQRT6
    g11 = np.einsum("ni,ni->n", u, u)
    g22 = np.einsum("ni,ni->n", v, v)
    g12 = np.einsum("ni,ni->n", u, v)
    s = np.sqrt(np.maximum(g11 * g22 - g12 * g12, 0.0))
    t = np.sqrt(np.maximum(g11 + g22 + 2.0 * s, 0.0))
    tsafe = np.where(t > 0.0, t, 1.0)
    r11 = np.where(t > 0.0, (g11 + s) / tsafe, 0.0)
    r22 = np.where(t > 0.0, (g22 + s) / tsafe, 0.0)
    r12 = np.where(t > 0.0, g12 / tsafe, 0.0)
    return np.stack([(r11 - r22) / _SQRT2, _SQRT2 * r12, (r11 + r22) / _SQRT2], axis=1)


_TRIANGLE_FEATURES = {
    MAP_SIDE_LENGTHS: _side_lengths_batch,
    MAP_TRIANGLE: _triangle_coords_batch,
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


def _validate_noise_grid(grid) -> None:
    _require(len(grid) >= 1, "noise_grid must be nonempty")
    _require(all(e >= 0.0 for e in grid), "noise levels must be >= 0")
    _require(
        all(a < b for a, b in zip(grid, grid[1:])),
        "noise levels must be strictly increasing",
    )


def distortion_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Ratio distribution of feature distance over orbit distance for
    random triangle pairs with standard normal vertex coordinates.

    Pairs closer than 1e-12 in orbit distance are redrawn from the same
    trial stream, so the ratio is always well defined.
    """
    _require(cfg.n_pairs is not None and cfg.n_pairs >= 1, "n_pairs must be >= 1")
    _require(len(cfg.maps) >= 1, "at least one map is required")
    _require(
        set(cfg.maps) <= {MAP_SIDE_LENGTHS, MAP_TRIANGLE},
        f"maps must be a subset of [{MAP_SIDE_LENGTHS}, {MAP_TRIANGLE}]",
    )
    children = _trial_streams(cfg.seed, cfg.n_pairs)
    draws = _trial_normals(children, 12)
    pairs = draws.reshape(cfg.n_pairs, 2, 2, 3)
    d = _euclidean_distances(pairs[:, 0], pairs[:, 1])
    for i in np.flatnonzero(d < _DEGENERATE):
        n_skip = 1
        while True:
            fresh = _redraw(children[i], 12, n_skip).reshape(2, 2, 3)
            di = _euclidean_distances(fresh[None, 0], fresh[None, 1])[0]
            if di >= _DEGENERATE:
                pairs[i], d[i] = fresh, di
                break
            n_skip += 1
    ratio_stats, histograms = {}, {}
    for name in cfg.maps:
        fmap = _TRIANGLE_FEATURES[name]
        num = np.linalg.norm(fmap(pairs[:, 0]) - fmap(pairs[:, 1]), axis=1)
        r = num / d
        ratio_stats[name] = _ratio_stats(r)
        counts, _ = np.histogram(r, bins=_HIST_EDGES)
        histograms[name] = {
            "edges": [float(e) for e in _HIST_EDGES],
            "counts": [int(c) for c in counts],
        }
    return ExperimentReport(
        kind="distortion",
        seed=cfg.seed,
        config=cfg.to_dict(),
        ratio_stats=ratio_stats,
        histograms=histograms,
    )


def _classify_rate(query_feats: np.ndarray, db_feats: np.ndarray, labels: np.ndarray) -> float:
    pred = np.empty(len(query_feats), dtype=int)
    step = 4096
    for lo in range(0, len(query_feats), step):
        hi = min(lo + step, len(query_feats))
        pred[lo:hi] = cdist(query_feats[lo:hi], db_feats).argmin(axis=1)
    return float(np.mean(pred != labels))


def _exact_rate(queries: np.ndarray, db: np.ndarray, labels: np.ndarray) -> float:
    """Misclassification rate of nearest-record lookup by the exact
    euclidean orbit distance.

    Ranks records by d^2 = ||A||^2 + ||B||^2 - 2 ||A B*||_nuc.  Near a
    coincident pair that subtraction cancels and loses the relative
    accuracy of d, which is why the distance kernel avoids it.  Only the
    argmin over records is used here, though, and the absolute error of
    d^2 stays at round-off of ||A||^2 + ||B||^2: the ranking can change
    only between records whose squared distances agree to that round-off.
    A stacked SVD per (query, record) pair would cost far more.
    """
    cq, cb = _center_batch(queries), _center_batch(db)
    qn = np.einsum("nia,nia->n", cq, cq)
    bn = np.einsum("nia,nia->n", cb, cb)
    flat_b = cb.reshape(-1, 3).T
    pred = np.empty(len(queries), dtype=int)
    step = 512
    for lo in range(0, len(queries), step):
        hi = min(lo + step, len(queries))
        # one GEMM: cross[q, d, i, j] = sum_a cq[q, i, a] * cb[d, j, a]
        cross = (cq[lo:hi].reshape(-1, 3) @ flat_b).reshape(hi - lo, 2, len(db), 2)
        d2 = qn[lo:hi, None] + bn[None, :] - 2.0 * _nuclear_2x2(cross.transpose(0, 2, 1, 3))
        pred[lo:hi] = d2.argmin(axis=1)
    return float(np.mean(pred != labels))


def classification_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Misclassification rate of noisy triangles looked up in a random
    database, per map and per noise level.

    Each database triangle is perturbed ``n_draws`` times by additive
    gaussian noise of standard deviation eps on every coordinate, and
    classified by its nearest database record under each map's distance.
    """
    _require(cfg.db_size is not None and cfg.db_size >= 1, "db_size must be >= 1")
    _require(cfg.n_draws >= 1, "n_draws must be >= 1")
    _validate_noise_grid(cfg.noise_grid)
    _require(len(cfg.maps) >= 1, "at least one map is required")
    allowed = {MAP_EXACT, MAP_SIDE_LENGTHS, MAP_TRIANGLE}
    _require(set(cfg.maps) <= allowed, f"maps must be a subset of {sorted(allowed)}")
    children = _trial_streams(cfg.seed, 1 + cfg.db_size * cfg.n_draws)
    db = np.random.default_rng(children[0]).standard_normal((cfg.db_size, 2, 3))
    noise = _trial_normals(children[1:], 6).reshape(cfg.db_size, cfg.n_draws, 2, 3)
    labels = np.repeat(np.arange(cfg.db_size), cfg.n_draws)
    base = np.repeat(db, cfg.n_draws, axis=0)
    db_feats = {
        name: _TRIANGLE_FEATURES[name](db)
        for name in cfg.maps
        if name != MAP_EXACT
    }
    rates = {name: [] for name in cfg.maps}
    for eps in cfg.noise_grid:
        queries = base + eps * noise.reshape(-1, 2, 3)
        for name in cfg.maps:
            if name == MAP_EXACT:
                rate = _exact_rate(queries, db, labels)
            else:
                rate = _classify_rate(
                    _TRIANGLE_FEATURES[name](queries), db_feats[name], labels
                )
            rates[name].append(rate)
    return ExperimentReport(
        kind="classification",
        seed=cfg.seed,
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
    strictly positive.
    """
    _require(n_pairs >= 1, "n_pairs must be >= 1")
    reducer = reducer_for(group, n, l)
    per = 2 * n * l * (2 if group.is_complex else 1)
    children = _trial_streams(seed, n_pairs)
    draws = _trial_normals(children, per)
    ratios = np.empty(n_pairs)
    for i in range(n_pairs):
        row, n_skip = draws[i], 1
        while True:
            if group.is_complex:
                z = row[: 2 * n * l] + 1j * row[2 * n * l :]
                a, b = z[: n * l].reshape(n, l), z[n * l :].reshape(n, l)
            else:
                a, b = row[: n * l].reshape(n, l), row[n * l :].reshape(n, l)
            d, _ = orbit_distance(group, a, b)
            if d >= _DEGENERATE:
                break
            row = _redraw(children[i], per, n_skip)
            n_skip += 1
        fa = reduced_embedding(group, a, reducer)
        fb = reduced_embedding(group, b, reducer)
        ratios[i] = np.linalg.norm(fa - fb) / d
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
