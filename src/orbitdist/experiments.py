"""Seeded, reproducible experiments on random triangles and configurations.

- ``distortion_experiment`` and ``lower_constant_survey``: one pair study
  (:func:`_pair_study`) of the ratio of feature distance to orbit distance
  over random pairs: of triangles for the side-length map and the triangle
  embedding, of ``(n, l)`` configurations for the reduced (projected)
  embedding, which has no closed-form lower constant; the survey's minimum
  is an upper bound on that constant.
- ``classification_experiment``: nearest-record classification of noisy
  triangles against a random database under the exact orbit distance and
  both invariant maps, across a noise grid.

Sampling is counter-based (Salmon et al., SC'11).  For a seed
``0 <= k < 2**64``, stream ``s`` is the 64-bit word sequence of
``Philox(key=k + (s << 64))`` and word ``w`` gives the standard normal
``ndtri(((w >> 12) + 1/2) / 2**52)``.  ``ndtri`` is Cephes's normal
quantile, ported to numpy in :func:`_ndtri` with the same rational
approximations and order of operations and the C library's ``log``, so it
returns the values of SciPy's ``ndtri`` bit for bit without importing
scipy.  That ``log`` is :func:`_log`, a table-driven numpy log that
returns ``math.log``'s bits: it computes each value to within 2**-11 ulp,
returns the nearest double where that is at least ulp/32 from a rounding
midpoint, and calls ``math.log`` for the rest (about 1 in 16).  This
rests on the C library's ``log`` erring by at most 0.519 ulp, so that it
rounds correctly outside that band, as glibc's does since 2.28; a libm
without that bound may round a few values differently from :func:`_log`.
numpy's own ``log`` is no substitute: it differed from glibc's on 475 of
2e6 sampler values ``y`` and on 1655 of 2e6 ``x = sqrt(-2 log y)`` (numpy
2.4, an AVX-512 CPU).  ``Philox.advance`` reaches any word directly, so a
whole block of trials is drawn with one call, and one seed
gives one byte-identical report.  In the pair studies trial ``i`` reads
words ``[per*i, per*(i+1))`` of stream 0, with ``per`` = 12 for two
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
The classification ranks the queries of each map with one nearest-record
kernel (:func:`_nearest_records`): a query's own record certifies the
nearest one by the triangle inequality, so only the records near it in a
table of feature distances between the records are ranked, and the result
is the exact argmin of the map's distance.  Each table is built once per
study: the exact map reads the triangle embedding's through the sqrt(2)
sandwich, so no exact distance between two records is computed, and the
side lengths, which have no lower bound, keep their own.  A row keeps
only the records that its record's queries can reach, by a bound from the
largest noise level, the record's own noise draws and each map's
Lipschitz constant (:func:`_classifiers`); a query whose radius reaches
the end of its row is ranked against every record, so the bound sets the
work and never the answer.
Neither the distortion nor the classification study loads scipy, nor does
the survey at n = 1; at n >= 2 it loads ``scipy.sparse`` for the
reducer's product over its stacks of roots.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache
import json
import math
import numbers

import numpy as np

from .errors import ConfigInvalidError, _shown
from .features import MAP_TRIANGLE, REDUCED, _is_triangle
from .linalg import _blocks, _sum_last
from .metrics import GroupAction, _procrustes
from .reduction import _block_size, _reduced_stack, reducer_for
from .triangles import _SQRT2, _side_lengths, _triangle_coords

MAP_SIDE_LENGTHS = "side_lengths"
MAP_EXACT = "exact"

_DEGENERATE = 1e-12
# The round-off slack of the nearest-record certificate and the entries
# kept per record table (see _nearest_records).
_SLACK = 2.0**-46
_TABLE = 1 << 20
_HIST_EDGES = np.linspace(0.0, 1.8, 61)
_SQRT3 = np.sqrt(3.0)
# Ceilings on the study sizes, so that a config cannot ask for more memory
# than a workstation has.  The pair studies keep a few float64 ratios per
# pair (about 0.3 GB at MAX_PAIRS); the classification study keeps a few
# hundred bytes per noisy query, db_size * n_draws of them (about 0.3 GB
# at both ceilings), and at most two record tables (one per index, see
# _MAPS) of at most about _TABLE distances and indices each (16 MB), while
# the blocks of the one being built hold as much again; at the CLI defaults
# a row keeps about 30 of the 500 records (see _record_table).  At n >= 2
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
# seeded sampling


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


# log x = k ln2 - log(invc) + log1p(r) for x = 2^k m, 1 <= m < 2, with invc a
# 20-bit approximation of 1/m from a table of 2**7 cells of m and r = m invc - 1
# (Tang, ACM TOMS 16, 1990); see _log.
_LOG_CELLS = 1 << 7
_LOG_GRID = 42  # the hi parts of the table are multiples of 2**-42
# log1p(r) - r = r^2 (-1/2 + r/3 - ...) to degree 8, highest degree first
_LOG1P = (-1 / 8, 1 / 7, -1 / 6, 1 / 5, -1 / 4, 1 / 3, -1 / 2)
# float64 bit fields: the fraction, its low 20 and high 32 bits, the exponent,
# and the bits of 1.0
_FRACTION = (1 << 52) - 1
_LOW20 = (1 << 20) - 1
_HIGH32 = _FRACTION - _LOW20
_EXPONENT = 0x7FF << 52
_ONE = 0x3FF << 52


def _ln_split(num: int, den: int) -> tuple[float, float]:
    """``log(num/den)``, for ``1/2 <= num/den <= 2``, as ``hi + lo``: ``hi``
    the value rounded to a multiple of ``2**-_LOG_GRID``, ``lo`` the rest
    rounded.  The log is ``2 atanh(z)``, ``z = (num - den)/(num + den)``,
    summed in 120-bit fixed point to within 2**-114."""
    z = (abs(num - den) << 120) // (num + den)
    z2 = (z * z) >> 120
    v, term, j = 0, z, 1
    while term:
        v += term // j
        term = (term * z2) >> 120
        j += 2
    v = 2 * v if num >= den else -2 * v
    hi = (v + (1 << (119 - _LOG_GRID))) >> (120 - _LOG_GRID)
    return math.ldexp(hi, -_LOG_GRID), math.ldexp(v - (hi << (120 - _LOG_GRID)), -120)


@cache
def _log_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """``(invc, logc_hi, logc_lo, ln2_hi, ln2_lo)``.  For mantissa cell
    ``i``, ``[1 + i/128, 1 + (i+1)/128)``, ``invc[i]`` is ``128/(128 + i +
    1/2)`` rounded to a multiple of 2**-20, and ``logc_hi[i] + logc_lo[i]``
    is ``-log(invc[i])``; ``ln2_hi + ln2_lo`` is log 2 (:func:`_ln_split`).
    Built on first use, in about a millisecond, and read-only, since every
    caller shares it."""
    num = [round(2.0**20 * _LOG_CELLS / (_LOG_CELLS + i + 0.5)) for i in range(_LOG_CELLS)]
    logc_hi, logc_lo = zip(*(_ln_split(1 << 20, n) for n in num))
    tables = np.ldexp(np.array(num, dtype=np.float64), -20), np.array(logc_hi), np.array(logc_lo)
    for t in tables:
        t.flags.writeable = False
    return *tables, *_ln_split(2, 1)


def _log_sum(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(top, small)`` with ``top + small`` within 2**-64 of ``log x`` and
    ``|small| < 2**-16``, for the int64 bits ``b`` of positive normal
    float64 values ``x = 2^k m``, ``1 <= m < 2``, with ``|log x| >= 1/2``.
    Other inputs give finite values, which :func:`_log` hands to
    ``math.log``.  From :func:`_log_table`:

    - ``m = m_hi + m_lo`` with ``m_hi`` its top 33 bits.  With ``invc`` the
      entry of m's cell, ``r = m invc - 1 = r_hi + r_lo`` exactly, as in
      Dekker's exact product (1971): ``m_hi invc`` is a multiple of 2**-52
      below 2, so ``r_hi = m_hi invc - 1`` is exact (Sterbenz), and
      ``r_lo = m_lo invc`` has 40 bits; ``|r| < 2**-8``.
    - ``log x = hi + lo + log1p(r)`` with ``hi = k ln2_hi + logc_hi``
      exact, a multiple of 2**-42 below 2**10, and ``lo = k ln2_lo +
      logc_lo``, which errs by under 2**-86.
    - ``log1p(r) = r_hi + r_lo + q``, ``q`` the degree-8 Taylor polynomial
      less ``r``, at ``rr = fl(r_hi + r_lo)``: its tail ``|r|^9/9`` is under
      2**-75; evaluating at ``rr`` moves ``q`` by under ``|r| ulp(r)/2 <
      2**-69``; Horner's rounding of ``|q| < 2**-17`` is under 2**-67.
    - ``top = fl(hi + r_hi)`` and its exact error by Fast2Sum, whose
      precondition ``|hi| >= |r_hi|`` holds for ``|log x| >= 1/2``, as
      ``|hi| > 1/2 - 2**-7``; ``small`` adds ``r_lo``, ``lo`` and ``q`` to
      that error, four roundings of sums below 2**-16, each under 2**-70.
    """
    invc_t, hi_t, lo_t, ln2_hi, ln2_lo = _log_table()
    cell = (b >> 45) & (_LOG_CELLS - 1)
    invc = invc_t[cell]
    r_hi = ((b & _HIGH32) | _ONE).view(np.float64)  # m_hi
    r_hi *= invc
    r_hi -= 1.0
    r_lo = ((b & _LOW20) | _ONE).view(np.float64)
    r_lo -= 1.0  # m_lo
    r_lo *= invc
    k = (((b >> 52) & 0x7FF) | (0x433 << 52)).view(np.float64)  # 2**52 + exponent field
    k -= 2.0**52 + 1023.0
    hi = k * ln2_hi
    hi += hi_t[cell]
    lo = np.multiply(k, ln2_lo, out=k)
    lo += lo_t[cell]
    rr = r_hi + r_lo
    q = rr * _LOG1P[0]
    for c in _LOG1P[1:]:
        q += c
        q *= rr
    q *= rr
    top = hi + r_hi
    small = np.subtract(hi, top, out=hi)
    small += r_hi  # Fast2Sum: top + small = hi + r_hi
    small += r_lo
    small += lo
    small += q
    return top, small


def _log(x: np.ndarray) -> np.ndarray:
    """The C library's ``log`` (``math.log``, the one compiled Cephes calls)
    of a 1-D float64 array, bit for bit, without a Python call for most
    elements.

    The premise is glibc's (2.28 and later): ``log`` errs by at most 0.519
    ulp, so it returns the correctly rounded value unless the exact log lies
    within 0.019 ulp of a rounding midpoint.  In blocks
    (:func:`linalg._blocks`), ``top + small`` (:func:`_log_sum`) is summed
    by Fast2Sum into ``res``, the double nearest to it, and its exact
    residual ``t``.  Where ``|res| >= 1/2``, ``res + t`` is within ``eps <
    2**-64``, under 2**-11 ulp, of the exact log.  So where also ``|t| <=
    (15/16) ulp/2``, the exact log lies at least ``ulp/32 - eps > 0.03`` ulp
    from every midpoint, ``res`` is its correct rounding, and it is
    libm's.  ``math.log`` computes the rest: the values in that band (about
    1 in 16), those where ``res`` is a power of two (the spacing below it
    is half the ulp), those with ``|res| < 1/2`` (where ``|log x| >= 1/2``
    may fail), and inputs that are not positive normal numbers.  A band of
    ulp/512 instead mismatched ``math.log`` on 27 of 8e6 sampler inputs
    ``x = sqrt(-2 log y)`` (glibc 2.36).
    """
    out = np.empty_like(x)
    for s in _blocks(x.size, 8):  # about ten arrays of 2**13 entries, which stay in cache
        b = x[s].view(np.int64)
        top, small = _log_sum(b)
        res = np.add(top, small, out=out[s])
        t = np.subtract(top, res, out=top)
        t += small  # Fast2Sum: res + t = top + small
        bits = res.view(np.int64)
        ex = bits & _EXPONENT
        half = (ex - (53 << 52)).view(np.float64)  # ulp/2 if |res| >= 2**-970
        half *= 15 / 16
        bad = np.abs(t, out=t) > half  # within ulp/32 of a midpoint
        bad |= ex < (0x3FE << 52)  # |res| < 1/2
        bad |= (bits & _FRACTION) == 0  # res a power of two
        bad |= (b < 1 << 52) | (b >= _EXPONENT)  # x not a positive normal
        j = np.flatnonzero(bad)
        res[j] = np.fromiter(map(math.log, memoryview(x[s][j])), np.float64, j.size)
    return out


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Cephes ``ndtri``, the standard normal quantile, of float64 values
    strictly inside (0, 1), in place: the values of SciPy's ``ndtri`` bit
    for bit.  The central branch, most of the draws, runs over the whole
    array in blocks; the tails, ``u <= exp(-2)`` or ``u > 1 - exp(-2)``, are
    gathered, and their two logs, of ``y`` in (0, exp(-2)] and of ``x`` in
    [2, 39], are :func:`_log`: the C library's ``log``, bit for bit, given
    its 0.519-ulp bound (see the module docstring)."""
    tail = np.flatnonzero((u <= _EXP_M2) | (u > 1.0 - _EXP_M2))
    y = u[tail]
    upper = y > 0.5
    y[upper] = 1.0 - y[upper]  # exact for y >= 1/2
    for s in _blocks(u.size, 1):
        c = u[s]
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
    Each residual errs by at most a few dozen ulps of ``||a|| + ||b||``
    (see :func:`_nearest_records`), because the residual is stationary in the
    phase, plus at most 2^-530 where squares and products underflow.  The
    inputs must be small enough that no square overflows, as the
    experiments' normal draws are.
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


def _record_table(points, metric, db: np.ndarray, bound: np.ndarray):
    """``(order, table, kept)``: for each record L of ``db``, the nearest
    ``kept[L]`` records by their computed distance F^(L, j) under
    ``metric`` between their ``points``, ordered by (distance, index), and
    those distances, padded with inf to the widest row, then a last
    column of inf beyond every radius.

    ``bound[L]`` is the radius that L's queries are expected to reach.
    Built in blocks of rows (:func:`linalg._blocks`), N pairs per row; a
    block keeps ``min(N, max(2, _TABLE // N), need + 1)`` records per row,
    where ``need`` is the most records that a row of the block has within
    its bound.  So, up to the ceiling, every row holds a record beyond its
    bound or every record, and the table holds at most about ``_TABLE``
    entries; the blocks, kept until the widest is known, hold as many
    again.  The bound carries no exactness: :func:`_nearest_records`
    ranks every record for a query whose radius reaches the last record
    that its row holds."""
    records = points(GroupAction.EUCLIDEAN, db)
    n = len(records)
    most = min(n, max(2, _TABLE // n))
    blocks = []
    for r in _blocks(n, n):
        d = metric(records[r, None], records)
        within = bound[r, None]
        # whole rows fit: count the records within the bound in them, so
        # that no more of a row is sorted than is kept; truncated rows are
        # counted among their first ``most`` records, after the sort
        k = most if most < n else min(n, int((d <= within).sum(axis=1).max()) + 1)
        if k < n:
            # the first k by (distance, index) without sorting whole rows;
            # where ties at the k-th distance fall changes no prefix
            # narrower than k, the only prefixes ranked
            part = np.argpartition(d, k - 1, axis=1)[:, :k]
            rank = np.lexsort((part, np.take_along_axis(d, part, axis=1)), axis=1)
            part = np.take_along_axis(part, rank, axis=1)
        else:
            part = np.argsort(d, axis=1, kind="stable")
        d = np.take_along_axis(d, part, axis=1)
        k = min(k, int((d <= within).sum(axis=1).max()) + 1)
        blocks.append((r, part[:, :k], d[:, :k]))
    width = max(part.shape[1] for _, part, _ in blocks)
    order = np.zeros((n, width), dtype=np.intp)
    table = np.full((n, width + 1), np.inf)
    kept = np.empty(n, dtype=np.intp)
    for r, part, dist in blocks:
        order[r, : part.shape[1]] = part
        table[r, : part.shape[1]] = dist
        kept[r] = part.shape[1]
    return order, table, kept


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
    ``s (2 d^(q, L) + 3 delta)`` is ranked under d: none when it is L
    alone (F^(L, L) = 0), every record when it reaches the last of the
    ``kept[L]`` records that the row holds, fewer than N, since a record
    past the row may lie inside the radius too.  A row holds one record
    beyond the bound on its queries' radii that sized it
    (:func:`_record_table`); that bound is never trusted, so a query past
    it costs a ranking against every record and misses none.

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
      more delta.  So F(L, j) <= s d(L, j) <= s (2 d^(q, L) + 1.5 delta).
    - The table's F^(L, j) errs by at most 54u N, under delta / 2.  For a
      feature map that is its own index only the 4u (||L|| + ||j||) of a
      feature distance counts.  For the exact map add the rounding of
      :func:`triangles._triangle_coords` for both records, whose features
      have the norm of the centred triangle, at most the triangle's.  Its
      power-of-two scaling is exact; the edge matrix E is computed within
      3u ||x|| (Cauchy-Schwarz bounds the three terms of v), which the root,
      sqrt(2)-Lipschitz in E, turns into 4.3u ||x||; the closed form's
      products and sums err by a few u ||E||^2 over a denominator
      t >= ||E||, under 18u ||x|| for the three coordinates.  With the 4u
      of the feature distance, |F^(L, j) - F(L, j)| <= 27u (||L|| + ||j||)
      <= 54u N.
    - So the inner slack's spare 1.5 delta, at least 1.5 delta once
      stretched (s >= 1), covers two things: the table's rounding, under
      delta / 2, and with a delta to spare the radius's own rounding (a few
      u of it, under 10u (N_q + N)) and the at most 2^-530 that
      underflowing squares and products add to a distance when
      N_q + N > 2^-480, as for any draw of the experiments.

    So every record that ties or beats L is ranked.  Open queries are
    ranked by prefix width, in blocks (:func:`linalg._blocks`) of that many
    pairs per query; ``index`` is ``(order, table, kept)``.
    """
    points, metric, _, stretch, _ = _MAPS[name]
    order, table, kept = index
    records = points(GroupAction.EUCLIDEAN, db)
    n, k = order.shape
    norm = np.linalg.norm(records.reshape(n, -1), axis=1).max()

    def nearest(queries: np.ndarray, labels: np.ndarray) -> np.ndarray:
        q = points(GroupAction.EUCLIDEAN, queries)
        own = np.concatenate([metric(q[r], records[labels[r]]) for r in _blocks(len(q), 1)])
        slack = _SLACK * (np.linalg.norm(q.reshape(len(q), -1), axis=1) + norm)
        radius = stretch * (2.0 * own + 3.0 * slack)
        rows = np.flatnonzero(table[labels, 1] <= radius)
        near, reach = labels[rows], radius[rows, None]
        width = np.concatenate(
            [(table[near[r], :k] <= reach[r]).sum(axis=1) for r in _blocks(len(rows), k)]
        )
        stored = kept[near]
        width[(width >= stored) & (stored < n)] = n  # to a truncated row's end: every record
        pred = labels.copy()
        for w in sorted(set(width.tolist())):
            ranked = rows[width == w]
            for s in _blocks(len(ranked), w):
                r = ranked[s]
                ids = np.arange(n)[None] if w == n else order[labels[r], :w]
                d = metric(q[r, None], records[ids])
                pred[r] = np.where(d == d.min(axis=1, keepdims=True), ids, n).min(axis=1)
        return pred

    return nearest


def _classifiers(maps, db: np.ndarray, reach: np.ndarray) -> dict:
    """The :func:`_nearest_records` kernel of each map in ``maps`` over
    ``db``, with one record table per index, shared by the maps it
    serves.  ``reach[L]`` bounds ``||q - L||`` over record L's queries; a
    map of Lipschitz constant c and stretch s then asks for a radius of at
    most about ``2 s c reach[L]``, and each table's row L holds, up to its
    ceiling, the records within the largest such radius of the maps it
    serves and one more (see :func:`_record_table`)."""
    scale = {}
    for name in maps:
        _, _, index, stretch, lipschitz = _MAPS[name]
        scale[index] = max(scale.get(index, 0.0), 2.0 * stretch * lipschitz)
    tables = {index: _record_table(*_MAPS[index][:2], db, s * reach) for index, s in scale.items()}
    return {name: _nearest_records(name, tables[_MAPS[name][2]], db) for name in maps}


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
