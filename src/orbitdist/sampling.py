"""Counter-based standard normal draws, bit for bit the same on every run.

Sampling is counter-based (Salmon et al., SC'11).  For a seed
``0 <= k < 2**64``, stream ``s`` is the 64-bit word sequence of
``Philox(key=k + (s << 64))`` and word ``w`` gives the standard normal
``ndtri(((w >> 12) + 1/2) / 2**52)`` (:func:`_normals`).  ``ndtri`` is
Cephes's normal quantile, ported to numpy in :func:`_ndtri` with the same
rational approximations and order of operations and the C library's
``log``, so it returns the values of SciPy's ``ndtri`` bit for bit without
importing scipy.  That ``log`` is :func:`_log`, a table-driven numpy log
that returns ``math.log``'s bits: it computes each value to within 2**-11
ulp, returns the nearest double where that is at least ulp/32 from a
rounding midpoint, and calls ``math.log`` for the rest (about 1 in 16).
This rests on the C library's ``log`` erring by at most 0.519 ulp, so that
it rounds correctly outside that band, as glibc's does since 2.28; a libm
without that bound may round a few values differently from :func:`_log`.
numpy's own ``log`` is no substitute: it differed from glibc's on 475 of
2e6 sampler values ``y`` and on 1655 of 2e6 ``x = sqrt(-2 log y)`` (numpy
2.4, an AVX-512 CPU).  ``Philox.advance`` reaches any word directly, so a
whole block of draws is one call, and one seed gives one byte-identical
sequence.  Which words each study reads is :mod:`orbitdist.experiments`'
business; this module needs only numpy.
"""
from __future__ import annotations

from functools import cache
import math

import numpy as np

from .linalg import _blocks


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
