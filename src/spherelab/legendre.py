"""Stable evaluation of Legendre polynomials and normalized associated Legendre functions.

Conventions used throughout the package.  The evaluators return the real
factor ``N(k, m, t)``, m = 0..k, such that

    Y_km(phi, theta) = N(k, m, cos phi) * exp(i m theta)

is a unit vector in L2 of the sphere with the unnormalized area element
(total area 4*pi).  Equivalently ``2*pi * integral_{-1}^{1} N(k, m, t)^2 dt = 1``.
The Condon-Shortley phase ``(-1)^m`` is folded into the values.  Negative
orders, ``N(k, -m, t) = (-1)^m N(k, m, t)``, are spread out by the
harmonics layer (``signed_order_table``), not here.

Near the diagonal ``m ~ k`` the values pass through a severely subnormal
range (below 1e-300 for k around 2000) before recovering to order one, so the
recurrence carries an explicit power-of-two exponent offset next to the
float mantissa.  Plain double-precision recurrences silently lose mass for
k beyond roughly 1500; the extended-range one is exact to rounding for all
k up to at least 2048.

There is one recurrence for N, fixed degree and downward in order, O(k) per
point with no cap on k, in two forms: ``normalized_legendre_table`` (all
orders at many points, vectorized over the points) and its scalar one-point
form ``normalized_assoc_legendre_row``, which runs on Python floats and is
about 5 times faster than a one-point table call at k = 8 and 15 to 20
times faster from k = 64 to 2048.  ``_upward_degree_table``, a second
algorithm (upward in degree, k <= 1024), stays beside it for cross-checks,
and ``legendre_p`` gives P_k by one array recurrence over all its points.

``_zonal_3j_squares`` gives the squared 3j symbols (k k 2s; 0 0 0)^2 that
turn fourth-power integrals of degree-k harmonics into O(k) sums.

``log_factorial`` seeds every normalization (the sectoral amplitude and the
beam coefficients).  It is a port of Cephes ``lgam`` (Moshier, *Methods and
Programs for Mathematical Functions*, 1989) at the positive integers, the
routine behind ``scipy.special.gammaln``, and reproduces ``gammaln(n + 1)``
bit for bit, so the package needs no scipy at run time.  ``math.lgamma``
is not used because it rounds differently: it differs from ``gammaln`` in
the last bit for 1.9 million of the first 2^22 integers, and every pinned
value downstream would move.
"""

import functools
import math

import numpy as np

__all__ = [
    "log_factorial",
    "legendre_p",
    "normalized_assoc_legendre_row",
    "normalized_legendre_table",
    "zonal_sup_coefficient",
]

_LOG2E = 1.0 / np.log(2.0)

# Renormalization thresholds for extended-range recurrences.  Mantissas are
# kept inside [2^-500, 2^500] so that products of two carried values never
# overflow or underflow a double.
_XR_LIMIT = 2.0**500
_XR_TINY = 2.0**-500
_XR_SHIFT = 1000
_XR_SCALE_DOWN = 2.0**-1000
_XR_SCALE_UP = 2.0**1000
_XR_CLIP = 2400


# Cephes lgam: log(sqrt(2 pi)) and the Stirling series coefficients for x < 1000.
_LS2PI = 0.91893853320467274178
_STIRLING = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
# Array arguments below this are read from a shared table.
_TABLE_LIMIT = 2**20


def _lgam(x: float) -> float:
    """Cephes lgam(x) at a positive integer x, in the same operations and order."""
    if x < 13.0:
        return math.log(math.factorial(int(x) - 1))
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    poly = _STIRLING[0]
    for a in _STIRLING[1:]:
        poly = poly * p + a
    return q + poly / x


@functools.lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    """log(n!) for n < size, read-only and shared; sizes are powers of two."""
    table = np.array([_lgam(n + 1.0) for n in range(size)])
    table.flags.writeable = False
    return table


def log_factorial(n):
    """log(n!) for scalar or array integer n >= 0, equal to gammaln(n + 1) bit for bit."""
    if type(n) is int and 0 <= n < _TABLE_LIMIT:
        return _lgam(n + 1.0)
    n_arr = np.asarray(n, dtype=np.int64)
    if np.any(n_arr < 0):
        raise ValueError("log factorial requires n >= 0")
    if n_arr.ndim == 0:
        return _lgam(float(n_arr) + 1.0)
    top = int(n_arr.max(initial=0))
    if top < _TABLE_LIMIT:
        return _log_factorial_table(1 << max(top.bit_length(), 8))[n_arr]
    return np.array([_lgam(float(v) + 1.0) for v in n_arr.flat]).reshape(n_arr.shape)


def _degree(k) -> int:
    """The degree k as an int; a negative one is a ValueError."""
    k = int(k)
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    return k


def _cosine(t):
    """A Python float or a float array t clipped to [-1, 1].

    |t| up to 1 + 1e-12 is tolerated as rounding and clipped; anything
    farther out, NaN included, is a ValueError.
    """
    scalar = type(t) is float
    inside = abs(t) <= 1.0 + 1e-12 if scalar else (np.abs(t) <= 1.0 + 1e-12).all()
    if not inside:
        raise ValueError("Legendre arguments must satisfy |t| <= 1")
    return min(1.0, max(-1.0, t)) if scalar else np.clip(t, -1.0, 1.0)


def legendre_p(k: int, t):
    """Legendre polynomial P_k(t) by the three-term recurrence.

    Accepts scalar or array ``t`` with ``|t| <= 1`` (a 1e-12 rounding margin
    is tolerated and clipped; NaN is refused).  P_k(1) = 1 normalization.
    One recurrence runs on all points in three reused buffers; a scalar runs
    as a 0-d array and returns a float.
    """
    k = _degree(k)
    t_arr = _cosine(np.asarray(t, dtype=float))
    p_prev = np.ones(np.shape(t_arr))
    if k == 0:
        return p_prev if p_prev.ndim else 1.0
    p_cur = np.array(t_arr)
    p_next = np.empty_like(p_cur)
    for n in range(2, k + 1):
        # p_next = ((2n - 1) t p_cur - (n - 1) p_prev) / n; p_prev is spent.
        np.multiply(t_arr, 2.0 * n - 1.0, out=p_next)
        p_next *= p_cur
        p_prev *= n - 1.0
        p_next -= p_prev
        p_next /= float(n)
        p_prev, p_cur, p_next = p_cur, p_next, p_prev
    return p_cur if p_cur.ndim else float(p_cur)


def zonal_sup_coefficient(k: int) -> float:
    """|c_k| = sqrt((2k+1) / (4 pi)), the sup of the zonal harmonic Z_k = c_k P_k."""
    return float(np.sqrt((2 * k + 1) / (4.0 * np.pi)))


def _zonal_3j_squares(k: int) -> np.ndarray:
    """T_s = (k k 2s; 0 0 0)^2 for s = 0..k, the squared zonal Wigner 3j symbols.

    These are the Gaunt weights of |Y_km|^2 summed over m: the eigenspace
    average of ||Y_km||_4^4 is ((2k+1)/4pi) sum_s T_s.  From T_0 = 1/(2k+1)
    each term follows by the exact ratio

        T_{s+1}/T_s = (2s+1)^2 (2k+2s+2)(2k-2s) / ((2s+2)^2 (2k+2s+3)(2k-2s-1)),

    taken as one cumulative product, O(k) with no Legendre evaluation.
    """
    k = _degree(k)
    s = np.arange(k, dtype=float)
    ratio = ((2 * s + 1) ** 2 * (2 * k + 2 * s + 2) * (2 * k - 2 * s)) / (
        (2 * s + 2) ** 2 * (2 * k + 2 * s + 3) * (2 * k - 2 * s - 1)
    )
    return np.cumprod(np.concatenate([[1.0 / (2 * k + 1)], ratio]))


def _sectoral_log(k: int) -> float:
    """Natural log of |N(k, k, t)| / sin(phi)^k, the sectoral amplitude.

    From 2*pi * integral N(k,k,t)^2 dt = 1 with N(k,k,t) proportional to
    sin(phi)^k:  log amplitude = 0.5 * (log (2k+1)! - log 2*pi
    - (2k+1) log 2 - 2 log k!).
    """
    return 0.5 * (
        log_factorial(2 * k + 1)
        - np.log(2.0 * np.pi)
        - (2 * k + 1) * np.log(2.0)
        - 2.0 * log_factorial(k)
    )


def normalized_assoc_legendre_row(k: int, t: float) -> np.ndarray:
    """All orders at one point: array of N(k, m, t) for m = 0..k.

    Runs the fixed-degree downward recurrence in m, seeded at the sectoral
    order in log space and carried with an extended-range exponent offset.
    Cost is O(k), against O(k^2) for k+1 separate column recurrences.  The
    loop runs on Python floats, and its coefficients come from one
    vectorized, correctly rounded square root each, so the values are the
    ones numpy scalar arithmetic gives.
    """
    k = _degree(k)
    t = _cosine(float(t))
    s = math.sqrt(max(0.0, 1.0 - t * t))
    if s == 0.0:
        out = np.zeros(k + 1)
        out[0] = (np.sign(t) ** k if k else 1.0) * zonal_sup_coefficient(k)
        return out
    log2_seed = (_sectoral_log(k) + k * np.log(s)) * _LOG2E
    off = math.floor(log2_seed)
    prev = float((-1.0) ** k * 2.0 ** (log2_seed - off))
    # With w(j) = sqrt((k + j) (k - j + 1)), order m takes w(m + 1) on the
    # order above and divides by w(m); root lists w(k + 1), w(k), ..., w(1).
    j = np.arange(k + 1, 0, -1)
    root = np.sqrt((k + j) * (k - j + 1.0)).tolist()
    across = (2.0 * j[1:] * (t / s)).tolist()
    # Orders k, k-1, ..., 0; reversed once at the end.
    mans = [prev]
    offs = [off]
    above = 0.0
    for a, c, d in zip(root, across, root[1:]):
        above, prev = prev, -(a * above + c * prev) / d
        big = max(abs(above), abs(prev))
        if big > _XR_LIMIT:
            above *= _XR_SCALE_DOWN
            prev *= _XR_SCALE_DOWN
            off += _XR_SHIFT
        elif 0.0 < big < _XR_TINY:
            above *= _XR_SCALE_UP
            prev *= _XR_SCALE_UP
            off -= _XR_SHIFT
        mans.append(prev)
        offs.append(off)
    exps = np.minimum(np.maximum(offs[::-1], -_XR_CLIP), _XR_CLIP).astype(np.int32)
    return np.ldexp(mans[::-1], exps)


def normalized_legendre_table(k: int, t) -> np.ndarray:
    """Table of N(k, m, t_i) for m = 0..k, vectorized over the points.

    Returns an array of shape ``(len(t), k + 1)``.  Runs the fixed-degree
    downward recurrence in m of ``normalized_assoc_legendre_row`` at every
    point at once: each point is seeded at the sectoral order in log space
    and carries its own extended-range exponent offset, so there is no cap
    on k and the cost is O(k * len(t)).
    """
    k = _degree(k)
    t_arr = _cosine(np.atleast_1d(np.asarray(t, dtype=float)).ravel())
    s = np.sqrt(np.maximum(0.0, 1.0 - t_arr * t_arr))
    inner = s > 0.0
    if inner.all():
        return _downward_orders(k, t_arr, s).T
    # Poles: only m == 0 survives, with P_k(+-1) = (+-1)^k.
    out = np.zeros((k + 1, t_arr.size))
    out[:, inner] = _downward_orders(k, t_arr[inner], s[inner])
    out[0, ~inner] = np.sign(t_arr[~inner]) ** k * zonal_sup_coefficient(k)
    return out.T


def _downward_orders(k: int, t, s) -> np.ndarray:
    """N(k, m, t_i) for m = 0..k at points with s = sin(phi) > 0, shape (k + 1, len(t)).

    The arithmetic per point is that of ``normalized_assoc_legendre_row``.
    """
    log2_seed = (_sectoral_log(k) + k * np.log(s)) * _LOG2E
    off_f = np.floor(log2_seed)
    prev = (-1.0) ** k * np.exp2(log2_seed - off_f)
    off = off_f.astype(np.int64)
    exp = np.clip(off, -_XR_CLIP, _XR_CLIP).astype(np.int32)
    out = np.empty((k + 1, t.size))
    out[k] = np.ldexp(prev, exp)
    t_over_s = t / s
    above = np.zeros_like(t)
    for m in range(k, 0, -1):
        denom = np.sqrt((k + m) * (k - m + 1.0))
        val = -(np.sqrt((k + m + 1.0) * (k - m)) * above + 2.0 * m * t_over_s * prev) / denom
        above, prev = prev, val
        big = np.maximum(np.abs(above), np.abs(prev))
        if big.max(initial=0.0) > _XR_LIMIT or big.min(initial=1.0) < _XR_TINY:
            hi = big > _XR_LIMIT
            lo = (big > 0.0) & (big < _XR_TINY)
            if hi.any() or lo.any():
                scale = np.where(hi, _XR_SCALE_DOWN, np.where(lo, _XR_SCALE_UP, 1.0))
                above = above * scale
                prev = prev * scale
                off = off + np.where(hi, _XR_SHIFT, 0) - np.where(lo, _XR_SHIFT, 0)
                exp = np.clip(off, -_XR_CLIP, _XR_CLIP).astype(np.int32)
        out[m - 1] = np.ldexp(prev, exp)
    return out


_UPWARD_MAX_DEGREE = 1024


def _upward_degree_table(k: int, t) -> np.ndarray:
    """N(k, m, t_i) for m = 0..k by the plain upward sweep in degree, shape (len(t), k + 1).

    A second algorithm for cross-checks only: O(k^2 * len(t)), without
    extended-range bookkeeping, so it is limited to k <= 1024.
    """
    k = _degree(k)
    if k > _UPWARD_MAX_DEGREE:
        raise ValueError(f"the upward degree sweep supports k <= {_UPWARD_MAX_DEGREE}")
    t_arr = _cosine(np.atleast_1d(np.asarray(t, dtype=float)))
    s = np.sqrt(np.maximum(0.0, 1.0 - t_arr * t_arr))
    # Degree-major buffers, so each degree's orders are contiguous rows.
    prev = np.zeros((k + 1, t_arr.size))
    cur = np.zeros((k + 1, t_arr.size))
    nxt = np.zeros((k + 1, t_arr.size))
    cur[0] = 1.0 / np.sqrt(4.0 * np.pi)
    for n in range(1, k + 1):
        # The reused buffer holds degree n - 3, whose nonzero orders are
        # all rewritten here.
        if n >= 2:
            m = np.arange(0, n - 1)
            up, down = n + m, n - m
            width = down * up
            a = np.sqrt((2 * n - 1.0) * (2 * n + 1.0) / width)
            b = np.sqrt((2 * n + 1.0) * (up - 1.0) * (down - 1.0) / (width * (2.0 * n - 3.0)))
            # a t cur - b prev in place; prev's head is spent after this.
            head = nxt[: n - 1]
            np.multiply(a[:, None], t_arr, out=head)
            head *= cur[: n - 1]
            spent = prev[: n - 1]
            spent *= b[:, None]
            head -= spent
        np.multiply(t_arr, math.sqrt(2.0 * n + 1.0), out=nxt[n - 1])
        nxt[n - 1] *= cur[n - 1]
        np.multiply(s, -math.sqrt((2.0 * n + 1.0) / (2.0 * n)), out=nxt[n])
        nxt[n] *= cur[n - 1]
        prev, cur, nxt = cur, nxt, prev
    # A C-ordered point-major copy: callers' sums over its rows depend on the layout.
    return cur.T.copy()
