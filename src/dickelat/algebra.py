"""Pseudo-spin ladder coefficients and the displaced-oscillator overlap
matrix.

Everything here is a pure function of its arguments; all matrix elements are
real.  Factorial ratios are evaluated in log space so photon cutoffs of a few
hundred never overflow.

log k! is Cephes' `lgam` (Moshier's Cephes library, the routine behind
SciPy's `gammaln`) at x = k + 1, ported with its constants and operation
order, so every log-factorial, and so W, keeps `gammaln`'s bits while a run
imports no SciPy special functions.  It takes `math.log`, the C library's log
that `lgam` calls, and not `np.log`, whose own log differs from it in the last
bit at some arguments.
"""

import math

import numpy as np

# Laguerre recurrence values are renormalized past this magnitude so the
# upward recurrence stays finite for arbitrary degree/order.
_RESCALE_LIMIT = 1e250
_LOG_RESCALE = math.log(_RESCALE_LIMIT)

# Cephes lgam: Stirling-series coefficients in 1/x^2 and log(sqrt(2 pi)).
_LGAM_SERIES = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LOG_SQRT_2PI = 0.91893853320467274178


def _log_factorial(k):
    """log k! for k >= 0, bit for bit SciPy's gammaln(k + 1.0): Cephes' lgam
    at x = k + 1 in its own operation order."""
    x = k + 1.0
    if x < 13.0:
        # (x - 1)! as an exact product, then one log
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        return math.log(z)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    s = _LGAM_SERIES[0]
    for c in _LGAM_SERIES[1:]:  # Horner, as Cephes' polevl
        s = s * p + c
    return q + s / x


def ladder_coeff(j, m, direction):
    """sqrt(j(j+1) - m(m+direction)) for direction = +1 (raise) or -1 (lower)."""
    arg = j * (j + 1) - m * (m + direction)
    return math.sqrt(arg) if arg > 0 else 0.0


def displacement_matrix(n_top, delta):
    """Dense (n_top+1)^2 matrix W with W[r, c] = <r| exp(delta (a^dag - a)) |c>.

    For r >= c, W[r, c] = sqrt(c!/r!) delta^(r-c) e^(-delta^2/2) L_c^(r-c)(delta^2);
    the upper triangle follows from W[c, r] = (-1)^(r-c) W[r, c].

    The Laguerre recurrence runs upward in degree, vectorized over the order
    difference, with per-difference rescaling.  Degree c is column c of the
    lower triangle: it is exponentiated and written, with its mirror row, as
    soon as it is computed, so the build holds one array of W's size.  A
    delta too large for the recurrence (delta^2 or an intermediate overflows,
    delta = inf included) leaves inf or NaN entries in W, with no numpy
    warning; whoever reads them decides what they mean.
    """
    size = n_top + 1
    if delta == 0.0:
        return np.eye(size)
    x = delta * delta
    alphas = np.arange(size, dtype=float)
    lg = np.array([_log_factorial(k) for k in range(size)])  # lg[k] = log k!
    odd = np.arange(size) % 2 == 1
    w = np.empty((size, size))
    # L_c^(d)(x) = cur[d] * e^shift[d] at degree c
    prev, cur = None, np.ones(size)
    shift = np.zeros(size)
    with np.errstate(all="ignore"):
        d_log_delta = np.arange(size) * math.log(abs(delta))
        for c in range(size):
            if c == 1:
                prev, cur = cur, 1.0 + alphas - x
            elif c > 1:
                prev, cur = cur, ((2 * c - 1 + alphas - x) * cur - (c - 1 + alphas) * prev) / c
                big = np.abs(cur) > _RESCALE_LIMIT
                if big.any():
                    cur[big] /= _RESCALE_LIMIT
                    prev[big] /= _RESCALE_LIMIT
                    shift[big] += _LOG_RESCALE
            # W[c + d, c] for the order differences d = 0..n_top - c
            m = size - c
            lpref = 0.5 * (lg[c] - lg[c:]) + d_log_delta[:m] - 0.5 * x
            abs_l = np.abs(cur[:m])
            vals = np.sign(cur[:m]) * np.exp(lpref + np.log(abs_l) + shift[:m])
            vals[abs_l == 0.0] = 0.0
            if delta < 0:
                np.negative(vals, out=vals, where=odd[:m])
            w[c:, c] = vals
            np.negative(vals, out=vals, where=odd[:m])
            w[c, c:] = vals
    return w
