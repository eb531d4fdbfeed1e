"""Pseudo-spin ladder coefficients and the displaced-oscillator overlap
matrix.

Everything here is a pure function of its arguments; all matrix elements are
real.  Factorial ratios are evaluated in log space so photon cutoffs of a few
hundred never overflow.
"""

import math

import numpy as np
from scipy.special import gammaln

# Laguerre recurrence values are renormalized past this magnitude so the
# upward recurrence stays finite for arbitrary degree/order.
_RESCALE_LIMIT = 1e250
_LOG_RESCALE = math.log(_RESCALE_LIMIT)


def ladder_coeff(j, m, direction):
    """sqrt(j(j+1) - m(m+direction)) for direction = +1 (raise) or -1 (lower)."""
    arg = j * (j + 1) - m * (m + direction)
    return math.sqrt(arg) if arg > 0 else 0.0


def displacement_matrix(n_top, delta):
    """Dense (n_top+1)^2 matrix W with W[r, c] = <r| exp(delta (a^dag - a)) |c>.

    For r >= c, W[r, c] = sqrt(c!/r!) delta^(r-c) e^(-delta^2/2) L_c^(r-c)(delta^2);
    the upper triangle follows from W[c, r] = (-1)^(r-c) W[r, c].

    The Laguerre recurrence runs upward in degree, vectorized over the order
    difference, with per-difference rescaling; each degree's values and log
    scale are kept, and the lower triangle is exponentiated in one pass.
    """
    size = n_top + 1
    if delta == 0.0:
        return np.eye(size)
    if not math.isfinite(delta):
        raise ValueError("displacement must be finite")
    x = delta * delta
    alphas = np.arange(size, dtype=float)
    # L_k^(a)(x) = lvals[k, a] * e^shifts[k, a]
    lvals = np.empty((size, size))
    shifts = np.zeros((size, size))
    prev = np.ones(size)
    cur = 1.0 + alphas - x
    shift = np.zeros(size)
    lvals[0] = prev
    if n_top >= 1:
        lvals[1] = cur
    for k in range(1, n_top):
        prev, cur = cur, ((2 * k + 1 + alphas - x) * cur - (k + alphas) * prev) / (k + 1)
        big = np.abs(cur) > _RESCALE_LIMIT
        if big.any():
            cur[big] /= _RESCALE_LIMIT
            prev[big] /= _RESCALE_LIMIT
            shift[big] += _LOG_RESCALE
        lvals[k + 1] = cur
        shifts[k + 1] = shift

    # entries (row, col) = (k + a, k) of the lower triangle
    k, a = np.nonzero(np.add.outer(alphas, alphas) <= n_top)
    rows = k + a
    lg = gammaln(alphas + 1.0)  # lg[k] = log k!
    lpref = 0.5 * (lg[k] - lg[rows]) + a * math.log(abs(delta)) - 0.5 * x
    l_ka = lvals[k, a]
    abs_l = np.abs(l_ka)
    with np.errstate(divide="ignore"):
        vals = np.sign(l_ka) * np.exp(lpref + np.log(abs_l) + shifts[k, a])
    vals[abs_l == 0.0] = 0.0
    flip = np.where(a % 2 == 0, 1.0, -1.0)
    if delta < 0:
        vals = vals * flip
    w = np.zeros((size, size))
    w[rows, k] = vals
    w[k, rows] = vals * flip
    if np.isnan(w).any():
        raise ArithmeticError(f"displacement matrix lost to NaN at delta={delta}")
    return w
