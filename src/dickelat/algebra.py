"""Pseudo-spin projections and ladder coefficients, and the displaced-oscillator
overlap matrix.

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


def m_values(j):
    """All projections -j..j in ascending order (exact half-integer floats)."""
    twoj = round(2 * j)
    return np.array([(-twoj + 2 * k) / 2.0 for k in range(twoj + 1)])


def ladder_coeff(j, m, direction):
    """sqrt(j(j+1) - m(m+direction)) for direction = +1 (raise) or -1 (lower)."""
    arg = j * (j + 1) - m * (m + direction)
    return math.sqrt(arg) if arg > 0 else 0.0


def displacement_matrix(n_top, delta):
    """Dense (n_top+1)^2 matrix W with W[r, c] = <r| exp(delta (a^dag - a)) |c>.

    For r >= c, W[r, c] = sqrt(c!/r!) delta^(r-c) e^(-delta^2/2) L_c^(r-c)(delta^2);
    the upper triangle follows from W[c, r] = (-1)^(r-c) W[r, c].

    Filled diagonal-by-diagonal: for each order difference the Laguerre
    recurrence runs upward in degree, vectorized over the difference, with
    per-difference rescaling and a single exponentiation per entry.
    """
    size = n_top + 1
    if delta == 0.0:
        return np.eye(size)
    if not math.isfinite(delta):
        raise ValueError("displacement must be finite")
    x = delta * delta
    lg = gammaln(np.arange(size, dtype=float) + 1.0)  # lg[k] = log k!
    log_abs_delta = math.log(abs(delta))
    w = np.zeros((size, size))
    alphas = np.arange(size, dtype=float)

    def emit(k, lvals, shifts):
        # entries (row, col) = (k + a, k) for all order differences a
        amax = n_top - k
        a = np.arange(amax + 1)
        rows = k + a
        lpref = 0.5 * (lg[k] - lg[rows]) + a * log_abs_delta - 0.5 * x
        abs_l = np.abs(lvals[: amax + 1])
        with np.errstate(divide="ignore"):
            vals = np.sign(lvals[: amax + 1]) * np.exp(
                lpref + np.log(abs_l) + shifts[: amax + 1]
            )
        vals[abs_l == 0.0] = 0.0
        if delta < 0:
            vals = vals * np.where(a % 2 == 0, 1.0, -1.0)
        cols = np.full_like(rows, k)
        w[rows, cols] = vals
        w[cols, rows] = vals * np.where(a % 2 == 0, 1.0, -1.0)

    prev = np.ones(size)
    cur = 1.0 + alphas - x
    shifts = np.zeros(size)
    emit(0, prev, shifts)
    if n_top >= 1:
        emit(1, cur, shifts)
    for k in range(1, n_top):
        prev, cur = cur, ((2 * k + 1 + alphas - x) * cur - (k + alphas) * prev) / (k + 1)
        big = np.abs(cur) > _RESCALE_LIMIT
        if big.any():
            cur[big] /= _RESCALE_LIMIT
            prev[big] /= _RESCALE_LIMIT
            shifts[big] += _LOG_RESCALE
        emit(k + 1, cur, shifts)
    if np.isnan(w).any():
        raise ArithmeticError(f"displacement matrix lost to NaN at delta={delta}")
    return w
