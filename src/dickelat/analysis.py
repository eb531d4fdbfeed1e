"""Spectral diagnostics on plain arrays: density of states, the slope-change
(ESQPT) markers of a Jz Peres lattice and the mean consecutive-gap ratio of
raw levels, which needs no unfolding."""

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InsufficientDataError

# E/j bin width of the DoS and the markers of every run.
BIN_WIDTH = 0.05

# A level this many bin widths or fewer below a grid edge is binned above it.
# Degenerate levels on an edge then land together whatever their rounding.
_EDGE_TOL = 1e-9

# A grid reaches at most this many bins either side of E/j = 0: 50,000 at
# BIN_WIDTH, past the ground state of any coupling below about 300 gamma_c.
_GRID_REACH = 10**6

# Slope-change markers: the E/j window searched, the least distance between
# the two markers, and the energy scale the binned curve is averaged over.
_MARKER_WINDOW = (-2.0, 2.0)
_MARKER_MIN_SEPARATION = 0.5
_CURVATURE_SCALE = 0.25
# A level at most this far above the one before it is degenerate with it.
_DEGENERATE_GAP = 1e-10


@dataclass
class EsqptMarkers:
    """E/j positions of the two slope changes of a binned Jz lattice: the
    lower (coupling-dependent) one and the upper (saturation) one."""

    static_marker: float
    dynamic_marker: float


def _grid_bins(x, width):
    """(edges, bin of each value) on the grid of multiples of `width` that
    spans the non-empty `x`.  A value less than _EDGE_TOL bin widths below an
    edge goes to the bin above it.  Raises CapacityError, before the grid is
    allocated, if it would reach more than _GRID_REACH bins from 0."""
    k = np.floor(x / width + _EDGE_TOL)
    first, last = k.min(), k.max()
    if not (-_GRID_REACH <= first and last < _GRID_REACH):
        raise CapacityError(
            f"E/j spans {x.min():g} to {x.max():g}, {last - first + 1:.4g} bins of {width:g}: "
            f"a grid reaches at most {_GRID_REACH * width:g} either side of 0"
        )
    first = int(first)
    return width * np.arange(first, int(last) + 2), k.astype(int) - first


def density_of_states(energies, j):
    """Histogram of E/j on a grid anchored at multiples of BIN_WIDTH.
    Returns (edges, counts); empty input gives empty arrays."""
    e = np.asarray(energies, dtype=float) / j
    if e.size == 0:
        return np.array([]), np.array([], dtype=int)
    edges, which = _grid_bins(e, BIN_WIDTH)
    return edges, np.bincount(which, minlength=edges.size - 1)


def esqpt_markers(energy_over_j, jz, bin_width=BIN_WIDTH) -> EsqptMarkers:
    """Locate the two slope changes of the bin-averaged Jz Peres lattice, the
    points (energy_over_j[k], jz[k]), inside _MARKER_WINDOW.

    The points are binned at `bin_width`; the binned curve is averaged over a
    fixed energy scale _CURVATURE_SCALE (count-weighted, so scatter inside
    the chaotic region averages out) and its two largest-magnitude second
    differences at that lag give the marker positions, constrained to sit at
    least _MARKER_MIN_SEPARATION apart so both flanks of one kink are not
    reported twice.  Marker positions resolve at bin-width level while the
    curvature estimate lives on the fixed physical scale, which keeps the
    markers stable when the bin width is halved.  The smaller position is the dynamic
    marker, the larger the static one.
    """
    lo, hi = _MARKER_WINDOW
    inside = (energy_over_j >= lo) & (energy_over_j <= hi)
    e = energy_over_j[inside]
    y = jz[inside]
    if e.size == 0:
        raise InsufficientDataError("no lattice points inside the marker window")
    edges, which = _grid_bins(e, bin_width)
    n_bins = edges.size - 1
    counts = np.bincount(which, minlength=n_bins).astype(float)
    sums = np.bincount(which, weights=y, minlength=n_bins)
    if np.count_nonzero(counts) < 5:
        raise InsufficientDataError(
            f"only {np.count_nonzero(counts)} populated bins; need at least 5"
        )
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = max(0, round(_CURVATURE_SCALE / (2 * bin_width)))
    lag = max(1, round(_CURVATURE_SCALE / bin_width))
    box = np.ones(2 * half + 1)
    sum_s = np.convolve(sums, box, mode="same")
    cnt_s = np.convolve(counts, box, mode="same")
    valid = cnt_s > 0
    smooth = np.divide(sum_s, cnt_s, out=np.zeros_like(sum_s), where=valid)
    d2 = np.full(n_bins, np.nan)
    for i in range(lag, n_bins - lag):
        if valid[i] and valid[i - lag] and valid[i + lag]:
            d2[i] = smooth[i + lag] - 2 * smooth[i] + smooth[i - lag]
    mag = np.where(np.isnan(d2), -1.0, np.abs(d2))
    if (mag >= 0).sum() < 2:
        raise InsufficientDataError("too few bins with a full curvature stencil")
    order = np.argsort(mag, kind="stable")[::-1]
    first = order[0]
    second = None
    for idx in order[1:]:
        if mag[idx] < 0:
            break
        if abs(centers[idx] - centers[first]) >= _MARKER_MIN_SEPARATION:
            second = idx
            break
    if second is None:
        raise InsufficientDataError("no second slope change beyond the separation limit")
    pos = sorted((centers[first], centers[second]))
    return EsqptMarkers(static_marker=pos[1], dynamic_marker=pos[0])


def drop_degenerate(energies):
    """Collapse runs of levels spaced at most _DEGENERATE_GAP apart to a
    single representative level.

    Symmetry-driven degeneracies carry no dynamical information, so spacing
    statistics exclude them.
    """
    e = np.asarray(energies, dtype=float)
    if e.size == 0:
        return e
    keep = np.concatenate([[True], np.diff(e) > _DEGENERATE_GAP])
    return e[keep]


def mean_gap_ratio(energies):
    """Mean consecutive-gap ratio <min(s_i, s_i+1) / max(s_i, s_i+1)> of
    sorted levels (~0.386 for uncorrelated levels, ~0.53 under level
    repulsion).  The local level density cancels from each ratio, so raw
    levels need no unfolding (Oganesyan and Huse, PRB 75, 155111 (2007);
    Atas et al., PRL 110, 084101 (2013))."""
    s = np.diff(np.asarray(energies, dtype=float))
    if s.size < 2:
        raise ValueError("need at least three levels")
    lo = np.minimum(s[:-1], s[1:])
    hi = np.maximum(s[:-1], s[1:])
    ratios = np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 0.0)
    return float(ratios.mean())
