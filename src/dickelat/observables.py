"""Per-eigenstate Peres expectation values read from a sector's m-ladder,
the bounds each operator's expectations obey, and the top-shell
truncation-error certificate."""

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisIndex
from .hamiltonian import SectorLadder
from .solver import Spectrum

# Jx is not among them: it connects states of different parity, so every
# state of one sector has <Jx> = 0.
PERES_OPS = ("Jz", "Jx2", "photon_n")

# Top-shell weight below which a state is certified, in every run.
DP_TOLERANCE = 1e-12

# Relative slack of check_bounds, on the scale of the larger finite bound
# (at least 1), for the rounding of an expectation summed over the basis.
_BOUNDS_SLACK = 1e-9


@dataclass
class ConvergenceReport:
    """Per-state top-shell probability weight and the count of leading states
    below DP_TOLERANCE."""

    delta_p: np.ndarray
    converged_count: int


def peres_expectation(op_kind: str, spectrum: Spectrum, ladder: SectorLadder) -> np.ndarray:
    """<v_k| op |v_k> for every eigenstate k from the sector's m-ladder, with
    no operator matrix: Jz is 2 c <v[lo]| block |v[hi]> per pair plus the
    m = 1/2 self block, Jx^2 the diagonal m^2, and a^dag a =
    (A - G Jx)^dag (A - G Jx) the diagonal N + G^2 m^2 plus the same-m
    ladder -G m sqrt(N + 1) between shells N and N + 1."""
    if op_kind not in PERES_OPS:
        raise ValueError(f"unknown Peres operator {op_kind!r}")
    index = ladder.index
    if index.spec != spectrum.basis:
        raise ValueError("ladder and spectrum live in different bases")
    v = spectrum.vectors
    if op_kind == "Jx2":
        return np.einsum("i,ik,ik->k", index.m_vals**2, v, v)
    if op_kind == "photon_n":
        g = ladder.params.g_disp
        step = -g * index.m_vals[:-1] * np.sqrt(index.n_exc[:-1] + 1.0)
        # only consecutive labels of one m > 0 block are a shell step N -> N + 1
        step[np.diff(index.n_exc) != 1] = 0.0
        out = np.einsum("i,ik,ik->k", index.n_exc + (g * index.m_vals) ** 2, v, v)
        return out + 2.0 * np.einsum("i,ik,ik->k", step, v[:-1], v[1:])
    out = np.zeros(spectrum.dim)
    for c, lo, hi, block in ladder.pairs:
        out += 2.0 * c * np.einsum("ik,ik->k", v[lo], block @ v[hi])
    if ladder.self_block is not None:
        # <v| W S |v> = sum_j s_j v_j (W^T v)_j: one temporary of v[sl]'s size
        c, sl, signs = ladder.self_block
        out += c * np.einsum("j,jk,jk->k", signs, ladder.w.T @ v[sl], v[sl])
    return out


def check_bounds(op_kind: str, values: np.ndarray, j):
    """Raise ValueError if an expectation of `op_kind` leaves the operator's
    range at spin j: [-j, j] for Jz, [0, j^2] for Jx^2 and [0, inf) for
    a^dag a."""
    lo, hi = {"Jz": (-j, j), "Jx2": (0.0, j * j), "photon_n": (0.0, math.inf)}[op_kind]
    tol = _BOUNDS_SLACK * max(1.0, abs(lo), 1.0 if hi == math.inf else abs(hi))
    if values.size and (values.min() < lo - tol or values.max() > hi + tol):
        raise ValueError(
            f"{op_kind} expectation outside [{lo}, {hi}]: "
            f"range [{values.min()}, {values.max()}]"
        )


def delta_p(spectrum: Spectrum, index: BasisIndex) -> ConvergenceReport:
    """Truncation-error bound per eigenstate: total probability weight in the
    top retained shell of this run.

    A run truncated at n_max certifies its states as if the production
    truncation were n_max - 1, so one diagonalization yields both spectrum
    and certificate.  converged_count is the largest K with states 0..K-1
    all below DP_TOLERANCE.
    """
    if index.size != spectrum.dim:
        raise ValueError("basis and spectrum dimensions differ")
    dp = (spectrum.vectors[index.n_exc == index.spec.n_max, :] ** 2).sum(axis=0)
    above = dp >= DP_TOLERANCE
    converged = int(above.argmax()) if above.any() else spectrum.dim
    return ConvergenceReport(dp, converged)
