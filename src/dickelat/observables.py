"""Peres-operator matrices, per-eigenstate expectation values, parity labels
and the top-shell truncation-error certificate."""

from dataclasses import dataclass

import numpy as np

from . import hamiltonian as ham
from .basis import BasisIndex
from .hamiltonian import ModelParams, SymmetricMatrix
from .solver import Spectrum, _row_envelopes

PERES_OPS = ("Jz", "Jx2", "photon_n")

_KERNELS = {"Jz": ham.op_jz, "Jx2": ham.op_jx2, "photon_n": ham.op_photon}


@dataclass
class ConvergenceReport:
    """Per-state top-shell probability weight and the count of leading states
    below tolerance."""

    delta_p: np.ndarray
    tolerance: float
    converged_count: int


def peres_matrix(op_kind: str, index: BasisIndex, params: ModelParams) -> SymmetricMatrix:
    """Matrix of a Peres operator in the given basis."""
    if op_kind == "Jx":
        raise ValueError("Jx connects states of different parity; not a usable Peres operator")
    if op_kind not in PERES_OPS:
        raise ValueError(f"unknown Peres operator {op_kind!r}")
    return SymmetricMatrix(_KERNELS[op_kind](index, params), index.spec)


def expectation(spectrum: Spectrum, op: SymmetricMatrix) -> np.ndarray:
    """<v_k| op |v_k> for every eigenstate k, accumulated over the row chunks
    of op and each chunk's nonzero column envelope."""
    if op.basis != spectrum.basis:
        raise ValueError("operator and spectrum live in different bases")
    if op.dim != spectrum.dim:
        raise ValueError("operator and spectrum dimensions differ")
    v = spectrum.vectors
    out = np.zeros(spectrum.dim)
    for rows, cols in _row_envelopes(op.data):
        out += np.einsum("ik,ik->k", v[rows], op.data[rows, cols] @ v[cols])
    return out


def parity_labels(spectrum: Spectrum):
    """Parity label +-1 per eigenstate: the sector label of the spectrum's
    basis, which every eigenstate of one parity sector carries."""
    return np.full(spectrum.dim, spectrum.basis.parity_sector, dtype=int)


def delta_p(spectrum: Spectrum, index: BasisIndex, tolerance=1e-12) -> ConvergenceReport:
    """Truncation-error bound per eigenstate: total probability weight in the
    top retained shell of this run.

    A run truncated at n_max certifies its states as if the production
    truncation were n_max - 1, so one diagonalization yields both spectrum
    and certificate.  converged_count is the largest K with states 0..K-1
    all below `tolerance`.
    """
    if index.size != spectrum.dim:
        raise ValueError("basis and spectrum dimensions differ")
    rows = index.rows_with_excitation(index.spec.n_max)
    dp = (spectrum.vectors[rows, :] ** 2).sum(axis=0)
    above = dp >= tolerance
    converged = int(above.argmax()) if above.any() else spectrum.dim
    return ConvergenceReport(dp, tolerance, converged)
