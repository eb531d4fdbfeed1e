"""Peres-operator matrices, per-eigenstate expectation values, parity labels
and the top-shell truncation-error certificate."""

import logging
from dataclasses import dataclass

import numpy as np

from . import hamiltonian as ham
from .basis import BasisIndex, enumerate_basis, sector_twist
from .errors import ParityResolutionError
from .hamiltonian import ModelParams, SymmetricMatrix
from .solver import Spectrum, _row_envelopes

log = logging.getLogger(__name__)

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


def _degenerate_clusters(energies, gap):
    """Maximal runs of consecutive energies whose neighbouring gaps are < gap."""
    splits = np.nonzero(np.diff(energies) >= gap)[0] + 1
    return np.split(np.arange(energies.size), splits)


def parity_labels(spectrum: Spectrum, params: ModelParams, cluster_rel_gap=1e-9):
    """Parity label +-1 per eigenstate, for any basis kind.

    Fock: diagonal (-1)^(n+m+j).  Coherent: the shell-mirroring action
    (m -> -m with sign (-1)^(2j) (-1)^N).  Parity-adapted: the sector label.
    Inside (near-)degenerate clusters the solver returns arbitrary mixtures,
    so the parity is diagonalized within each cluster before labels are read
    off.  Raises ParityResolutionError when a state stays mixed afterwards.
    """
    if spectrum.basis is None:
        raise ValueError("spectrum has no basis provenance")
    kind = spectrum.basis.kind
    if kind == "coherent-parity":
        return np.full(spectrum.dim, spectrum.basis.parity_sector, dtype=int)
    index = enumerate_basis(spectrum.basis)
    if kind == "fock":
        pi_diag = np.where(
            (index.n_exc + np.round(index.m_vals + params.j).astype(int)) % 2 == 0, 1.0, -1.0
        )
        return _resolve_parity(spectrum, lambda b: pi_diag[:, None] * b, cluster_rel_gap)
    twist = sector_twist(spectrum.basis.j)
    perm = np.array(
        [index.index_of(n, -m) for n, m in zip(index.n_exc, index.m_vals)]
    )
    signs = np.where(index.n_exc % 2 == 0, 1.0, -1.0) * twist
    return _resolve_parity(
        spectrum, lambda b: signs[:, None] * b[perm, :], cluster_rel_gap
    )


def _resolve_parity(spectrum, apply_pi, cluster_rel_gap):
    h_frob = spectrum.residual_report.h_frobenius
    gap = cluster_rel_gap * h_frob
    v = spectrum.vectors
    raw = (v * apply_pi(v)).sum(axis=0)
    for cluster in _degenerate_clusters(spectrum.energies, gap):
        if cluster.size < 2:
            continue
        block = v[:, cluster]
        small = block.T @ apply_pi(block)
        small = 0.5 * (small + small.T)
        vals = np.linalg.eigvalsh(small)
        raw[cluster] = vals
    dev = np.abs(np.abs(raw) - 1.0).max() if raw.size else 0.0
    log.debug("parity labels: max |<Pi>| deviation from 1 is %.3e", dev)
    if dev > 1e-6:
        k = int(np.abs(np.abs(raw) - 1.0).argmax())
        raise ParityResolutionError(
            f"state {k} has <Pi> = {raw[k]:.8f}, not within 1e-6 of +-1"
        )
    labels = np.where(raw >= 0, 1, -1).astype(int)
    return labels


def delta_p(spectrum: Spectrum, index: BasisIndex, tolerance=1e-12) -> ConvergenceReport:
    """Truncation-error bound per eigenstate: total probability weight in the
    top retained shell of this run.

    A run truncated at n_max certifies its states as if the production
    truncation were n_max - 1, so one diagonalization yields both spectrum
    and certificate.  converged_count is the largest K with states 0..K-1
    all below `tolerance`.
    """
    if index.spec.kind not in ("coherent", "coherent-parity"):
        raise ValueError("the top-shell certificate needs a displaced-shell basis")
    if index.size != spectrum.dim:
        raise ValueError("basis and spectrum dimensions differ")
    rows = index.rows_with_excitation(index.spec.n_max)
    dp = (spectrum.vectors[rows, :] ** 2).sum(axis=0)
    above = dp >= tolerance
    converged = int(above.argmax()) if above.any() else spectrum.dim
    return ConvergenceReport(dp, tolerance, converged)
