"""Exact diagonalization of the Dicke model in the parity sectors of the
displaced-shell basis, with per-state convergence certificates, Peres lattices
and chaos diagnostics."""

from .basis import BasisIndex, BasisSpec, enumerate_basis
from .hamiltonian import (
    ModelParams, SymmetricMatrix, build_coherent_parity, build_sector, sector_ladder
)
from .observables import ConvergenceReport, delta_p, peres_expectation
from .pipeline import RunConfig, run, sweep
from .solver import Spectrum, eigh

__all__ = [
    "BasisIndex",
    "BasisSpec",
    "ConvergenceReport",
    "ModelParams",
    "RunConfig",
    "Spectrum",
    "SymmetricMatrix",
    "build_coherent_parity",
    "build_sector",
    "delta_p",
    "eigh",
    "enumerate_basis",
    "peres_expectation",
    "run",
    "sector_ladder",
    "sweep",
]

__version__ = "0.1.0"
