"""Dense symmetric Dicke Hamiltonian in one parity sector of the displaced-shell
basis, and the Peres-operator kernels in the same basis.

The construction rewrites

    H = omega A^dag A - (4 gamma^2 / (omega N_atoms)) Jx^2 + omega0 Jz,

with A = a + G Jx and G = 2 gamma / (omega sqrt(N_atoms)): diagonal in the
displaced shells, with the Jz term laddering m by one and picking up a
displaced-oscillator overlap between adjacent shells.  The same Jz / photon
kernels also serve as Peres-operator matrices, which keeps the ladder sign
convention consistent across the package.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .basis import BasisIndex, BasisSpec, enumerate_basis, sector_twist
from .errors import CapacityError

# Default memory budget (bytes) of one sector: the builder refuses a sector
# whose footprint_bytes exceed it.
MEMORY_BUDGET_BYTES = 4 * 2**30

# A sector's peak memory above the interpreter's, in dense matrices of its
# dimension: H, evd's 2n^2 workspace and H's saved envelopes while the solve
# runs in H's buffer.  One full lattice sector (N = 40, 2 gamma_c, three Peres
# operators, 2 BLAS threads) peaked at 3.33x at dim 2481 and 3.31x at 3301.
FOOTPRINT_MATRICES = 3.5

# Side of the square tiles in which the exact symmetry check compares H with
# its transpose: a tile pair stays in cache, and no dim x dim temporary forms.
_SYMMETRY_TILE = 256


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the model: field frequency, level splitting, coupling, spin length."""

    omega: float
    omega0: float
    gamma: float
    j: float

    def __post_init__(self):
        if not (self.omega > 0):
            raise ValueError("omega must be > 0")
        if self.omega0 < 0:
            raise ValueError("omega0 must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        twoj = 2.0 * self.j
        if twoj <= 0 or twoj != round(twoj):
            raise ValueError("j must be a positive (half-)integer")

    @property
    def n_atoms(self):
        return round(2 * self.j)

    @property
    def gamma_c(self):
        """Critical coupling sqrt(omega0 * omega) / 2."""
        return math.sqrt(self.omega0 * self.omega) / 2.0

    @property
    def g_disp(self):
        """Displacement scale G = 2 gamma / (omega sqrt(N_atoms))."""
        return 2.0 * self.gamma / (self.omega * math.sqrt(self.n_atoms))


@dataclass
class SymmetricMatrix:
    """Dense real symmetric operator with its basis provenance."""

    data: np.ndarray
    basis: BasisSpec | None

    def __post_init__(self):
        d = self.data
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("matrix must be square")
        if not _exactly_symmetric(d):
            raise ValueError("matrix entries are not exactly symmetric")
        if not np.isfinite(d).all():
            raise ValueError("matrix contains non-finite entries")

    @property
    def dim(self):
        return self.data.shape[0]


def _exactly_symmetric(d):
    """np.array_equal(d, d.T), compared one tile pair d[I, J], d[J, I].T at
    a time over the upper triangle; stops at the first tile that differs."""
    dim = d.shape[0]
    for start in range(0, dim, _SYMMETRY_TILE):
        rows = slice(start, start + _SYMMETRY_TILE)
        for col_start in range(start, dim, _SYMMETRY_TILE):
            cols = slice(col_start, col_start + _SYMMETRY_TILE)
            if not np.array_equal(d[rows, cols], d[cols, rows].T):
                return False
    return True


def footprint_bytes(dim):
    """Bytes a sector of dimension `dim` is charged against the memory
    budget: FOOTPRINT_MATRICES dense dim x dim matrices."""
    return round(FOOTPRINT_MATRICES * 8 * dim * dim)


def _check_capacity(dim, budget):
    need = footprint_bytes(dim)
    if need > budget:
        raise CapacityError(
            f"dim-{dim} sector is charged {need / 2**20:.1f} MiB "
            f"({FOOTPRINT_MATRICES:g} x its {8 * dim * dim / 2**20:.1f} MiB dense "
            f"matrix, the solve's measured peak), budget is {budget / 2**20:.1f} MiB"
        )


# ---------------------------------------------------------------------------
# operator kernels (shared by the builder and the Peres-operator matrices)

def op_jz(index: BasisIndex, params: ModelParams) -> np.ndarray:
    """Jz matrix in the parity sector described by `index`."""
    j = index.spec.j
    sector = index.spec.parity_sector
    s_eff = sector * sector_twist(j)
    w = algebra.displacement_matrix(index.spec.n_max, params.g_disp)
    mat = np.zeros((index.size, index.size))
    blocks = index.block_slices()
    for b in range(len(blocks) - 1):
        m, sl = blocks[b]
        _, sl_up = blocks[b + 1]
        c = 0.5 * algebra.ladder_coeff(j, m, +1)
        if m == 0.0:
            c *= math.sqrt(2.0)  # self-paired m=0 against the sqrt(2)-normalized pair
        n_lo = index.n_exc[sl]
        n_hi = index.n_exc[sl_up]
        # rows: lower-m block, cols: upper: <N1|D(-G)|N2> = W[N2, N1]
        blk = c * w[np.ix_(n_hi, n_lo)].T
        mat[sl, sl_up] = blk
        mat[sl_up, sl] = blk.T
    if blocks and blocks[0][0] == 0.5:
        # half-integer j: the m=1/2 pair couples to itself through its mirror
        m, sl = blocks[0]
        c = 0.5 * math.sqrt(j * (j + 1) + 0.25)
        n_list = index.n_exc[sl]
        signs = np.where(n_list % 2 == 0, 1.0, -1.0) * s_eff
        blk = c * w[np.ix_(n_list, n_list)] * signs[None, :]
        mat[sl, sl] = blk
    return mat


def op_photon(index: BasisIndex, params: ModelParams) -> np.ndarray:
    """Photon number a^dag a in the displaced shells described by `index`."""
    # a = A - G Jx: diagonal N + G^2 m^2 with a same-m ladder in N
    g = params.g_disp
    mat = np.diag(index.n_exc + (g * index.m_vals) ** 2)
    for _, sl in index.block_slices():
        n_list = index.n_exc[sl]
        m = index.m_vals[sl.start]
        base = sl.start
        for k in range(len(n_list) - 1):
            if n_list[k + 1] == n_list[k] + 1:
                val = -g * m * math.sqrt(n_list[k] + 1.0)
                mat[base + k + 1, base + k] = val
                mat[base + k, base + k + 1] = val
    return mat


def op_jx2(index: BasisIndex, params: ModelParams) -> np.ndarray:
    """Jx^2 matrix: diagonal m^2, since m is a Jx projection."""
    return np.diag(index.m_vals**2)


# ---------------------------------------------------------------------------
# builder

def build_coherent_parity(
    params: ModelParams, n_max: int, sector: int, mem_budget_bytes=MEMORY_BUDGET_BYTES
) -> SymmetricMatrix:
    """Dicke Hamiltonian restricted to one parity sector of the displaced basis.

    The union of the two sectors' spectra equals the full displaced-basis
    spectrum; at omega0 = 0 the matrix is diagonal.  Raises CapacityError if
    the sector's footprint_bytes would exceed `mem_budget_bytes`.
    """
    spec = BasisSpec(params.j, n_max, sector)
    index = enumerate_basis(spec)
    _check_capacity(index.size, mem_budget_bytes)
    mat = params.omega0 * op_jz(index, params)
    quad = 4.0 * params.gamma**2 / (params.omega * params.n_atoms)
    mat[np.diag_indices(index.size)] += params.omega * index.n_exc - quad * index.m_vals**2
    return SymmetricMatrix(mat, spec)
