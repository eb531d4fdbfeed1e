"""Dense symmetric Dicke Hamiltonian in one parity sector of the displaced-shell
basis, built from the sector's m-ladder (which the Peres expectations read too).

The construction rewrites

    H = omega A^dag A - (4 gamma^2 / (omega N_atoms)) Jx^2 + omega0 Jz,

with A = a + G Jx and G = 2 gamma / (omega sqrt(N_atoms)): diagonal in the
displaced shells, with the Jz term laddering m by one and picking up a
displaced-oscillator overlap between adjacent shells.  SectorLadder holds
that ladder for the builder and for <Jz>, so both use one sign convention.
A sector whose H holds a non-finite entry, or a largest |entry| LAPACK would
rescale, is refused when H is built, by the check every SymmetricMatrix runs.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import algebra
from .basis import BasisIndex, BasisSpec, basis_size, blocks, enumerate_basis, sector_twist
from .errors import CapacityError, ConfigError

# Default memory budget (bytes) of one sector: the builder refuses a sector
# whose footprint_bytes exceed it.
MEMORY_BUDGET_BYTES = 4 * 2**30

# A sector's peak memory above the interpreter's, in 8-byte words: while
# dstedc runs, FOOTPRINT_MATRICES dense matrices of its dimension (H's buffer,
# dstedc's n^2 + 4n + 1 workspace, the half-size copy of the reflectors and
# what the allocator keeps), plus the ladder's (n_max + 1)^2 displacement
# matrix W, whose build holds one array of W's size.  One lattice
# sector (2 gamma_c, three Peres operators, dim 2401-3301) peaked at most
# 2.71 dense matrices above W, at N = 1, 2, 4 and 40 on 1 and 2 BLAS threads
# (2.55-2.56 at N = 40, 2.71 at N = 2); the constant stays at least 0.1
# above every one.
FOOTPRINT_MATRICES = 2.85

# Side of the square tiles in which H is compared with its transpose and
# its largest |entry| is found: a tile pair stays in cache, and no dim x dim
# temporary forms.
_SYMMETRY_TILE = 256


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the model: field frequency, level splitting, coupling, spin length."""

    omega: float
    omega0: float
    gamma: float
    j: float

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError("omega must be finite and > 0")
        if not 0 <= self.omega0 < math.inf:
            raise ValueError("omega0 must be finite and >= 0")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 0")
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
    """Dense real symmetric operator with its basis provenance.  refill(buf)
    writes the operator's exact bits into the square buffer buf, every entry
    of it: solver.eigh solves in data's own buffer and writes H back with it.
    Construction raises ValueError unless data is exactly symmetric, finite
    and needs no LAPACK rescaling (_check_entries): eigh trusts the type."""

    data: np.ndarray
    basis: BasisSpec | None
    refill: Callable[[np.ndarray], None]

    def __post_init__(self):
        d = self.data
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("matrix must be square")
        _check_entries(d)

    @property
    def dim(self):
        return self.data.shape[0]


def _check_entries(d):
    """Raise ValueError unless np.array_equal(d, d.T), every entry is finite
    and the largest |entry| is 0 or within [2**-485, 2**485], where dsyevd
    does not rescale (nor do the stages solver.eigh runs), in one pass over
    the tile pairs d[I, J], d[J, I].T of the upper triangle; a NaN fails as
    not symmetric.  Once the pairs agree, the upper tiles hold every value,
    so their max and -min give the largest |entry|."""
    dim = d.shape[0]
    largest = 0.0
    for start in range(0, dim, _SYMMETRY_TILE):
        rows = slice(start, start + _SYMMETRY_TILE)
        for col_start in range(start, dim, _SYMMETRY_TILE):
            cols = slice(col_start, col_start + _SYMMETRY_TILE)
            upper = d[rows, cols]
            if not np.array_equal(upper, d[cols, rows].T):
                raise ValueError("matrix entries are not exactly symmetric, or hold a NaN")
            largest = max(largest, upper.max(), -upper.min())
    if largest == math.inf:
        raise ValueError("matrix contains non-finite entries")
    if not (largest == 0.0 or 2.0**-485 <= largest <= 2.0**485):
        raise ValueError(f"matrix's largest |entry| is {largest:g}, outside "
                         "[2**-485, 2**485], in which LAPACK does not rescale a matrix")


def footprint_bytes(spec: BasisSpec):
    """Bytes the sector of `spec` is charged against the memory budget: the
    solve's FOOTPRINT_MATRICES dense matrices and W."""
    dim, shells = basis_size(spec), spec.n_max + 1
    return round(8 * (FOOTPRINT_MATRICES * dim * dim + shells * shells))


def _size_text(n_bytes):
    """A byte count in the largest binary unit it holds at least one of:
    "1 B", "21.4 KiB"."""
    if n_bytes < 1024:
        return f"{n_bytes:.0f} B"
    for unit in ("KiB", "MiB", "GiB", "TiB"):
        n_bytes /= 1024
        if n_bytes < 1024 or unit == "TiB":
            return f"{n_bytes:.1f} {unit}"


def check_capacity(spec: BasisSpec, budget):
    """Raise CapacityError if the sector of `spec` would be charged more than
    `budget` bytes; its dimension is counted without enumerating a label."""
    dim = basis_size(spec)
    need = footprint_bytes(spec)
    if need > budget:
        raise CapacityError(
            f"dim-{dim} sector is charged {_size_text(need)} "
            f"({need / (8 * dim * dim):.2f} x its {_size_text(8 * dim * dim)} dense "
            f"matrix, the sector's peak), budget is {_size_text(budget)}"
        )


# ---------------------------------------------------------------------------
# the m-ladder of one sector

@dataclass(frozen=True)
class SectorLadder:
    """One sector's labels, the displacement matrix W over its shells and the
    pieces of Jz: each pair (c, lo, hi, block) of adjacent m blocks holds
    c * block at rows lo, columns hi, block being the view of W that couples
    their shells; at half-integer j, self_block (c, sl, signs) is
    c * W * signs[None, :] at the m = 1/2 block."""

    params: ModelParams
    index: BasisIndex
    w: np.ndarray
    pairs: tuple
    self_block: tuple | None


def sector_ladder(
    params: ModelParams, n_max: int, sector: int, mem_budget_bytes=MEMORY_BUDGET_BYTES
) -> SectorLadder:
    """The m-ladder of one parity sector.  Raises CapacityError, before any
    label is enumerated, if the sector's footprint_bytes would exceed
    `mem_budget_bytes`.  A coupling too strong for W leaves inf or NaN in
    it; each entry the ladder reads enters H as c omega0 W (NaN at omega0 =
    0), so build_sector refuses the sector."""
    spec = BasisSpec(params.j, n_max, sector)
    check_capacity(spec, mem_budget_bytes)
    index = enumerate_basis(spec)
    j = params.j
    w = algebra.displacement_matrix(n_max, params.g_disp)
    layout = [(m, rows, slice(s.start, s.stop, s.step)) for m, rows, s in blocks(spec)]
    pairs = []
    for (m, lo, shells_lo), (_, hi, shells_hi) in zip(layout, layout[1:]):
        c = 0.5 * algebra.ladder_coeff(j, m, +1)
        if m == 0.0:
            c *= math.sqrt(2.0)  # self-paired m=0 against the sqrt(2)-normalized pair
        # rows: lower-m block, cols: upper: <N1|D(-G)|N2> = W[N2, N1]
        pairs.append((c, lo, hi, w[shells_hi, shells_lo].T))
    self_block = None
    if layout[0][0] == 0.5:
        # half-integer j: the m=1/2 pair couples to itself through its mirror
        signs = np.where(np.arange(n_max + 1) % 2 == 0, 1.0, -1.0) * sector * sector_twist(j)
        self_block = (0.5 * math.sqrt(j * (j + 1) + 0.25), layout[0][1], signs)
    return SectorLadder(params, index, w, tuple(pairs), self_block)


# ---------------------------------------------------------------------------
# builder

def _fill(ladder: SectorLadder, mat):
    """Write the sector's H, its diagonal plus omega0 Jz, over every entry of
    the square float64 `mat`, each block in place, in one order of
    operations: every call writes the same bits."""
    params, index, w = ladder.params, ladder.index, ladder.w
    mat.fill(0.0)
    for c, lo, hi, block in ladder.pairs:
        upper = np.multiply(block, c, out=mat[lo, hi])
        upper *= params.omega0
        mat[hi, lo] = upper.T
    if ladder.self_block is not None:
        c, sl, signs = ladder.self_block
        # signs are +-1, so scaling c W by signs * omega0 keeps omega0 (c W signs)'s bits
        own = np.multiply(w, c, out=mat[sl, sl])
        own *= signs * params.omega0
    quad = 4.0 * np.float64(params.gamma) ** 2 / (params.omega * params.n_atoms)
    mat[np.diag_indices(index.size)] += params.omega * index.n_exc - quad * index.m_vals**2


def build_sector(ladder: SectorLadder) -> SymmetricMatrix:
    """Dense Dicke Hamiltonian of the sector, its diagonal plus omega0 Jz.  The
    two sectors' spectra together are the full displaced-basis spectrum.  Its
    refill is the fill that built it, bound to the ladder.  Raises
    ConfigError if the couplings give H an entry that is not finite or a
    largest |entry| LAPACK would rescale: SymmetricMatrix's check refuses it."""
    params = ladder.params
    mat = np.empty((ladder.index.size,) * 2)
    with np.errstate(over="ignore", invalid="ignore"):  # the check refuses what they flag
        _fill(ladder, mat)
    try:
        return SymmetricMatrix(mat, ladder.index.spec, partial(_fill, ladder))
    except ValueError as exc:
        raise ConfigError(
            f"gamma={params.gamma:g}, omega={params.omega:g} and omega0={params.omega0:g} "
            f"give n_max={ladder.index.spec.n_max} a Hamiltonian that cannot be solved: {exc}"
        ) from exc


def build_coherent_parity(params: ModelParams, n_max: int, sector: int) -> SymmetricMatrix:
    """build_sector of the sector's ladder in one call, at the default budget."""
    return build_sector(sector_ladder(params, n_max, sector))
