"""Independent oracle constructions used by the tests.

Everything here is deliberately built by a different route than the package:
matrix exponentials instead of Laguerre closed forms, explicit rational sums,
explicit change-of-basis matrices, and a full-space rotating-wave Hamiltonian
for the conserved-excitation blocks.

The package works in the parity sectors of the displaced-shell basis only.
The reference bases live here: the product Fock basis |n> x |j,m> (m a Jz
projection) and the full displaced-shell ("coherent") basis |N; j, m> (m a Jx
projection), each with its Hamiltonian and Peres operators, plus the
conserved-excitation blocks of the Tavis-Cummings limit.  Both enumerate
their own m-major (n, m) labels.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

from dickelat import algebra, solver
from dickelat.basis import BasisIndex, BasisSpec, blocks, sector_twist
from dickelat.hamiltonian import ModelParams, SymmetricMatrix

# mean consecutive-gap ratio of uncorrelated (Poisson) levels
POISSON_RATIO = 2.0 * math.log(2.0) - 1.0  # ~0.38629


def symmetric_matrix(data, basis):
    """SymmetricMatrix of the array `data` whose refill writes back a copy of
    data kept here: a test matrix has no ladder to be rebuilt from."""
    kept = data.copy()
    return SymmetricMatrix(data, basis, lambda buf: np.copyto(buf, kept))


def envelope_words_bound(spec: BasisSpec):
    """An upper bound on the entries of a sector H's row envelopes, the spans
    over which the solver's audit multiplies it, from the m-block layout
    alone: the rows of a chunk of solver._ROW_CHUNK reach only their own m
    blocks and the blocks at m +- 1."""
    layout = [rows for _, rows, _ in blocks(spec)]
    starts = [rows.start for rows in layout]  # an empty block shares its successor's
    dim, words = layout[-1].stop, 0
    for lo in range(0, dim, solver._ROW_CHUNK):
        hi = min(lo + solver._ROW_CHUNK, dim)
        first, last = (bisect_right(starts, row) - 1 for row in (lo, hi - 1))
        span = layout[min(last + 1, len(layout) - 1)].stop - layout[max(first - 1, 0)].start
        words += (hi - lo) * span
    return words


def m_values(j):
    """All projections -j..j in ascending order (exact half-integer floats)."""
    twoj = round(2 * j)
    return np.array([(-twoj + 2 * k) / 2.0 for k in range(twoj + 1)])


def enumerate_labels(spec):
    """(n_exc, m_vals) of a parity sector's labels, listed one by one: every
    m >= 0 in ascending order and, per m, N = 0..n_max ascending, an m = 0
    label kept only when (-1)^N is the sector label times sector_twist(j).
    The arrays take the dtypes BasisIndex gives them."""
    target = spec.parity_sector * sector_twist(spec.j)
    ns, ms = [], []
    for m in m_values(spec.j):
        if m < 0:
            continue
        for n in range(spec.n_max + 1):
            if m == 0.0 and (1 if n % 2 == 0 else -1) != target:
                continue
            ns.append(n)
            ms.append(m)
    return np.asarray(ns, dtype=int), np.asarray(ms, dtype=float)


def label_of(index: BasisIndex, i):
    """The (n, m) label at position i of a basis."""
    return int(index.n_exc[i]), float(index.m_vals[i])


def index_of(index: BasisIndex, n, m):
    """Position of the label (n, m) in a basis; KeyError when it is absent."""
    hits = np.flatnonzero((index.n_exc == n) & (np.rint(2 * index.m_vals) == round(2 * m)))
    if hits.size == 0:
        raise KeyError(f"label (n={n}, m={m}) not in basis")
    return int(hits[0])


def boson_ops(cutoff):
    adag = np.diag(np.sqrt(np.arange(1, cutoff + 1)), -1)
    return adag.T, adag


def displacement_expm(delta, cutoff=200):
    """exp(delta (a^dag - a)) by dense matrix exponential at the given cutoff."""
    a, adag = boson_ops(cutoff)
    return expm(delta * (adag - a))


def displacement_by_diagonal(n_top, delta):
    """Dense (n_top+1)^2 matrix W with W[r, c] = <r| exp(delta (a^dag - a)) |c>.

    For r >= c, W[r, c] = sqrt(c!/r!) delta^(r-c) e^(-delta^2/2) L_c^(r-c)(delta^2);
    the upper triangle follows from W[c, r] = (-1)^(r-c) W[r, c].

    Filled one degree at a time as the Laguerre recurrence runs upward in
    degree, vectorized over the order difference, with per-difference
    rescaling.  The package's displacement_matrix does the same arithmetic,
    writing each degree's column and row through slices, and must match it
    bit for bit.
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
        big = np.abs(cur) > algebra._RESCALE_LIMIT
        if big.any():
            cur[big] /= algebra._RESCALE_LIMIT
            prev[big] /= algebra._RESCALE_LIMIT
            shifts[big] += algebra._LOG_RESCALE
        emit(k + 1, cur, shifts)
    if np.isnan(w).any():
        raise ArithmeticError(f"displacement matrix lost to NaN at delta={delta}")
    return w


def displacement_vectorized(n_top, delta):
    """Dense (n_top+1)^2 matrix W with W[r, c] = <r| exp(delta (a^dag - a)) |c>,
    as displacement_by_diagonal, but with the whole lower triangle
    exponentiated in one pass once the Laguerre recurrence has run.  The
    package's build must keep every bit of this one.  It holds about 7.5
    arrays of W's size."""
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
        big = np.abs(cur) > algebra._RESCALE_LIMIT
        if big.any():
            cur[big] /= algebra._RESCALE_LIMIT
            prev[big] /= algebra._RESCALE_LIMIT
            shift[big] += algebra._LOG_RESCALE
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
    if not np.isfinite(w).all():
        raise ArithmeticError(f"displacement matrix overflows at delta={delta:g}")
    return w


def laguerre_rational(n, alpha, x_frac: Fraction):
    """L_n^(alpha) at a rational point by the exact alternating finite sum."""
    total = Fraction(0)
    for k in range(n + 1):
        total += (
            (-1) ** k
            * Fraction(math.comb(n + alpha, n - k))
            * x_frac**k
            / Fraction(math.factorial(k))
        )
    return total


def x_eigenbasis(j):
    """Columns: Jx eigenstates (eigenvalue ascending), phased so the Jz matrix
    in that basis has positive ladder elements."""
    ms = m_values(j)
    _, w = np.linalg.eigh(jx_matrix(j))
    jz = np.diag(ms)
    for k in range(1, w.shape[1]):
        if w[:, k] @ jz @ w[:, k - 1] < 0:
            w[:, k] = -w[:, k]
    return w


def coherent_states_in_fock(params, n_max_coh, n_max_fock):
    """Matrix whose columns are the displaced-shell basis states |N; j, m>
    expressed in the Fock product basis (m-major ordering on both sides).

    Column order matches full_index for the coherent kind.
    """
    j = params.j
    g = params.g_disp
    w_spin = x_eigenbasis(j)
    ms = m_values(j)
    size_f = n_max_fock + 1
    index = full_index(FullBasis("coherent", j, n_max_coh))
    cols = np.empty((size_f * ms.size, index.size))
    disp = {}
    for mi, m in enumerate(ms):
        disp[mi] = displacement_expm(-g * m, cutoff=size_f - 1)
    for col in range(index.size):
        n, m = label_of(index, col)
        mi = round(m + j)
        cols[:, col] = np.kron(w_spin[:, mi], disp[mi][:, n])
    return cols


def fock_parity_diag(j, n_max):
    """(-1)^(n + m + j) over the Fock product basis, m-major ordering."""
    size = n_max + 1
    out = []
    for m in m_values(j):
        out.append(np.array([(-1.0) ** round(n + m + j) for n in range(size)]))
    return np.concatenate(out)


def tc_full_fock(params, n_max):
    """Rotating-wave Hamiltonian over the full Fock product basis: the
    diagonal plus (gamma/sqrt(N)) (a J+ + a^dag J-) couplings."""
    j = params.j
    ms = m_values(j)
    size = n_max + 1
    dim = size * ms.size
    h = np.zeros((dim, dim))
    ns = np.arange(size, dtype=float)
    gtc = params.gamma / math.sqrt(params.n_atoms)
    for bi, m in enumerate(ms):
        sl = slice(bi * size, (bi + 1) * size)
        h[sl, sl][np.diag_indices(size)] = params.omega * ns + params.omega0 * m
        if bi + 1 < ms.size:
            cp = math.sqrt(j * (j + 1) - m * (m + 1))
            blk = np.zeros((size, size))
            for n in range(1, size):
                # a J+ : |n, m> -> sqrt(n) cp |n-1, m+1>
                blk[n - 1, n] = gtc * math.sqrt(n) * cp
            h[(bi + 1) * size : (bi + 2) * size, sl] = blk
            h[sl, (bi + 1) * size : (bi + 2) * size] = blk.T
    return h


def lambda_diag(j, n_max):
    """Total excitation count n + j + m over the Fock product basis."""
    size = n_max + 1
    out = []
    for m in m_values(j):
        out.append(np.arange(size, dtype=float) + j + m)
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# pseudo-spin matrices in the Jz eigenbasis

def jx_matrix(j):
    """Jx in the Jz eigenbasis (rows/cols ordered by m ascending), tridiagonal."""
    ms = m_values(j)
    dim = ms.size
    mat = np.zeros((dim, dim))
    for k in range(dim - 1):
        c = 0.5 * algebra.ladder_coeff(j, ms[k], +1)
        mat[k + 1, k] = c
        mat[k, k + 1] = c
    return mat


def jx_squared(j):
    """Jx^2 by explicit matrix squaring of the tridiagonal Jx (pentadiagonal result)."""
    x = jx_matrix(j)
    sq = x @ x
    # mirror the lower triangle so the result is exactly symmetric
    low = np.tril(sq)
    return low + low.T - np.diag(np.diag(sq))


# ---------------------------------------------------------------------------
# the two reference bases: Fock and full displaced shells

@dataclass(frozen=True)
class FullBasis:
    """Provenance of a reference-basis matrix: "fock" or "coherent", spin
    length and photon/shell truncation.  Every m from -j to j appears."""

    kind: str
    j: float
    n_max: int


def full_index(basis: FullBasis) -> BasisIndex:
    """All (n, m) labels of a reference basis, m-major, excitation-minor."""
    ns, ms = [], []
    for m in m_values(basis.j):
        for n in range(basis.n_max + 1):
            ns.append(n)
            ms.append(m)
    return BasisIndex(basis, ns, ms)


def block_slices(index: BasisIndex):
    """(m, slice) for each contiguous run of one m in the index, ascending in
    m, found by scanning the labels one by one."""
    out = []
    start = 0
    for i in range(1, index.size + 1):
        if i == index.size or index.m_vals[i] != index.m_vals[start]:
            out.append((float(index.m_vals[start]), slice(start, i)))
            start = i
    return out


def build_fock(params: ModelParams, n_max: int) -> SymmetricMatrix:
    """Dicke Hamiltonian over |n> x |j,m>: diagonal omega n + omega0 m with the
    (2 gamma / sqrt(N_atoms)) (a + a^dag) Jx coupling linking (n, m) to (n+1, m+-1)."""
    basis = FullBasis("fock", params.j, n_max)
    index = full_index(basis)
    size = n_max + 1
    coupling = 2.0 * params.gamma / math.sqrt(params.n_atoms)
    ns = np.arange(size, dtype=float)
    field = np.zeros((size, size))
    idx = np.arange(size - 1)
    field[idx + 1, idx] = np.sqrt(idx + 1.0)
    field[idx, idx + 1] = np.sqrt(idx + 1.0)
    mat = np.zeros((index.size, index.size))
    blocks = block_slices(index)
    for b, (m, sl) in enumerate(blocks):
        mat[sl, sl] = np.diag(params.omega * ns + params.omega0 * m)
        if b + 1 < len(blocks):
            _, sl_up = blocks[b + 1]
            c = coupling * 0.5 * algebra.ladder_coeff(params.j, m, +1)
            blk = c * field  # symmetric in n, so mirror equals itself
            mat[sl_up, sl] = blk
            mat[sl, sl_up] = blk
    return symmetric_matrix(mat, basis)


def coherent_jz(index: BasisIndex, params: ModelParams) -> np.ndarray:
    """Jz over the full displaced shells: c_m W between the shells of m and m+1."""
    j = index.spec.j
    w = algebra.displacement_matrix(index.spec.n_max, params.g_disp)
    mat = np.zeros((index.size, index.size))
    blocks = block_slices(index)
    for b in range(len(blocks) - 1):
        m, sl = blocks[b]
        _, sl_up = blocks[b + 1]
        c = 0.5 * algebra.ladder_coeff(j, m, +1)
        blk = c * w  # rows: shell of m+1, cols: shell of m
        mat[sl_up, sl] = blk
        mat[sl, sl_up] = blk.T
    return mat


def build_coherent(params: ModelParams, n_max: int) -> SymmetricMatrix:
    """Dicke Hamiltonian over the full displaced shells |N; j, m>."""
    basis = FullBasis("coherent", params.j, n_max)
    index = full_index(basis)
    mat = params.omega0 * coherent_jz(index, params)
    quad = 4.0 * params.gamma**2 / (params.omega * params.n_atoms)
    mat[np.diag_indices(index.size)] += params.omega * index.n_exc - quad * index.m_vals**2
    return symmetric_matrix(mat, basis)


def op_photon(index: BasisIndex, params: ModelParams) -> np.ndarray:
    """Photon number a^dag a over displaced-shell labels: a = A - G Jx gives
    the diagonal N + G^2 m^2 with a same-m ladder in N."""
    g = params.g_disp
    mat = np.diag(index.n_exc + (g * index.m_vals) ** 2)
    for _, sl in block_slices(index):
        n_list = index.n_exc[sl]
        m = index.m_vals[sl.start]
        base = sl.start
        for k in range(len(n_list) - 1):
            if n_list[k + 1] == n_list[k] + 1:
                val = -g * m * math.sqrt(n_list[k] + 1.0)
                mat[base + k + 1, base + k] = val
                mat[base + k, base + k + 1] = val
    return mat


def op_jx2(index: BasisIndex) -> np.ndarray:
    """Jx^2 over displaced-shell labels: diagonal m^2, m being a Jx projection."""
    return np.diag(index.m_vals**2)


def full_peres_matrix(op_kind, index: BasisIndex, params: ModelParams) -> SymmetricMatrix:
    """A Peres operator in a reference basis."""
    if index.spec.kind == "fock":
        if op_kind == "Jz":
            mat = np.diag(index.m_vals)
        elif op_kind == "photon_n":
            mat = np.diag(index.n_exc.astype(float))
        else:
            mat = np.kron(jx_squared(index.spec.j), np.eye(index.spec.n_max + 1))
    elif op_kind == "Jz":
        mat = coherent_jz(index, params)
    elif op_kind == "photon_n":
        mat = op_photon(index, params)
    else:
        mat = op_jx2(index)
    return symmetric_matrix(mat, index.spec)


def sector_peres_matrix(op_kind, index: BasisIndex, params: ModelParams) -> np.ndarray:
    """A Peres operator in one parity sector, dense: the full displaced-shell
    operator projected onto the sector's states."""
    full = full_index(FullBasis("coherent", index.spec.j, index.spec.n_max))
    proj = parity_projector(full, index)
    return proj.T @ full_peres_matrix(op_kind, full, params).data @ proj


def dense_expectation(vectors, op):
    """<v_k| op |v_k> for every column k, from the dense product op @ V."""
    return (vectors * (op @ vectors)).sum(axis=0)


def ortho_defect(vectors):
    """max |V^T V - I| over the full dim x dim Gram, the solver audit's
    orthonormality defect without its panels."""
    gram = vectors.T @ vectors
    gram -= np.eye(gram.shape[0])
    return float(np.abs(gram).max())


def parity_projector(full: BasisIndex, part: BasisIndex) -> np.ndarray:
    """Columns: the parity-sector states of `part` expressed in the full
    displaced shells of `full`, (|N, m> + s (-1)^N |N, -m>)/sqrt(2) for m > 0
    with s the sector times (-1)^(2j), and |N, 0> itself."""
    sector = part.spec.parity_sector
    proj = np.zeros((full.size, part.size))
    for col in range(part.size):
        n, m = label_of(part, col)
        if m == 0.0:
            proj[index_of(full, n, 0.0), col] = 1.0
        else:
            norm = 1 / math.sqrt(2.0)
            s_eff = sector * sector_twist(part.spec.j) * (-1) ** n
            proj[index_of(full, n, m), col] = norm
            proj[index_of(full, n, -m), col] = s_eff * norm
    return proj


def build_tc_block(params: ModelParams, lam: int) -> SymmetricMatrix:
    """Tavis-Cummings Hamiltonian restricted to the conserved-excitation block
    Lambda = lam, over states |n = lam - j - m> x |j,m> with n >= 0."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    j = params.j
    twoj = params.n_atoms
    ms = m_values(j)
    valid = [m for m in ms if lam - j - m >= -1e-12]
    dim = min(lam, twoj) + 1
    assert len(valid) == dim
    mat = np.zeros((dim, dim))
    gtc = params.gamma / math.sqrt(twoj)
    for k, m in enumerate(valid):
        n = round(lam - j - m)
        mat[k, k] = params.omega * n + params.omega0 * m
        if k + 1 < dim:
            # a J+ : |n, m> -> sqrt(n) sqrt(j(j+1)-m(m+1)) |n-1, m+1>
            val = gtc * math.sqrt(n) * algebra.ladder_coeff(j, m, +1)
            mat[k + 1, k] = val
            mat[k, k + 1] = val
    return symmetric_matrix(mat, None)


def leading_agreement(energies, reference, tol):
    """How many leading entries of the ascending `energies` lie within `tol`
    of the same entries of the ascending `reference`, up to the first that
    does not (or the shorter list's end)."""
    n = min(energies.size, reference.size)
    off = np.abs(energies[:n] - reference[:n]) > tol
    return int(off.argmax()) if off.any() else n


# The distribution of the gap ratio r~ = min(s_i, s_i+1) / max(s_i, s_i+1) of
# consecutive spacings, on [0, 1] (Atas, Bogomolny, Giraud and Roux, PRL 110,
# 084101 (2013)): for uncorrelated levels its density is 2 / (1 + r~)^2, and
# the GOE surmise's is (27/4)(r~ + r~^2) / (1 + r~ + r~^2)^(5/2).  Their means
# are POISSON_RATIO and 4 - 2 sqrt(3).

def gap_ratios(levels):
    """r~ of each pair of consecutive spacings of the sorted, non-degenerate
    `levels`."""
    s = np.diff(levels)
    return np.minimum(s[:-1], s[1:]) / np.maximum(s[:-1], s[1:])


def poisson_ratio_cdf(r):
    """CDF of r~ for uncorrelated (Poisson) levels: 2r / (1 + r)."""
    r = np.asarray(r, dtype=float)
    return 2.0 * r / (1.0 + r)


def goe_ratio_cdf(r):
    """CDF of r~ under the GOE surmise."""
    r = np.asarray(r, dtype=float)
    return 1.0 - (1.0 - r) * (1.0 + 2.0 * r) * (2.0 + r) / (2.0 * (1.0 + r + r * r) ** 1.5)


def ks_distance(sample, cdf):
    """Kolmogorov-Smirnov distance sup_x |F_n(x) - cdf(x)| of the sample's
    empirical CDF F_n from a continuous `cdf`."""
    x = np.sort(np.asarray(sample, dtype=float))
    f = cdf(x)
    n = x.size
    return float(max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max()))
