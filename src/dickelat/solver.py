"""Full dense real-symmetric eigendecomposition with an auditable accuracy report.

The heavy lifting is LAPACK's dsyevd, the driver np.linalg.eigh runs, from
the OpenBLAS that numpy's linalg extension links: its three stages (dsytrd,
dstedc, dormtr), called by ctypes so the solve drops the GIL and another
thread can run beside it.  Run one by one, they reduce H in its own buffer,
find the eigenvectors there while the reflectors wait in a half-size copy,
and leave the vectors in dstedc's n^2 workspace, bit for bit dsyevd's, so a
solve holds H's buffer, that workspace and the copy, and the matrix's own
refill (for a sector, its build) then writes H back.  The stages skip
dsyevd's rescaling, which no SymmetricMatrix needs: its construction checks
that.  That OpenBLAS is the only BLAS a run loads.  The contract here is
the residual bound (max ||H v - E v|| <= 1e-10 ||H||_F) and the
orthonormality defect (<= 1e-10), both recorded on every Spectrum.  The
audit multiplies H one row chunk at a time over that chunk's nonzero column
envelope, so banded matrices cost a fraction of a dense GEMM while every
nonzero still counts, and takes V^T V one panel of columns at a time, so no
dim x dim temporary forms.

`blas_threads` sets the library's thread count for the duration of a block,
`blas_thread_count` reads it, and `library_versions` names its build.
"""

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .basis import BasisSpec
from .errors import SolverError
from .hamiltonian import SymmetricMatrix

RESIDUAL_BOUND = 1e-10
ORTHO_BOUND = 1e-10

# Rows per chunk of H's row envelopes, the spans in which the audit
# multiplies H, and columns per panel of the saved reflectors: narrow enough
# that a chunk's envelope hugs the m-block band of the displaced-shell
# matrices, wide enough that each chunk product is still an efficient GEMM.
_ROW_CHUNK = 64

# Columns per panel of the audit's Gram: the panel's product is one GEMM and
# its temporary holds _GRAM_PANEL rows, not dim.  A panel no larger than the
# audit's and the observables' other temporaries keeps the allocator from
# holding freed heap into the next sector's solve: in a two-sector lattice run
# at dim 3301 the second solve raised the peak 18 MiB above the first's with
# 512 rows, and 2 MiB with 128.
_GRAM_PANEL = 128

# The symbols of the OpenBLAS builds numpy links: (prefix, suffix) of their
# set_num_threads, get_num_threads and get_config, and their dsytrd, dstedc
# and dormtr.  Plain, scipy-openblas, and scipy-openblas with the ILP64 suffix.
_OPENBLAS_SYMBOLS = (
    ("openblas_", "", ("dsytrd_", "dstedc_", "dormtr_")),
    ("scipy_openblas_", "", ("scipy_dsytrd_", "scipy_dstedc_", "scipy_dormtr_")),
    ("scipy_openblas_", "64_", ("scipy_dsytrd_64_", "scipy_dstedc_64_", "scipy_dormtr_64_")),
)


def _openblas():
    """((dsytrd, dstedc, dormtr), set_num_threads, get_num_threads, build
    config, LAPACK integer type) of the OpenBLAS that numpy's linalg
    extension links: dlsym on the extension's handle searches the libraries
    it depends on.  Raises ImportError when none of _OPENBLAS_SYMBOLS is
    there."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix, stage_names in _OPENBLAS_SYMBOLS:
        try:
            stages = tuple(getattr(lib, name) for name in stage_names)
            set_threads, get_threads, get_config = (
                getattr(lib, f"{prefix}{name}{suffix}")
                for name in ("set_num_threads", "get_num_threads", "get_config")
            )
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        get_threads.argtypes, get_threads.restype = (), ctypes.c_int
        get_config.argtypes, get_config.restype = (), ctypes.c_char_p
        config = get_config().decode(errors="replace").strip()
        lapack_int = ctypes.c_int64 if "USE64BITINT" in config.split() else ctypes.c_int
        ref, ptr, char = ctypes.POINTER(lapack_int), ctypes.c_void_p, ctypes.c_char_p
        dsytrd, dstedc, dormtr = stages
        # dsytrd(uplo, n, a, lda, d, e, tau, work, lwork, info)
        dsytrd.argtypes = (char, ref, ptr, ref, ptr, ptr, ptr, ptr, ref, ref)
        # dstedc(compz, n, d, e, z, ldz, work, lwork, iwork, liwork, info)
        dstedc.argtypes = (char, ref, ptr, ptr, ptr, ref, ptr, ref, ptr, ref, ref)
        # dormtr(side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork, info)
        dormtr.argtypes = (char, char, char, ref, ref, ptr, ref, ptr, ptr, ref, ptr, ref, ref)
        for stage in stages:
            stage.restype = None
        return stages, set_threads, get_threads, config, lapack_int
    raise ImportError(
        "numpy's linalg extension links no OpenBLAS this module can call: looked for "
        + "; ".join(f"{', '.join(names)} with {p}get_config{s}" for p, s, names in _OPENBLAS_SYMBOLS)
    )


(_DSYTRD, _DSTEDC, _DORMTR), _SET_THREADS, _GET_THREADS, _OPENBLAS_CONFIG, _LAPACK_INT = _openblas()


@dataclass
class ResidualReport:
    max_residual: float
    max_ortho_defect: float
    h_frobenius: float

    def within_bounds(self):
        return (
            self.max_residual <= RESIDUAL_BOUND * self.h_frobenius
            and self.max_ortho_defect <= ORTHO_BOUND
        )


@dataclass
class Spectrum:
    """Ascending eigenvalues with the orthonormal eigenvector matrix (column k
    pairs with energy k) and the solver accuracy report."""

    energies: np.ndarray
    vectors: np.ndarray
    basis: BasisSpec | None
    residual_report: ResidualReport

    @property
    def dim(self):
        return self.energies.size


def _row_envelopes(mat):
    """(rows, cols) slice pairs covering every nonzero of the square `mat`:
    rows walks `_ROW_CHUNK` rows at a time, cols is the span from the chunk's
    first to its last nonzero column (empty for an all-zero chunk), read
    from the data rather than assumed from the basis.  mat[rows, cols] @
    V[cols] is then exactly rows `rows` of mat @ V."""
    dim = mat.shape[0]
    for start in range(0, dim, _ROW_CHUNK):
        rows = slice(start, min(start + _ROW_CHUNK, dim))
        nonzero = np.flatnonzero(mat[rows].any(axis=0))
        if nonzero.size:
            cols = slice(int(nonzero[0]), int(nonzero[-1]) + 1)
        else:
            cols = slice(start, start)
        yield rows, cols


def residual_report_for(hmat: np.ndarray, energies, vectors) -> ResidualReport:
    h_frob = float(np.linalg.norm(hmat))
    sq = np.zeros(vectors.shape[1])
    for rows, cols in _row_envelopes(hmat):
        resid = hmat[rows, cols] @ vectors[cols] - vectors[rows] * energies[None, :]
        sq += np.einsum("ik,ik->k", resid, resid)
    max_resid = float(np.sqrt(sq).max())
    # max |V^T V - I| over the Gram's upper triangle, one panel of rows at a
    # time: about syrk's flops, without a dim x dim temporary; np.max keeps
    # a NaN where Python's max would drop it
    extremes = []
    for start in range(0, vectors.shape[1], _GRAM_PANEL):
        gram = vectors[:, start:start + _GRAM_PANEL].T @ vectors[:, start:]
        diag = np.arange(gram.shape[0])
        gram[diag, diag] -= 1.0
        extremes += [gram.max(), -gram.min()]
    return ResidualReport(max_resid, float(np.max(extremes)), h_frob)


def _evd_stages(a, w):
    """LAPACK's dsyevd with jobz V and uplo L, run as its three stages on the
    Fortran-ordered square float64 `a` with one more n x n array: dsytrd
    reduces a to tridiagonal form, its reflectors over a's lower triangle
    (the strict upper triangle is never referenced), and they wait in a
    half-size copy while dstedc writes the ascending eigenvalues into `w`
    and the tridiagonal's eigenvectors over a, in the workspace dsyevd
    passes it (n^2 + 4n + 1 at all but small n).  The reflectors then go
    back into that workspace, viewed as a Fortran-ordered n x n array,
    dormtr applies them to a, and the vectors are copied into the view,
    which is returned: bit for bit the vectors dsyevd writes over a.  a is
    left holding them too.  dsyevd's rescaling of a matrix whose largest
    |entry| lies outside [2**-485, 2**485] is not run: no SymmetricMatrix
    holds such a matrix, since its construction refuses one.

    Raises SolverError if dstedc fails to converge and RuntimeError if a
    stage rejects an argument."""
    n = a.shape[0]
    if not (
        a.shape == (n, n) and a.dtype == np.float64 and a.flags.f_contiguous
        and a.flags.writeable and w.shape == (n,) and w.dtype == np.float64
        and w.flags.c_contiguous and w.flags.writeable
    ):
        raise ValueError("dsyevd's stages take a writeable Fortran-ordered square float64 "
                         "matrix and a writeable float64 vector of its order")
    order, lead, info = _LAPACK_INT(n), _LAPACK_INT(max(1, n)), _LAPACK_INT(0)
    e, tau = np.empty(max(1, n - 1)), np.empty(max(1, n - 1))

    def check(stage):
        if info.value < 0:
            raise RuntimeError(f"{stage} rejected argument {-info.value}")

    def dsytrd(work, lwork):
        _DSYTRD(b"L", order, a.ctypes.data, lead, w.ctypes.data, e.ctypes.data,
                tau.ctypes.data, work.ctypes.data, _LAPACK_INT(lwork), info)
        check("dsytrd")

    def dormtr(work, lwork):
        _DORMTR(b"L", b"L", b"N", order, order, reflectors.ctypes.data, lead, tau.ctypes.data,
                a.ctypes.data, lead, work.ctypes.data, _LAPACK_INT(lwork), info)
        check("dormtr")

    work = np.zeros(1)
    dsytrd(work, -1)
    lwork = int(work[0])
    dsytrd(np.empty(lwork), lwork)
    # dsyevd's workspace query, max(1 + 6n + 2n^2, 2n + dsytrd's), less the
    # 2n + n^2 it keeps for the tridiagonal's off-diagonal, the reflectors'
    # scalars and the eigenvectors: what it passes dstedc and dormtr
    if n > 1:
        lwork, liwork = max(1 + 4 * n + n * n, lwork - n * n), 3 + 5 * n
    else:
        lwork, liwork = 1, 1
    # the reflectors, _ROW_CHUNK columns at a time: each panel takes along
    # the few entries on and above the diagonal that dormtr never reads
    panels = range(0, n, _ROW_CHUNK)
    saved = [a[k + 1:, k:k + _ROW_CHUNK].copy(order="F") for k in panels]
    work, iwork = np.empty(lwork), np.empty(liwork, dtype=_LAPACK_INT)
    _DSTEDC(b"I", order, w.ctypes.data, e.ctypes.data, a.ctypes.data, lead, work.ctypes.data,
            _LAPACK_INT(lwork), iwork.ctypes.data, _LAPACK_INT(liwork), info)
    check("dstedc")
    if info.value > 0:
        raise SolverError(
            f"dense eigensolver (evd, dim={n}) did not converge: dstedc info {info.value}"
        )
    reflectors = work[:n * n].reshape(n, n, order="F")
    for k, panel in zip(panels, saved):
        reflectors[k + 1:, k:k + _ROW_CHUNK] = panel
    del saved
    query = np.zeros(1)
    dormtr(query, -1)
    # dormtr's query leaves out the 65 x 64 block dormqr's blocked update
    # needs, and dormqr narrows its blocks to a workspace short of it, which
    # moves the vectors' last bits; where dsyevd's share is the shorter (n
    # from 34 to 79 on a 32-wide block), dsyevd passes that, and so does this
    lwork = min(lwork, int(query[0]) + 65 * 64)
    dormtr(np.empty(lwork), lwork)
    reflectors[...] = a
    return reflectors


def eigh(matrix: SymmetricMatrix) -> Spectrum:
    """All eigenpairs of a SymmetricMatrix, ascending, from LAPACK's
    divide-and-conquer driver (evd, the measured fastest), bit for bit what
    np.linalg.eigh returns at the same thread count, but without holding the
    GIL.
    Each vector's sign is LAPACK's: every product is a quadratic form in one
    vector.

    The solve runs in the matrix's own buffer.  H is exactly symmetric, so
    data.T is H in Fortran order: LAPACK reduces it there, finds the
    tridiagonal's eigenvectors there while the reflectors wait in a half-size
    copy, and the vectors end in dstedc's workspace, so a solve holds H's
    buffer, that workspace and the copy.  matrix.refill then writes H's exact
    bits back, also when LAPACK raises, so the input is left as it was.

    The type guarantees the rest: a SymmetricMatrix is finite, and its
    largest |entry| is 0 or within [2**-485, 2**485], where dsyevd would not
    rescale it.

    Raises ValueError, before anything is solved, if the data is not
    a writeable C-contiguous float64 array (build_sector's always is: a copy
    would hold a dense matrix the memory budget does not charge).  Raises
    SolverError if the LAPACK iteration fails to converge or the residual
    report breaks RESIDUAL_BOUND or ORTHO_BOUND, and RuntimeError if LAPACK
    rejects an argument.
    """
    data = matrix.data
    if not (data.dtype == np.float64 and data.flags.c_contiguous and data.flags.writeable):
        raise ValueError("eigh solves in the matrix's buffer: it takes a writeable "
                         "C-contiguous float64 matrix")
    energies = np.empty(matrix.dim)
    try:
        vectors = _evd_stages(data.T, energies)
    finally:
        matrix.refill(data)
    report = residual_report_for(data, energies, vectors)
    if not report.within_bounds():
        raise SolverError(
            f"solver audit failed (dim={matrix.dim}): max residual "
            f"{report.max_residual:.3e} against {RESIDUAL_BOUND:g} x ||H||_F = "
            f"{RESIDUAL_BOUND * report.h_frobenius:.3e}, orthonormality defect "
            f"{report.max_ortho_defect:.3e} against {ORTHO_BOUND:g}"
        )
    return Spectrum(energies, vectors, matrix.basis, report)


def blas_thread_count():
    """The OpenBLAS thread count, process-wide."""
    return _GET_THREADS()


def library_versions():
    """numpy's version and the OpenBLAS build config."""
    return {"numpy": np.__version__, "openblas": _OPENBLAS_CONFIG}


@contextmanager
def blas_threads(n):
    """Run the block with OpenBLAS on `n` threads, then give it back its
    previous count.  A count already at `n` is left alone.

    The count is process-wide: set it before starting threads that call BLAS,
    not from inside them.  Runs and sweeps in one process take turns (they
    hold pipeline's one lock for their whole block), so no run's block
    changes the count under another's; two threads that call this directly
    have no such guard."""
    before = _GET_THREADS()
    if before == n:
        yield
        return
    _SET_THREADS(n)
    try:
        yield
    finally:
        _SET_THREADS(before)
