"""Full dense real-symmetric eigendecomposition with an auditable accuracy report.

The heavy lifting is LAPACK's dsyevd from the OpenBLAS that numpy's linalg
extension links, the one np.linalg.eigh runs, called by ctypes so the solve
drops the GIL and another thread can run beside it.  That OpenBLAS is the
only BLAS a run loads.  The contract here is the residual bound
(max ||H v - E v|| <= 1e-10 ||H||_F) and the orthonormality defect
(<= 1e-10), both recorded on every Spectrum.  The audit multiplies H one row
chunk at a time over that chunk's nonzero column envelope, so banded
matrices cost a fraction of a dense GEMM while every nonzero still counts.

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

# Rows per envelope chunk: narrow enough that a chunk's envelope hugs the
# m-block band of the displaced-shell matrices, wide enough that each chunk
# product is still an efficient GEMM.
_ROW_CHUNK = 64

# The symbols of the OpenBLAS builds numpy links: (prefix, suffix) of their
# set_num_threads, get_num_threads and get_config, and their dsyevd.  Plain,
# scipy-openblas, and scipy-openblas with the ILP64 suffix.
_OPENBLAS_SYMBOLS = (
    ("openblas_", "", "dsyevd_"),
    ("scipy_openblas_", "", "scipy_dsyevd_"),
    ("scipy_openblas_", "64_", "scipy_dsyevd_64_"),
)


def _openblas():
    """(dsyevd, set_num_threads, get_num_threads, build config, LAPACK
    integer type) of the OpenBLAS that numpy's linalg extension links:
    dlsym on the extension's handle searches the libraries it depends on.
    Raises ImportError when none of _OPENBLAS_SYMBOLS is there."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix, suffix, dsyevd_name in _OPENBLAS_SYMBOLS:
        try:
            dsyevd, set_threads, get_threads, get_config = (
                getattr(lib, name) for name in (
                    dsyevd_name, f"{prefix}set_num_threads{suffix}",
                    f"{prefix}get_num_threads{suffix}", f"{prefix}get_config{suffix}",
                )
            )
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        get_threads.argtypes, get_threads.restype = (), ctypes.c_int
        get_config.argtypes, get_config.restype = (), ctypes.c_char_p
        config = get_config().decode(errors="replace").strip()
        lapack_int = ctypes.c_int64 if "USE64BITINT" in config.split() else ctypes.c_int
        ref = ctypes.POINTER(lapack_int)
        # dsyevd(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info)
        dsyevd.argtypes = (
            ctypes.c_char_p, ctypes.c_char_p, ref, ctypes.c_void_p, ref, ctypes.c_void_p,
            ctypes.c_void_p, ref, ctypes.c_void_p, ref, ref,
        )
        dsyevd.restype = None
        return dsyevd, set_threads, get_threads, config, lapack_int
    raise ImportError(
        "numpy's linalg extension links no OpenBLAS this module can call: looked for "
        + ", ".join(f"{d} with {p}get_config{s}" for p, s, d in _OPENBLAS_SYMBOLS)
    )


_DSYEVD, _SET_THREADS, _GET_THREADS, _OPENBLAS_CONFIG, _LAPACK_INT = _openblas()


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
    gram = vectors.T @ vectors
    gram[np.diag_indices_from(gram)] -= 1.0
    # max |gram| without the dim x dim temporary of np.abs
    max_ortho = float(max(gram.max(), -gram.min()))
    return ResidualReport(max_resid, max_ortho, h_frob)


def _dsyevd(a, w):
    """LAPACK's dsyevd with jobz V and uplo L on the Fortran-ordered square
    float64 `a`: the ascending eigenvalues into `w`, the eigenvectors over
    `a`.  The workspace is what a workspace query returns, as in
    np.linalg.eigh.  Returns LAPACK's info."""
    n = a.shape[0]
    if not (
        a.shape == (n, n) and a.dtype == np.float64 and a.flags.f_contiguous
        and a.flags.writeable and w.shape == (n,) and w.dtype == np.float64
        and w.flags.c_contiguous and w.flags.writeable
    ):
        raise ValueError("dsyevd takes a writeable Fortran-ordered square float64 matrix "
                         "and a writeable float64 vector of its order")
    info = _LAPACK_INT(0)

    def call(work, lwork, iwork, liwork):
        _DSYEVD(b"V", b"L", _LAPACK_INT(n), a.ctypes.data, _LAPACK_INT(max(1, n)),
                w.ctypes.data, work.ctypes.data, _LAPACK_INT(lwork), iwork.ctypes.data,
                _LAPACK_INT(liwork), info)
        return info.value

    work, iwork = np.zeros(1), np.zeros(1, dtype=_LAPACK_INT)
    if call(work, -1, iwork, -1):
        return info.value
    lwork, liwork = int(work[0]), int(iwork[0])
    return call(np.empty(lwork), lwork, np.empty(liwork, dtype=_LAPACK_INT), liwork)


def eigh(matrix: SymmetricMatrix) -> Spectrum:
    """All eigenpairs of a SymmetricMatrix, ascending, from LAPACK's
    divide-and-conquer driver (evd, the measured fastest), bit for bit what
    np.linalg.eigh returns at the same thread count, but without holding the
    GIL.
    Each vector's sign is LAPACK's: every product is a quadratic form in one
    vector.

    The solve runs in the matrix's own buffer.  H is exactly symmetric, so
    data.T is H in Fortran order, and LAPACK writes the vectors over it
    rather than over a transposed copy.  The vectors are then copied out and
    H is written back from its row envelopes, saved before the solve, so the
    input is left as it was, also when LAPACK raises.

    Raises ValueError, before anything is saved or solved, if the data is not
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
    # envelopes of the bit patterns, so a -0.0 is kept like any nonzero
    saved = [
        (rows, cols, data[rows, cols].copy())
        for rows, cols in _row_envelopes(data.view(np.uint64))
    ]
    try:
        energies = np.empty(matrix.dim)
        info = _dsyevd(data.T, energies)
        if info > 0:
            raise SolverError(
                f"dense eigensolver (evd, dim={matrix.dim}) did not converge: "
                f"dsyevd info {info}"
            )
        if info < 0:
            raise RuntimeError(f"dsyevd rejected argument {-info}")
        vectors = data.T.copy(order="F")
    finally:
        data.fill(0.0)
        for rows, cols, block in saved:
            data[rows, cols] = block
    del saved
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
    not from inside them."""
    before = _GET_THREADS()
    if before == n:
        yield
        return
    _SET_THREADS(n)
    try:
        yield
    finally:
        _SET_THREADS(before)
