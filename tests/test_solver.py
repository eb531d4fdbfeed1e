import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from dickelat import hamiltonian as ham
from dickelat import pipeline, solver
from dickelat.basis import BasisSpec
from dickelat.errors import SolverError
from oracles import build_coherent, build_fock, full_index, full_peres_matrix


def wrap(data):
    return ham.SymmetricMatrix(np.asarray(data, dtype=float), None)


def test_two_by_two_closed_form():
    s = solver.eigh(wrap([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(s.energies, [-1.0, 1.0], atol=1e-15)
    assert s.residual_report.max_residual < 1e-14


def test_diagonal_matrix():
    d = np.diag([3.0, -1.0, 2.0, 0.0])
    s = solver.eigh(wrap(d))
    assert np.allclose(s.energies, [-1.0, 0.0, 2.0, 3.0], atol=1e-15)
    # identity-permutation vectors: each column has a single unit entry
    assert np.allclose(np.abs(s.vectors).max(axis=0), 1.0, atol=1e-14)


def flip_every_third(vectors):
    flipped = vectors.copy(order="F")
    flipped[:, ::3] *= -1.0
    return flipped


def sector_products(cfg, sector):
    """Every product of one run_sector, as comparable values: arrays as bytes."""
    res = pipeline.run_sector(cfg, sector)
    return {
        "energies": res.energies.tobytes(),
        "delta_p": res.report.delta_p.tobytes(),
        "converged_count": res.report.converged_count,
        "expectations": {op: x.tobytes() for op, x in res.expectations.items()},
        "dos": [a.tobytes() for a in res.dos],
        "markers": res.markers,
        "stats": res.stats,
    }


@pytest.mark.parametrize("j", [10.0, 10.5], ids=["integer-j", "half-integer-j"])
def test_products_do_not_depend_on_eigenvector_signs(monkeypatch, j):
    # every product is a quadratic form in one eigenvector, so LAPACK's signs
    # need no gauge: flipping the sign of every third vector changes no bit
    cfg = pipeline.RunConfig(ham.ModelParams(1.0, 1.0, 1.0, j), n_max=40, sectors=(1,))
    plain = sector_products(cfg, 1)
    assert plain["markers"] is not None and len(plain["expectations"]) == 3

    eigh = solver.eigh

    def flipped_eigh(matrix):
        spectrum = eigh(matrix)
        spectrum.vectors = flip_every_third(spectrum.vectors)
        return spectrum

    monkeypatch.setattr(solver, "eigh", flipped_eigh)
    assert sector_products(cfg, 1) == plain

    ladder = ham.sector_ladder(cfg.params, cfg.n_max, 1)
    h = ham.build_sector(ladder)
    s = eigh(h)
    flipped = solver.residual_report_for(h.data, s.energies, flip_every_third(s.vectors))
    assert flipped == solver.residual_report_for(h.data, s.energies, s.vectors)


def test_random_matrix_defects_small():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((100, 100))
    m = wrap(a + a.T)
    s = solver.eigh(m)
    rep = s.residual_report
    assert rep.max_residual < 1e-12 * rep.h_frobenius * 100
    assert rep.max_ortho_defect < 1e-12
    assert rep.within_bounds()


def test_residuals_reproduce_stored_report():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40))
    m = wrap(a + a.T)
    s = solver.eigh(m)
    again = solver.residual_report_for(m.data, s.energies, s.vectors)
    assert again == s.residual_report


def test_injected_fault_detected():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((50, 50))
    m = wrap(a + a.T)
    s = solver.eigh(m)
    s.vectors[:, 10] *= 1 + 1e-6
    rep = solver.residual_report_for(m.data, s.energies, s.vectors)
    assert rep.max_ortho_defect == pytest.approx(2e-6, rel=0.1)


def test_trace_preservation():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((120, 120))
    m = wrap(a + a.T)
    s = solver.eigh(m)
    bound = 1e-9 * 120 * np.abs(m.data).max()
    assert abs(s.energies.sum() - np.trace(m.data)) < bound


def test_permutation_invariance():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((60, 60))
    sym = a + a.T
    perm = rng.permutation(60)
    s1 = solver.eigh(wrap(sym))
    s2 = solver.eigh(wrap(sym[np.ix_(perm, perm)]))
    assert np.abs(s1.energies - s2.energies).max() < 1e-12 * np.abs(s1.energies).max()
    # eigenvector rows permute (up to sign gauge, spectra here are simple)
    overlap = np.abs((s1.vectors[perm, :] * s2.vectors).sum(axis=0))
    assert np.allclose(overlap, 1.0, atol=1e-10)


def test_degeneracy_saturation_at_zero_coupling():
    # gamma=0: E = n + m; multiplicity grows linearly to 2j+1, then constant
    p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=0.0, j=20.0)
    n_max = 60
    energies = np.concatenate(
        [solver.eigh(ham.build_coherent_parity(p, n_max, s)).energies for s in (1, -1)]
    )
    e = np.round(energies).astype(int)
    assert np.abs(energies - e).max() < 1e-12
    counts = {}
    for val in e:
        counts[val] = counts.get(val, 0) + 1
    for energy in range(-20, 41):
        expect = min(energy + 21, 41)
        assert counts[energy] == expect


def test_spectrum_carries_basis_provenance():
    p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=0.2, j=1.0)
    s = solver.eigh(ham.build_coherent_parity(p, 8, -1))
    assert s.basis == BasisSpec(1.0, 8, -1)


def banded_with_far_corner(dim, seed, band=3):
    """Random symmetric band matrix plus one far-off-band pair H[0, -1]."""
    rng = np.random.default_rng(seed)
    a = np.triu(np.tril(rng.standard_normal((dim, dim)), band), -band)
    a = a + a.T
    a[0, -1] = a[-1, 0] = 0.7
    return a


def no_envelopes(mat):
    """Stand-in for solver._row_envelopes where eigh must refuse its input
    before it saves anything."""
    raise AssertionError("envelopes saved before the input was checked")


def envelope_product(mat, vectors):
    out = np.empty((mat.shape[0], vectors.shape[1]))
    for rows, cols in solver._row_envelopes(mat):
        out[rows] = mat[rows, cols] @ vectors[cols]
    return out


def dense_max_residual(mat, energies, vectors):
    return np.linalg.norm(mat @ vectors - vectors * energies[None, :], axis=0).max()


def model_matrices():
    p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=0.8, j=2.0)
    fock = build_fock(p, 40)
    return {
        "fock Jx2": full_peres_matrix("Jx2", full_index(fock.basis), p).data,
        "fock H": fock.data,
        "coherent H": build_coherent(p, 40).data,
        "parity H": ham.build_coherent_parity(p, 40, -1).data,
    }


class TestRowEnvelopes:
    @pytest.mark.parametrize("dim", [1, 63, 65, 130, 331])
    def test_random_matrix_product_and_residual(self, dim):
        a = banded_with_far_corner(dim, seed=dim)
        rng = np.random.default_rng(dim + 1)
        v = rng.standard_normal((dim, 9))
        e = rng.standard_normal(9)
        want = a @ v
        assert np.abs(envelope_product(a, v) - want).max() <= 1e-12 * np.abs(want).max()
        rep = solver.residual_report_for(a, e, v)
        assert rep.max_residual == pytest.approx(dense_max_residual(a, e, v), rel=1e-12)

    def test_chunks_tile_rows_and_cover_every_nonzero(self):
        for name, mat in model_matrices().items():
            assert mat.shape[0] % solver._ROW_CHUNK != 0, name
            covered = np.zeros(mat.shape, dtype=bool)
            for rows, cols in solver._row_envelopes(mat):
                covered[rows, cols] = True
            assert np.array_equal(covered.sum(axis=1) > 0, mat.any(axis=1)), name
            assert not (mat[~covered]).any(), name

    @pytest.mark.parametrize("name", ["fock Jx2", "fock H", "coherent H", "parity H"])
    def test_model_matrices_match_dense(self, name):
        mat = model_matrices()[name]
        s = solver.eigh(wrap(mat))
        want = mat @ s.vectors
        got = envelope_product(mat, s.vectors)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        e_off = s.energies + np.linspace(0.5, 1.5, s.dim)
        rep = solver.residual_report_for(mat, e_off, s.vectors)
        assert rep.max_residual == pytest.approx(
            dense_max_residual(mat, e_off, s.vectors), rel=1e-12
        )

    def test_all_zero_chunk_keeps_its_energy_term(self):
        # rows and columns 64..127 are zero, so that chunk's envelope is
        # empty; column 100's residual is then |0 - E_100| alone
        d = np.arange(1.0, 151.0)
        d[64:128] = 0.0
        energies = d.copy()
        energies[100] = 5.0
        envelopes = list(solver._row_envelopes(np.diag(d)))
        assert envelopes[1][1].start == envelopes[1][1].stop
        rep = solver.residual_report_for(np.diag(d), energies, np.eye(150))
        assert rep.max_residual == 5.0

    def test_hamiltonian_envelope_area_stays_banded(self):
        # count-based guard against a silent fallback to dense products in
        # the audit on the production basis (N = 40, n_max = 160, one sector)
        p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=1.0, j=20.0)
        h = ham.build_coherent_parity(p, 160, 1)
        area = sum(
            (rows.stop - rows.start) * (cols.stop - cols.start)
            for rows, cols in solver._row_envelopes(h.data)
        )
        assert area <= 0.20 * h.dim**2, area / h.dim**2

    def test_far_off_band_fault_detected(self):
        p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=1.2, j=3.0)
        m = ham.build_coherent_parity(p, 100, 1)
        s = solver.eigh(m)
        assert s.residual_report.within_bounds()
        assert m.data[0, -1] == 0.0
        bad = m.data.copy()
        delta = 1e-8 * np.linalg.norm(m.data)
        bad[0, -1] = bad[-1, 0] = delta
        rep = solver.residual_report_for(bad, s.energies, s.vectors)
        assert rep.max_residual > solver.RESIDUAL_BOUND * rep.h_frobenius
        assert rep.max_residual == pytest.approx(
            dense_max_residual(bad, s.energies, s.vectors), rel=1e-6
        )


class TestBlasThreads:
    @pytest.fixture
    def count(self):
        return solver.blas_thread_count()

    def test_every_pool_runs_one_thread_inside(self, count):
        with solver.blas_threads(2):
            with solver.blas_threads(1):
                assert solver.blas_thread_count() == 1
                # the count is process-wide: a thread started inside sees it too
                with ThreadPoolExecutor(1) as pool:
                    assert pool.submit(solver.blas_thread_count).result() == 1
            assert solver.blas_thread_count() == 2
        assert solver.blas_thread_count() == count

    def test_counts_restored_after_an_exception(self, count):
        with pytest.raises(RuntimeError), solver.blas_threads(1):
            raise RuntimeError("solve failed")
        assert solver.blas_thread_count() == count

    def test_no_known_build_is_an_import_error(self, monkeypatch):
        monkeypatch.setattr(solver, "_OPENBLAS_SYMBOLS", (("none_", "", "none_dsyevd_"),))
        with pytest.raises(ImportError, match="none_dsyevd_ with none_get_config"):
            solver._openblas()


class TestInPlaceSolve:
    """eigh solves in the input's buffer and writes H back, so the caller's
    matrix comes out as it went in."""

    @staticmethod
    def production():
        p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=1.0, j=5.0)
        return ham.build_coherent_parity(p, 40, 1)

    def test_input_keeps_buffer_and_bytes(self):
        m = self.production()
        data, before = m.data, m.data.tobytes()
        s = solver.eigh(m)
        assert m.data is data
        assert m.data.tobytes() == before
        assert not np.shares_memory(s.vectors, m.data)
        assert s.vectors.flags.f_contiguous

    def test_repeated_solves_are_byte_identical(self):
        m = self.production()
        first, second = solver.eigh(m), solver.eigh(m)
        assert first.energies.tobytes() == second.energies.tobytes()
        assert first.vectors.tobytes() == second.vectors.tobytes()
        assert first.residual_report == second.residual_report

    def test_read_only_input_is_refused_unchanged(self, monkeypatch):
        # a copy would hold a second dense matrix the budget does not charge
        m = self.production()
        m.data.setflags(write=False)
        before = m.data.tobytes()
        monkeypatch.setattr(solver, "_row_envelopes", no_envelopes)
        with pytest.raises(ValueError, match="writeable C-contiguous float64"):
            solver.eigh(m)
        assert m.data.tobytes() == before

    def test_non_contiguous_input(self, monkeypatch):
        a = banded_with_far_corner(80, seed=21)
        big = np.zeros((160, 160))
        big[::2, ::2] = a
        view = big[::2, ::2]
        assert not view.flags.c_contiguous
        before = big.tobytes()
        monkeypatch.setattr(solver, "_row_envelopes", no_envelopes)
        with pytest.raises(ValueError, match="writeable C-contiguous float64"):
            solver.eigh(wrap(view))
        assert big.tobytes() == before

    def test_band_with_far_corner_restored_exactly(self):
        a = banded_with_far_corner(200, seed=4)
        # a signed zero outside every chunk's nonzero envelope is kept too
        a[100, 180] = a[180, 100] = -0.0
        assert all(
            not (rows.start <= r < rows.stop and cols.start <= c < cols.stop)
            for rows, cols in solver._row_envelopes(a)
            for r, c in ((100, 180), (180, 100))
        )
        before = a.tobytes()
        s = solver.eigh(wrap(a))
        assert a.tobytes() == before
        assert s.residual_report.within_bounds()

    def test_failed_lapack_leaves_input_restored(self, monkeypatch):
        m = self.production()
        before = m.data.tobytes()

        def scribble_then_fail(a, w):
            a[...] = np.nan
            return 7  # info > 0: the iteration failed to converge

        monkeypatch.setattr(solver, "_dsyevd", scribble_then_fail)
        with pytest.raises(SolverError, match="did not converge"):
            solver.eigh(m)
        assert m.data.tobytes() == before


class TestLapackCall:
    """eigh calls the dsyevd of the OpenBLAS numpy links (scipy-openblas in
    numpy's wheels): the same LAPACK and thread pool as np.linalg.eigh,
    without the GIL."""

    @staticmethod
    def sector(j, n_max, gamma=1.0):
        return ham.build_coherent_parity(ham.ModelParams(1.0, 1.0, gamma, j), n_max, 1)

    @pytest.mark.parametrize(
        "threads, make",
        [
            (1, lambda: wrap([[2.5]])),
            (1, lambda: wrap([[0.0, 1.0], [1.0, 0.0]])),
            (1, lambda: TestLapackCall.sector(10.0, 40)),
            (1, lambda: TestLapackCall.sector(10.5, 40)),
            (2, lambda: TestLapackCall.sector(20.0, 60)),
        ],
        ids=["dim-1", "dim-2", "integer-j", "half-integer-j", "above-1024"],
    )
    def test_bit_identical_to_scipy_evd(self, threads, make):
        m = make()
        if threads == 2:
            assert m.dim > pipeline.ONE_BLAS_THREAD_BELOW_DIM
        with solver.blas_threads(threads):
            want_e, want_v = np.linalg.eigh(m.data)
            got = solver.eigh(m)
        assert got.energies.tobytes() == want_e.tobytes()
        assert got.vectors.tobytes() == want_v.tobytes()

    def test_workspace_is_scipy_query(self, monkeypatch):
        # the solve gets the workspace dsyevd_lwork reports, at sizes where it
        # exceeds the 1 + 6n + 2n^2 floor (small n) and where it equals it
        lwork = scipy.linalg.get_lapack_funcs("syevd_lwork", dtype=np.float64)
        sizes = []
        call = solver._DSYEVD

        def spy(jobz, uplo, n, a, lda, w, work, lwork_arg, iwork, liwork, info):
            sizes.append((lwork_arg.value, liwork.value))
            call(jobz, uplo, n, a, lda, w, work, lwork_arg, iwork, liwork, info)

        monkeypatch.setattr(solver, "_DSYEVD", spy)
        for n in (2, 10, 431):
            sizes.clear()
            a = np.eye(n, order="F")
            assert solver._dsyevd(a, np.empty(n)) == 0
            want = lwork(n, compute_v=1, lower=1)
            assert sizes == [(-1, -1), (int(want[0]), want[1])]
        assert sizes[1] == (1 + 6 * 431 + 2 * 431**2, 3 + 5 * 431)

    @pytest.mark.parametrize(
        "a, w",
        [
            (np.eye(3, order="F"), np.empty(2)),
            (np.eye(3, order="F"), np.empty(6)[::2]),
            (np.eye(3, order="F", dtype=np.float32), np.empty(3)),
            (np.eye(4, order="F")[:, ::2][:2], np.empty(2)),
            (np.ones((3, 2), order="F"), np.empty(3)),
        ],
        ids=["short-w", "strided-w", "float32", "strided-a", "not-square"],
    )
    def test_bad_buffers_are_refused_before_lapack(self, monkeypatch, a, w):
        def never(*args):
            raise AssertionError("LAPACK called")

        monkeypatch.setattr(solver, "_DSYEVD", never)
        with pytest.raises(ValueError, match="dsyevd takes"):
            solver._dsyevd(a, w)

    def test_illegal_argument_raises_and_restores(self, monkeypatch):
        m = TestInPlaceSolve.production()
        before = m.data.tobytes()
        monkeypatch.setattr(solver, "_dsyevd", lambda a, w: -4)
        with pytest.raises(RuntimeError, match="rejected argument 4"):
            solver.eigh(m)
        assert m.data.tobytes() == before

    def test_solve_releases_the_gil(self):
        # while one thread is inside dsyevd, another keeps running Python
        # code: no gap between its clock reads spans the solve (a call that
        # held the GIL left one gap as long as the whole 0.45 s solve)
        m = self.sector(20.0, 60)
        ticks = []
        done = threading.Event()

        def count():
            while not done.is_set():
                ticks.append(time.perf_counter())

        a = np.array(m.data.T, order="F")
        with solver.blas_threads(1):
            counter = threading.Thread(target=count)
            counter.start()
            try:
                t0 = time.perf_counter()
                solver._dsyevd(a, np.empty(m.dim))
                t1 = time.perf_counter()
            finally:
                done.set()
                counter.join(timeout=10)
        assert not counter.is_alive()
        reads = [t0, *(t for t in ticks if t0 < t < t1), t1]
        assert max(b - a for a, b in zip(reads, reads[1:])) < (t1 - t0) / 4
