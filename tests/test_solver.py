import ctypes
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
from oracles import (
    build_coherent, build_fock, full_index, full_peres_matrix, ortho_defect, symmetric_matrix,
)


def wrap(data):
    return symmetric_matrix(np.asarray(data, dtype=float), None)


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


class TestPanelledGram:
    """The audit's orthonormality defect, taken in column panels of the
    Gram's upper triangle, equals the full V^T V - I oracle's.  dim 1101 has
    eight whole 128-column panels and a partial one."""

    DIM = 1101

    @pytest.fixture(scope="class")
    def orthonormal(self):
        rng = np.random.default_rng(17)
        return np.asfortranarray(np.linalg.qr(rng.standard_normal((self.DIM, self.DIM)))[0])

    @pytest.mark.parametrize(
        "i, j",
        [(5, 100), (100, 5), (600, 900), (900, 600), (1050, 1090), (1090, 1050),
         (10, 1080), (1080, 10), (127, 128), (128, 127), (0, 0), (1095, 1095)],
        ids=["first", "first-below", "middle", "middle-below", "last-partial",
             "last-partial-below", "first-to-last", "last-to-first", "panel-edge",
             "panel-edge-below", "first-diagonal", "last-partial-diagonal"],
    )
    def test_planted_defect_matches_full_gram(self, orthonormal, i, j):
        # column j picks up 1e-7 of column i: Gram entries (i, j) and (j, i)
        # read 1e-7 (entry (j, j) reads 1 + 2e-7 when i = j), everything else
        # stays at rounding level
        assert solver._GRAM_PANEL == 128
        v = orthonormal.copy(order="F")
        v[:, j] += 1e-7 * v[:, i]
        rep = solver.residual_report_for(np.eye(self.DIM), np.ones(self.DIM), v)
        want = ortho_defect(v)
        assert want == pytest.approx(2e-7 if i == j else 1e-7, rel=1e-6)
        assert rep.max_ortho_defect == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("col", [3, 700, 1100], ids=["first", "middle", "last-partial"])
    def test_nan_is_not_hidden(self, orthonormal, col):
        v = orthonormal.copy(order="F")
        v[7, col] = np.nan
        rep = solver.residual_report_for(np.eye(self.DIM), np.ones(self.DIM), v)
        assert np.isnan(rep.max_ortho_defect)
        assert not rep.within_bounds()


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


def no_refill(buf):
    """A matrix's refill where eigh must refuse its input before it touches
    anything."""
    raise AssertionError("input written to before it was checked")


def read_only(a):
    a.setflags(write=False)
    return a


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
        monkeypatch.setattr(
            solver, "_OPENBLAS_SYMBOLS",
            (("none_", "", ("none_dsytrd_", "none_dstedc_", "none_dormtr_")),),
        )
        with pytest.raises(
            ImportError, match="none_dsytrd_, none_dstedc_, none_dormtr_ with none_get_config"
        ):
            solver._openblas()


class TestInPlaceSolve:
    """eigh solves in the input's buffer and writes H back, so the caller's
    matrix comes out as it went in."""

    @staticmethod
    def productions():
        """A sector at integer and at half-integer j, written back by its
        build: only the half-integer one holds the m = 1/2 block that couples
        to itself."""
        for j in (5.0, 5.5):
            p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=1.0, j=j)
            yield ham.build_coherent_parity(p, 40, 1)

    def test_input_keeps_buffer_and_bytes(self):
        for m in self.productions():
            data, before = m.data, m.data.tobytes()
            s = solver.eigh(m)
            assert m.data is data
            assert m.data.tobytes() == before
            assert not np.shares_memory(s.vectors, m.data)
            assert s.vectors.flags.f_contiguous

    def test_repeated_solves_are_byte_identical(self):
        for m in self.productions():
            first, second = solver.eigh(m), solver.eigh(m)
            assert first.energies.tobytes() == second.energies.tobytes()
            assert first.vectors.tobytes() == second.vectors.tobytes()
            assert first.residual_report == second.residual_report

    def test_read_only_input_is_refused_unchanged(self):
        # a copy would hold a second dense matrix the budget does not charge
        for m in self.productions():
            m.data.setflags(write=False)
            m.refill = no_refill
            before = m.data.tobytes()
            with pytest.raises(ValueError, match="writeable C-contiguous float64"):
                solver.eigh(m)
            assert m.data.tobytes() == before

    def test_non_contiguous_input(self):
        a = banded_with_far_corner(80, seed=21)
        big = np.zeros((160, 160))
        big[::2, ::2] = a
        view = big[::2, ::2]
        assert not view.flags.c_contiguous
        before = big.tobytes()
        with pytest.raises(ValueError, match="writeable C-contiguous float64"):
            solver.eigh(ham.SymmetricMatrix(view, None, no_refill))
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

    @pytest.mark.parametrize(
        "pairs",
        [[(100, 180)], [(180, 100)], [(10, 590), (300, 310), (599, 590)]],
        ids=["minus-zero-above", "minus-zero-below", "off-diagonal-diagonal-and-corner-tiles"],
    )
    def test_asymmetric_signed_zero_restored_exactly(self, pairs):
        # SymmetricMatrix accepts 0.0 against -0.0 (they compare equal);
        # mirroring the lower triangle alone would copy the lower one's sign
        a = banded_with_far_corner(600, seed=8)
        for r, c in pairs:
            a[r, c], a[c, r] = -0.0, 0.0
        m = wrap(a)
        before = a.tobytes()
        # the reference reads the triangle LAPACK reads: a's upper one
        want_e, want_v = np.linalg.eigh(np.where(np.tri(600, dtype=bool), a.T, a))
        s = solver.eigh(m)
        assert a.tobytes() == before
        assert s.energies.tobytes() == want_e.tobytes()
        assert s.vectors.tobytes() == want_v.tobytes()

    def test_failed_lapack_leaves_input_restored(self, monkeypatch):
        reduce = solver._DSYTRD

        def fail(*args):
            args[-1].value = 7  # info > 0: the iteration failed to converge

        monkeypatch.setattr(solver, "_DSTEDC", fail)
        for m in self.productions():
            before = m.data.tobytes()

            def reduce_then_scribble(*args):
                # the reduction, then NaN over all that LAPACK may write of H:
                # data's upper triangle and diagonal (data.T's lower one)
                reduce(*args)
                if args[8].value > 0:
                    m.data[np.triu_indices(m.dim)] = np.nan

            monkeypatch.setattr(solver, "_DSYTRD", reduce_then_scribble)
            with pytest.raises(SolverError, match="did not converge"):
                solver.eigh(m)
            assert m.data.tobytes() == before

    def test_dstedc_scribbling_over_its_z_leaves_input_restored(self, monkeypatch):
        # dstedc's Z is H's own buffer; NaN over all of it, then a failure
        for m in self.productions():
            before = m.data.tobytes()

            def scribble_then_fail(compz, n, d, e, z, *rest):
                assert z == m.data.ctypes.data
                m.data[...] = np.nan
                rest[-1].value = 7

            monkeypatch.setattr(solver, "_DSTEDC", scribble_then_fail)
            with pytest.raises(SolverError, match="did not converge"):
                solver.eigh(m)
            assert m.data.tobytes() == before

    @pytest.mark.parametrize(
        "largest, solves",
        [(2.0**-485, True), (np.nextafter(2.0**-485, 0.0), False), (2.0**485, True),
         (np.nextafter(2.0**485, np.inf), False), (0.0, True)],
        ids=["smallest", "below-smallest", "largest", "above-largest", "zero"],
    )
    def test_input_lapack_would_rescale_is_refused_unchanged(self, largest, solves):
        # dsyevd rescales a matrix whose largest |entry| lies outside
        # [2**-485, 2**485]; eigh refuses it before touching or solving anything
        a = banded_with_far_corner(40, seed=9)
        a /= np.abs(a).max()  # the largest |entry| is now exactly 1
        a *= largest
        before = a.tobytes()
        if solves:
            want_e, want_v = np.linalg.eigh(a)
            s = solver.eigh(wrap(a))
            assert s.energies.tobytes() == want_e.tobytes()
            assert s.vectors.tobytes() == want_v.tobytes()
        else:
            with pytest.raises(ValueError, match="LAPACK does not rescale"):
                solver.eigh(ham.SymmetricMatrix(a, None, no_refill))
        assert a.tobytes() == before


class TestLapackCall:
    """eigh calls the dsyevd of the OpenBLAS numpy links (scipy-openblas in
    numpy's wheels): the same LAPACK and thread pool as np.linalg.eigh,
    without the GIL."""

    @staticmethod
    def sector(j, n_max, gamma=1.0):
        return ham.build_coherent_parity(ham.ModelParams(1.0, 1.0, gamma, j), n_max, 1)

    @staticmethod
    def random_symmetric(dim):
        a = np.random.default_rng(dim).standard_normal((dim, dim))
        return wrap(a + a.T)

    CASES = {
        "dim-1": (1, lambda: wrap([[2.5]])),
        "dim-2": (1, lambda: wrap([[0.0, 1.0], [1.0, 0.0]])),
        # dsyevd's workspace query exceeds its 1 + 6n + 2n^2 floor
        "dim-10": (1, lambda: TestLapackCall.random_symmetric(10)),
        # dsyevd passes dormtr less than its query plus dormqr's block
        "dim-50": (1, lambda: TestLapackCall.random_symmetric(50)),
        "integer-j": (1, lambda: TestLapackCall.sector(10.0, 40)),
        "half-integer-j": (1, lambda: TestLapackCall.sector(10.5, 40)),
        "above-solve-ahead": (2, lambda: TestLapackCall.sector(20.0, 29)),
    }

    @pytest.mark.parametrize(
        "case, threads",
        [(case, t) for case, (t, _) in CASES.items()]
        + [(case, 3 - t) for case, (t, _) in CASES.items()],
        ids=list(CASES) + [f"{case}-{3 - t}-threads" for case, (t, _) in CASES.items()],
    )
    def test_bit_identical_to_scipy_evd(self, case, threads):
        m = self.CASES[case][1]()
        if case == "above-solve-ahead":
            # the pipeline solves sectors this large on the process's threads
            assert m.dim > pipeline.SOLVE_AHEAD_BELOW_DIM
        with solver.blas_threads(threads):
            want_e, want_v = np.linalg.eigh(m.data)
            got = solver.eigh(m)
        assert got.energies.tobytes() == want_e.tobytes()
        assert got.vectors.tobytes() == want_v.tobytes()

    def test_workspace_is_scipy_query(self, monkeypatch):
        # dstedc gets the part of the workspace syevd_lwork reports that
        # dsyevd passes it, all but its 2n + n^2 for the tridiagonal and the
        # vectors, at sizes where the query exceeds the 1 + 6n + 2n^2 floor
        # (small n) and where it equals it; dormtr gets its own query plus
        # dormqr's 65 x 64 block, or dsyevd's share where that is smaller
        lwork = scipy.linalg.get_lapack_funcs("syevd_lwork", dtype=np.float64)
        sizes = []
        dstedc, dormtr = solver._DSTEDC, solver._DORMTR

        def stedc_spy(compz, n, d, e, z, ldz, work, lwork_arg, iwork, liwork, info):
            sizes.append(("dstedc", lwork_arg.value, liwork.value))
            dstedc(compz, n, d, e, z, ldz, work, lwork_arg, iwork, liwork, info)

        def ormtr_spy(side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork_arg, info):
            dormtr(side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork_arg, info)
            if lwork_arg.value == -1:
                queries.append(int(ctypes.c_double.from_address(work).value))
            else:
                sizes.append(("dormtr", lwork_arg.value))

        monkeypatch.setattr(solver, "_DSTEDC", stedc_spy)
        monkeypatch.setattr(solver, "_DORMTR", ormtr_spy)
        for n in (2, 10, 50, 431):
            sizes.clear()
            queries = []
            solver._evd_stages(np.eye(n, order="F"), np.empty(n))
            want = lwork(n, compute_v=1, lower=1)
            share = int(want[0]) - 2 * n - n * n
            assert sizes == [("dstedc", share, want[1]),
                             ("dormtr", min(share, queries[0] + 65 * 64))]
        # at n = 431 dormtr's own workspace is a tenth of dstedc's
        assert sizes == [("dstedc", 431**2 + 4 * 431 + 1, 3 + 5 * 431),
                         ("dormtr", queries[0] + 65 * 64)]
        assert queries[0] + 65 * 64 < (431**2 + 4 * 431 + 1) / 10

    @pytest.mark.parametrize(
        "n, lwork",
        [(431, lambda query: query), (50, lambda query: query + 65 * 64)],
        ids=["bare-query-431", "query-and-block-above-share-50"],
    )
    def test_other_dormtr_workspace_changes_the_vectors(self, monkeypatch, n, lwork):
        # dormqr narrows its blocks to a workspace short of the 65 x 64 block
        # that dormtr's query leaves out, and dsyevd's own share at n = 50 is
        # that short: either change moves the vectors in their last bits
        m = self.random_symmetric(n)
        dormtr = solver._DORMTR
        queries = []

        def other_lwork(side, uplo, trans, m_, n_, a, lda, tau, c, ldc, work, lwork_arg, info):
            if lwork_arg.value != -1:
                lwork_arg = type(lwork_arg)(lwork(queries[0]))
            dormtr(side, uplo, trans, m_, n_, a, lda, tau, c, ldc, work, lwork_arg, info)
            if lwork_arg.value == -1:
                queries.append(int(ctypes.c_double.from_address(work).value))

        monkeypatch.setattr(solver, "_DORMTR", other_lwork)
        with solver.blas_threads(1):
            want_e, want_v = np.linalg.eigh(m.data)
            got = solver.eigh(m)
        assert got.energies.tobytes() == want_e.tobytes()
        assert got.vectors.tobytes() != want_v.tobytes()
        np.testing.assert_allclose(np.abs(got.vectors), np.abs(want_v), atol=1e-12)

    @pytest.mark.parametrize(
        "a, w",
        [
            (np.eye(3, order="F"), np.empty(2)),
            (np.eye(3, order="F"), np.empty(6)[::2]),
            (np.eye(3, order="F", dtype=np.float32), np.empty(3)),
            (np.eye(4, order="F")[:, ::2][:2], np.empty(2)),
            (np.ones((3, 2), order="F"), np.empty(3)),
            (np.eye(3), np.empty(3)),
            (read_only(np.eye(3, order="F")), np.empty(3)),
        ],
        ids=["short-w", "strided-w", "float32", "strided-a", "not-square", "c-ordered-a",
             "read-only-a"],
    )
    def test_bad_buffers_are_refused_before_lapack(self, monkeypatch, a, w):
        def never(*args):
            raise AssertionError("LAPACK called")

        for stage in ("_DSYTRD", "_DSTEDC", "_DORMTR"):
            monkeypatch.setattr(solver, stage, never)
        with pytest.raises(ValueError, match="dsyevd's stages take"):
            solver._evd_stages(a, w)

    def test_illegal_argument_raises_and_restores(self, monkeypatch):
        # dormtr rejects an argument after dsytrd has overwritten data's
        # upper triangle

        def reject(*args):
            args[-1].value = -4

        monkeypatch.setattr(solver, "_DORMTR", reject)
        for m in TestInPlaceSolve.productions():
            before = m.data.tobytes()
            with pytest.raises(RuntimeError, match="dormtr rejected argument 4"):
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
                solver._evd_stages(a, np.empty(m.dim))
                t1 = time.perf_counter()
            finally:
                done.set()
                counter.join(timeout=10)
        assert not counter.is_alive()
        reads = [t0, *(t for t in ticks if t0 < t < t1), t1]
        assert max(b - a for a, b in zip(reads, reads[1:])) < (t1 - t0) / 4
