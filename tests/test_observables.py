import numpy as np
import pytest

from dickelat import hamiltonian as ham
from dickelat import observables as obs
from dickelat import solver
from dickelat.basis import BasisSpec, enumerate_basis
from oracles import (
    build_coherent,
    build_fock,
    coherent_states_in_fock,
    fock_parity_diag,
    full_index,
    full_peres_matrix,
    index_of,
    label_of,
    parity_projector,
)


def params(gamma, j, omega=1.0, omega0=1.0):
    return ham.ModelParams(omega=omega, omega0=omega0, gamma=gamma, j=j)


def solve(matrix):
    return solver.eigh(matrix)


def sector_solve(p, n_max, sector):
    """(spectrum, index) of one parity sector."""
    h = ham.build_coherent_parity(p, n_max, sector)
    return solve(h), enumerate_basis(h.basis)


def sector_union(p, n_max, values):
    """Energies of both sectors, merged in ascending order, with the per-state
    arrays that values(spectrum, index) returns, reordered alike."""
    parts = [sector_solve(p, n_max, s) for s in (1, -1)]
    energies = np.concatenate([s.energies for s, _ in parts])
    order = np.argsort(energies, kind="stable")
    return energies[order], np.concatenate([values(s, idx) for s, idx in parts])[order]


def fock_parities(spectrum, j, n_max):
    """<Pi> per Fock-basis eigenstate, from the diagonal Fock parity."""
    return (spectrum.vectors**2 * fock_parity_diag(j, n_max)[:, None]).sum(axis=0)


class TestPeresMatrix:
    def test_jx_rejected(self):
        p = params(0.3, 1.0)
        idx = enumerate_basis(BasisSpec(1.0, 4, 1))
        with pytest.raises(ValueError, match="parity"):
            obs.peres_matrix("Jx", idx, p)

    def test_photon_number_fock_zero_coupling(self):
        # incommensurate omega0 keeps E = n + 0.21 m non-degenerate, so the
        # state nearest E = 5 - 0.105 is exactly |n=5, m=-1/2>
        p = params(0.0, 0.5, omega0=0.21)
        h = build_fock(p, 8)
        idx = full_index(h.basis)
        s = solve(h)
        vals = obs.expectation(s, full_peres_matrix("photon_n", idx, p))
        k = int(np.argmin(np.abs(s.energies - (5.0 - 0.105))))
        assert vals[k] == pytest.approx(5.0, abs=1e-12)

    def test_jx2_coherent_diagonal(self):
        p = params(0.6, 3.0)
        idx = enumerate_basis(BasisSpec(3.0, 5, 1))
        op = obs.peres_matrix("Jx2", idx, p)
        i = index_of(idx, 2, 3.0)
        assert op.data[i, i] == 9.0
        assert np.count_nonzero(op.data - np.diag(np.diag(op.data))) == 0

    @pytest.mark.parametrize("op_kind", ["Jz", "Jx2", "photon_n"])
    def test_cross_basis_expectations(self, op_kind):
        # parity-sector expectations over low states match Fock-basis ones
        p = params(0.75, 1.0)
        hf = build_fock(p, 300)
        sf = solve(hf)
        ef = obs.expectation(sf, full_peres_matrix(op_kind, full_index(hf.basis), p))
        energies, ep = sector_union(
            p, 60, lambda s, idx: obs.expectation(s, obs.peres_matrix(op_kind, idx, p))
        )
        assert np.abs(energies[:10] - sf.energies[:10]).max() < 1e-8
        assert np.abs(ef[:10] - ep[:10]).max() < 1e-8

    def test_operators_match_rotated_fock_elementwise(self):
        # Fock operators rotated into the full displaced shells, then
        # projected onto each parity sector, give the package's matrices
        p = params(0.45, 1.5)
        n_coh, n_fock = 8, 80
        b = coherent_states_in_fock(p, n_coh, n_fock)
        idx_c = full_index(build_coherent(p, n_coh).basis)
        idx_f = full_index(build_fock(p, n_fock).basis)
        for kind in ("Jz", "Jx2", "photon_n"):
            of = full_peres_matrix(kind, idx_f, p)
            oc = full_peres_matrix(kind, idx_c, p)
            assert np.abs(b.T @ of.data @ b - oc.data).max() < 1e-10
            for sector in (1, -1):
                idx_p = enumerate_basis(BasisSpec(p.j, n_coh, sector))
                proj = parity_projector(idx_c, idx_p)
                op = obs.peres_matrix(kind, idx_p, p)
                assert np.abs(proj.T @ oc.data @ proj - op.data).max() < 1e-12, kind


class TestExpectation:
    def test_identity_gives_one(self):
        p = params(0.4, 1.0)
        h = ham.build_coherent_parity(p, 10, 1)
        s = solve(h)
        ident = ham.SymmetricMatrix(np.eye(h.dim), h.basis)
        assert np.allclose(obs.expectation(s, ident), 1.0, atol=1e-12)

    def test_basis_mismatch_rejected(self):
        p = params(0.4, 1.5)
        s, _ = sector_solve(p, 10, 1)
        op = obs.peres_matrix("Jz", enumerate_basis(BasisSpec(1.5, 10, -1)), p)
        assert op.dim == s.dim
        with pytest.raises(ValueError, match="bases"):
            obs.expectation(s, op)

    def test_near_zero_coupling_ground_state(self):
        # <Jz> ~ -j, <n> ~ 0, E/j ~ -1, <Jx^2> = j/2 at gamma -> 0
        p = params(0.005, 20.0)
        s, idx = sector_solve(p, 40, 1)
        jz = obs.expectation(s, obs.peres_matrix("Jz", idx, p))
        nn = obs.expectation(s, obs.peres_matrix("photon_n", idx, p))
        jx2 = obs.expectation(s, obs.peres_matrix("Jx2", idx, p))
        assert jz[0] == pytest.approx(-20.0, abs=1e-3)
        assert nn[0] == pytest.approx(0.0, abs=1e-3)
        assert s.energies[0] / p.j == pytest.approx(-1.0, abs=1e-3)
        assert jx2[0] == pytest.approx(p.j / 2, abs=1e-2)

    def test_bounds_inherited(self):
        p = params(0.9, 2.0)
        eps = 1e-9
        for sector in (1, -1):
            s, idx = sector_solve(p, 30, sector)
            jz = obs.expectation(s, obs.peres_matrix("Jz", idx, p))
            jx2 = obs.expectation(s, obs.peres_matrix("Jx2", idx, p))
            nn = obs.expectation(s, obs.peres_matrix("photon_n", idx, p))
            assert jz.min() >= -2.0 - eps and jz.max() <= 2.0 + eps
            assert jx2.min() >= -eps and jx2.max() <= 4.0 + eps
            assert nn.min() >= -eps


class TestParity:
    def test_parity_squares_to_identity(self):
        pi = fock_parity_diag(1.5, 6)
        assert np.array_equal(pi * pi, np.ones_like(pi))

    def test_zero_coupling_ground_state_parity(self):
        # |n=0, m=-j> (E = -j, Lambda = 0) is even, so it lies in sector +1
        p = params(0.0, 1.0)
        plus, _ = sector_solve(p, 6, 1)
        minus, _ = sector_solve(p, 6, -1)
        assert plus.energies[0] == pytest.approx(-1.0, abs=1e-13)
        assert minus.energies[0] == pytest.approx(0.0, abs=1e-13)
        assert obs.parity_labels(plus)[0] == 1

    def test_action_on_displaced_shells(self):
        # Pi |N; j, m> = (-1)^(2j) (-1)^N |N; j, -m> in the fock representation
        for j in (1.0, 1.5):
            p = params(0.4, j)
            n_coh, n_fock = 6, 70
            b = coherent_states_in_fock(p, n_coh, n_fock)
            idx = full_index(build_coherent(p, n_coh).basis)
            pi = fock_parity_diag(j, n_fock)
            twist = 1.0 if round(2 * j) % 2 == 0 else -1.0
            for col in range(idx.size):
                n, m = label_of(idx, col)
                partner = index_of(idx, n, -m)
                expect = twist * (-1.0) ** n * b[:, partner]
                assert np.abs(pi * b[:, col] - expect).max() < 1e-10

    def test_block_count_oracle(self):
        # Fock-basis parity counts match the parity-sector spectra, energy-resolved
        p = params(0.75, 5.0)  # 1.5 gamma_c, 10 atoms
        n_fock = 100
        s = solve(build_fock(p, n_fock))
        e_cut = 10.0
        sel = s.energies <= e_cut
        pexp = fock_parities(s, p.j, n_fock)[sel]
        # no level below the cut mixes the parities
        assert np.abs(np.abs(pexp) - 1.0).max() < 1e-6
        wp = np.linalg.eigvalsh(ham.build_coherent_parity(p, 80, +1).data)
        wm = np.linalg.eigvalsh(ham.build_coherent_parity(p, 80, -1).data)
        assert int(np.sum(pexp > 0)) == int(np.sum(wp <= e_cut))
        assert int(np.sum(pexp < 0)) == int(np.sum(wm <= e_cut))

    def test_parity_labels_coherent_matches_fock(self):
        # state-by-state: the sector labels of the merged parity spectra agree
        # with the Fock-basis parity of the same levels
        p = params(0.45, 1.5)
        n_fock = 160
        sf = solve(build_fock(p, n_fock))
        energies, labels = sector_union(p, 40, lambda s, idx: obs.parity_labels(s))
        n_low = 25
        assert np.abs(energies[:n_low] - sf.energies[:n_low]).max() < 1e-9
        labels_f = np.where(fock_parities(sf, p.j, n_fock)[:n_low] > 0, 1, -1)
        assert np.array_equal(labels[:n_low], labels_f)

    def test_parity_labels_sector_constant(self):
        p = params(0.45, 2.0)
        s = solve(ham.build_coherent_parity(p, 12, -1))
        assert np.array_equal(obs.parity_labels(s), -np.ones(s.dim, dtype=int))


class TestDeltaP:
    def test_zero_top_shell_amplitude(self):
        # omega0 = 0: the matrix is diagonal, eigenvectors are unit vectors,
        # and any state outside the top shell has exactly zero weight there
        p = ham.ModelParams(omega=1.0, omega0=0.0, gamma=0.5, j=1.0)
        s, idx = sector_solve(p, 6, 1)
        rep = obs.delta_p(s, idx)
        rows = idx.rows_with_excitation(6)
        low_states = np.abs(s.vectors[rows, :]).max(axis=0) == 0.0
        assert low_states.sum() == s.dim - rows.size
        assert np.all(rep.delta_p[low_states] == 0.0)

    def test_probability_sum_rule(self):
        p = params(0.7, 1.5)
        s, idx = sector_solve(p, 25, -1)
        # the shells partition the basis: per-state shell weights sum to one,
        # and the top shell's weight is the delta_p certificate
        probs = np.array(
            [(s.vectors[idx.rows_with_excitation(n), :] ** 2).sum(axis=0) for n in range(26)]
        )
        assert np.abs(probs.sum(axis=0) - 1.0).max() < 1e-12
        assert np.array_equal(probs[-1], obs.delta_p(s, idx).delta_p)

    def test_converged_count_prefix_rule(self):
        p = params(0.7, 1.0)
        s, idx = sector_solve(p, 30, 1)
        r = obs.delta_p(s, idx, tolerance=1e-12)
        dp = r.delta_p
        assert 0 < r.converged_count < s.dim
        assert np.all(dp[: r.converged_count] < 1e-12)
        assert dp[r.converged_count] >= 1e-12

    def test_monotone_sensitivity_under_larger_truncation(self):
        # converged states stay converged when n_max grows by 25 (2x tolerance)
        p = params(0.7, 2.0)
        tol = 1e-12
        for sector in (1, -1):
            s1, idx1 = sector_solve(p, 40, sector)
            r1 = obs.delta_p(s1, idx1, tolerance=tol)
            s2, idx2 = sector_solve(p, 65, sector)
            r2 = obs.delta_p(s2, idx2, tolerance=2 * tol)
            assert r2.converged_count >= r1.converged_count
            assert np.all(r2.delta_p[: r1.converged_count] < 2 * tol)


def dense_expectation(vectors, op):
    return (vectors * (op @ vectors)).sum(axis=0)


class TestEnvelopeExpectation:
    @pytest.mark.parametrize("dim", [1, 63, 65, 130, 331])
    def test_random_operator_matches_dense(self, dim):
        rng = np.random.default_rng(dim)
        a = np.triu(np.tril(rng.standard_normal((dim, dim)), 2), -2)
        a = a + a.T
        a[0, -1] = a[-1, 0] = -1.3
        v = rng.standard_normal((dim, dim))
        s = solver.Spectrum(np.zeros(dim), v, None, None)
        want = dense_expectation(v, a)
        got = obs.expectation(s, ham.SymmetricMatrix(a, None))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["fock", "coherent", "coherent-parity"])
    def test_peres_operators_match_dense(self, kind):
        # the reference bases' operators are banded too, with other shapes
        p = params(0.8, 2.0)
        if kind == "coherent-parity":
            h = ham.build_coherent_parity(p, 40, 1)
            idx = enumerate_basis(h.basis)
            peres = obs.peres_matrix
        else:
            h = {"fock": build_fock, "coherent": build_coherent}[kind](p, 40)
            idx = full_index(h.basis)
            peres = full_peres_matrix
        s = solve(h)
        for op_kind in obs.PERES_OPS:
            op = peres(op_kind, idx, p)
            want = dense_expectation(s.vectors, op.data)
            got = obs.expectation(s, op)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), op_kind

    def test_envelope_area_stays_banded(self):
        # count-based guard against a silent fallback to dense products on
        # the production basis (N = 40, n_max = 160, one parity sector)
        p = params(1.0, 20.0)
        h = ham.build_coherent_parity(p, 160, 1)
        idx = enumerate_basis(h.basis)
        mats = {"H": h.data}
        mats.update({k: obs.peres_matrix(k, idx, p).data for k in obs.PERES_OPS})
        limits = {"H": 0.20, "Jz": 0.20, "Jx2": 0.03, "photon_n": 0.03}
        for name, mat in mats.items():
            area = sum(
                (rows.stop - rows.start) * (cols.stop - cols.start)
                for rows, cols in solver._row_envelopes(mat)
            )
            assert area <= limits[name] * h.dim**2, (name, area / h.dim**2)
