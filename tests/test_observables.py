import numpy as np
import pytest

from dickelat import hamiltonian as ham
from dickelat import observables as obs
from dickelat import solver
from oracles import (
    build_coherent,
    build_fock,
    coherent_states_in_fock,
    dense_expectation,
    fock_parity_diag,
    full_index,
    full_peres_matrix,
    index_of,
    label_of,
    parity_projector,
    sector_peres_matrix,
)


def params(gamma, j, omega=1.0, omega0=1.0):
    return ham.ModelParams(omega=omega, omega0=omega0, gamma=gamma, j=j)


def solve(matrix):
    return solver.eigh(matrix)


def sector_solve(p, n_max, sector):
    """(spectrum, ladder) of one parity sector."""
    ladder = ham.sector_ladder(p, n_max, sector)
    return solve(ham.build_sector(ladder)), ladder


def sector_union(p, n_max, values):
    """Energies of both sectors, merged in ascending order, with the per-state
    arrays that values(spectrum, ladder) returns, reordered alike."""
    parts = [sector_solve(p, n_max, s) for s in (1, -1)]
    energies = np.concatenate([s.energies for s, _ in parts])
    order = np.argsort(energies, kind="stable")
    return energies[order], np.concatenate([values(s, lad) for s, lad in parts])[order]


def fock_parities(spectrum, j, n_max):
    """<Pi> per Fock-basis eigenstate, from the diagonal Fock parity."""
    return (spectrum.vectors**2 * fock_parity_diag(j, n_max)[:, None]).sum(axis=0)


def ladder_matrix(op_kind, ladder):
    """The operator that peres_expectation applies, read back entry by entry:
    <e_a|O|e_a> = O_aa and <e_a + e_b|O|e_a + e_b> = O_aa + O_bb + 2 O_ab."""
    dim = ladder.index.size
    a, b = np.triu_indices(dim, 1)
    vectors = np.eye(dim)[:, np.concatenate([np.arange(dim), a])]
    vectors[b, dim + np.arange(a.size)] = 1.0
    probe = solver.Spectrum(np.zeros(vectors.shape[1]), vectors, ladder.index.spec, None)
    values = obs.peres_expectation(op_kind, probe, ladder)
    mat = np.diag(values[:dim])
    mat[a, b] = mat[b, a] = (values[dim:] - values[a] - values[b]) / 2
    return mat


class TestPeresMatrix:
    def test_jx_rejected(self):
        # Jx connects the two parity sectors, so it is no Peres operator of one
        s, ladder = sector_solve(params(0.3, 1.0), 4, 1)
        with pytest.raises(ValueError, match="unknown Peres operator 'Jx'"):
            obs.peres_expectation("Jx", s, ladder)

    def test_photon_number_fock_zero_coupling(self):
        # incommensurate omega0 keeps E = n + 0.21 m non-degenerate, so the
        # state nearest E = 5 - 0.105 is exactly |n=5, m=-1/2>
        p = params(0.0, 0.5, omega0=0.21)
        energies, vals = sector_union(
            p, 8, lambda s, ladder: obs.peres_expectation("photon_n", s, ladder)
        )
        k = int(np.argmin(np.abs(energies - (5.0 - 0.105))))
        assert vals[k] == pytest.approx(5.0, abs=1e-12)

    def test_jx2_coherent_diagonal(self):
        p = params(0.6, 3.0)
        ladder = ham.sector_ladder(p, 5, 1)
        op = ladder_matrix("Jx2", ladder)
        i = index_of(ladder.index, 2, 3.0)
        assert op[i, i] == 9.0
        assert np.count_nonzero(op - np.diag(np.diag(op))) == 0

    @pytest.mark.parametrize("op_kind", ["Jz", "Jx2", "photon_n"])
    def test_cross_basis_expectations(self, op_kind):
        # parity-sector expectations over low states match Fock-basis ones
        p = params(0.75, 1.0)
        hf = build_fock(p, 300)
        sf = solve(hf)
        ef = dense_expectation(sf.vectors, full_peres_matrix(op_kind, full_index(hf.basis), p).data)
        energies, ep = sector_union(
            p, 60, lambda s, ladder: obs.peres_expectation(op_kind, s, ladder)
        )
        assert np.abs(energies[:10] - sf.energies[:10]).max() < 1e-8
        assert np.abs(ef[:10] - ep[:10]).max() < 1e-8

    def test_operators_match_rotated_fock_elementwise(self):
        # Fock operators rotated into the full displaced shells, then
        # projected onto each parity sector, give the operators that the
        # package applies, read back entry by entry
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
                ladder = ham.sector_ladder(p, n_coh, sector)
                proj = parity_projector(idx_c, ladder.index)
                op = ladder_matrix(kind, ladder)
                assert np.abs(proj.T @ oc.data @ proj - op).max() < 1e-12, kind


class TestExpectation:
    def test_identity_gives_one(self):
        # at j = 1/2 every label has m^2 = 1/4, so Jx^2 is the identity / 4
        p = params(0.4, 0.5)
        s, ladder = sector_solve(p, 10, 1)
        assert np.allclose(4.0 * obs.peres_expectation("Jx2", s, ladder), 1.0, atol=1e-12)

    def test_trace_sum_rules(self):
        # over a complete orthonormal set of eigenstates every expectation
        # sums to the operator's trace: sum m^2, sum (N + G^2 m^2), and for
        # integer j a traceless Jz
        p = params(0.4, 1.0)
        s, ladder = sector_solve(p, 10, 1)
        m, n = ladder.index.m_vals, ladder.index.n_exc
        sums = {op: obs.peres_expectation(op, s, ladder).sum() for op in obs.PERES_OPS}
        assert sums["Jx2"] == pytest.approx((m**2).sum(), rel=1e-12)
        assert sums["photon_n"] == pytest.approx((n + (p.g_disp * m) ** 2).sum(), rel=1e-12)
        assert abs(sums["Jz"]) < 1e-12 * s.dim

    def test_basis_mismatch_rejected(self):
        p = params(0.4, 1.5)
        s, _ = sector_solve(p, 10, 1)
        other = ham.sector_ladder(p, 10, -1)
        assert other.index.size == s.dim
        with pytest.raises(ValueError, match="bases"):
            obs.peres_expectation("Jz", s, other)

    def test_near_zero_coupling_ground_state(self):
        # <Jz> ~ -j, <n> ~ 0, E/j ~ -1, <Jx^2> = j/2 at gamma -> 0
        p = params(0.005, 20.0)
        s, ladder = sector_solve(p, 40, 1)
        jz = obs.peres_expectation("Jz", s, ladder)
        nn = obs.peres_expectation("photon_n", s, ladder)
        jx2 = obs.peres_expectation("Jx2", s, ladder)
        assert jz[0] == pytest.approx(-20.0, abs=1e-3)
        assert nn[0] == pytest.approx(0.0, abs=1e-3)
        assert s.energies[0] / p.j == pytest.approx(-1.0, abs=1e-3)
        assert jx2[0] == pytest.approx(p.j / 2, abs=1e-2)

    def test_bounds_inherited(self):
        p = params(0.9, 2.0)
        eps = 1e-9
        for sector in (1, -1):
            s, ladder = sector_solve(p, 30, sector)
            jz = obs.peres_expectation("Jz", s, ladder)
            jx2 = obs.peres_expectation("Jx2", s, ladder)
            nn = obs.peres_expectation("photon_n", s, ladder)
            assert jz.min() >= -2.0 - eps and jz.max() <= 2.0 + eps
            assert jx2.min() >= -eps and jx2.max() <= 4.0 + eps
            assert nn.min() >= -eps


class TestCheckBounds:
    J = 2.0

    @pytest.mark.parametrize(
        "op_kind, values",
        [("Jz", [0.0, 2.0 + 1e-6]), ("Jz", [-2.0 - 1e-6]), ("Jx2", [-1e-6, 1.0]),
         ("photon_n", [3.0, -1e-6])],
        ids=["Jz-above-j", "Jz-below-minus-j", "Jx2-below-0", "photon_n-below-0"],
    )
    def test_out_of_range_raises(self, op_kind, values):
        with pytest.raises(ValueError, match=f"{op_kind} expectation outside"):
            obs.check_bounds(op_kind, np.array(values), self.J)

    @pytest.mark.parametrize(
        "op_kind, values",
        [("Jz", [-2.0 - 1e-9, 2.0 + 1e-9]), ("Jx2", [-1e-9, 4.0 + 3e-9]),
         ("photon_n", [-1e-9, 1e6])],
        ids=["Jz", "Jx2", "photon_n"],
    )
    def test_values_inside_the_slack_pass(self, op_kind, values):
        # the slack is 1e-9 of the larger finite bound, at least 1: 2e-9 for
        # Jz, 4e-9 for Jx2 (bound j^2 = 4) and 1e-9 for photon_n
        obs.check_bounds(op_kind, np.array(values), self.J)

    def test_empty_passes(self):
        obs.check_bounds("Jz", np.array([]), self.J)


class TestBlockExpectation:
    """The m-block expectations against the dense sector operators of the
    oracle, on each shape the ladder takes."""

    CASES = {
        "integer-j-m0-block": (0.8, 2.0, 12),
        "half-integer-j-self-block": (0.7, 2.5, 10),
        "n_max-0-integer-j": (0.9, 2.0, 0),
        "n_max-0-half-integer-j": (0.9, 1.5, 0),
        "gamma-0": (0.0, 2.0, 8),
    }

    @pytest.mark.parametrize("sector", [1, -1])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_dense_oracle(self, case, sector):
        gamma, j, n_max = self.CASES[case]
        p = params(gamma, j)
        s, ladder = sector_solve(p, n_max, sector)
        for op_kind in obs.PERES_OPS:
            want = dense_expectation(s.vectors, sector_peres_matrix(op_kind, ladder.index, p))
            got = obs.peres_expectation(op_kind, s, ladder)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), op_kind


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
        assert plus.basis.parity_sector == 1

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

    def test_sector_labels_match_fock_parity(self):
        # state-by-state: the sector labels of the merged parity spectra agree
        # with the Fock-basis parity of the same levels
        p = params(0.45, 1.5)
        n_fock = 160
        sf = solve(build_fock(p, n_fock))
        energies, labels = sector_union(
            p, 40, lambda s, ladder: np.full(s.dim, s.basis.parity_sector)
        )
        n_low = 25
        assert np.abs(energies[:n_low] - sf.energies[:n_low]).max() < 1e-9
        labels_f = np.where(fock_parities(sf, p.j, n_fock)[:n_low] > 0, 1, -1)
        assert np.array_equal(labels[:n_low], labels_f)


class TestDeltaP:
    def test_zero_top_shell_amplitude(self):
        # omega0 = 0: the matrix is diagonal, eigenvectors are unit vectors,
        # and any state outside the top shell has exactly zero weight there
        p = ham.ModelParams(omega=1.0, omega0=0.0, gamma=0.5, j=1.0)
        s, ladder = sector_solve(p, 6, 1)
        idx = ladder.index
        rep = obs.delta_p(s, idx)
        rows = idx.n_exc == 6
        low_states = np.abs(s.vectors[rows, :]).max(axis=0) == 0.0
        assert low_states.sum() == s.dim - rows.sum()
        assert np.all(rep.delta_p[low_states] == 0.0)

    def test_probability_sum_rule(self):
        p = params(0.7, 1.5)
        s, ladder = sector_solve(p, 25, -1)
        idx = ladder.index
        # the shells partition the basis: per-state shell weights sum to one,
        # and the top shell's weight is the delta_p certificate
        probs = np.array(
            [(s.vectors[idx.n_exc == n, :] ** 2).sum(axis=0) for n in range(26)]
        )
        assert np.abs(probs.sum(axis=0) - 1.0).max() < 1e-12
        assert np.array_equal(probs[-1], obs.delta_p(s, idx).delta_p)

    def test_converged_count_prefix_rule(self):
        p = params(0.7, 1.0)
        s, ladder = sector_solve(p, 30, 1)
        idx = ladder.index
        r = obs.delta_p(s, idx)
        dp = r.delta_p
        assert obs.DP_TOLERANCE == 1e-12
        assert 0 < r.converged_count < s.dim
        assert np.all(dp[: r.converged_count] < 1e-12)
        assert dp[r.converged_count] >= 1e-12

    def test_monotone_sensitivity_under_larger_truncation(self):
        # converged states stay converged when n_max grows by 25 (2x tolerance)
        p = params(0.7, 2.0)
        tol = obs.DP_TOLERANCE
        for sector in (1, -1):
            s1, ladder1 = sector_solve(p, 40, sector)
            r1 = obs.delta_p(s1, ladder1.index)
            s2, ladder2 = sector_solve(p, 65, sector)
            r2 = obs.delta_p(s2, ladder2.index)
            # the leading states below 2x tolerance at n_max 65 cover those of n_max 40
            above = r2.delta_p >= 2 * tol
            count2 = int(above.argmax()) if above.any() else s2.dim
            assert count2 >= r1.converged_count
            assert np.all(r2.delta_p[: r1.converged_count] < 2 * tol)
