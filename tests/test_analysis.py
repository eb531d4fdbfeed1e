import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from dickelat import analysis
from dickelat import hamiltonian as ham
from dickelat import observables as obs
from dickelat import solver
from dickelat.errors import CapacityError, InsufficientDataError
from oracles import (
    POISSON_RATIO,
    gap_ratios,
    goe_ratio_cdf,
    ks_distance,
    poisson_ratio_cdf,
    weyl_count,
)


def params(gamma, j, omega=1.0, omega0=1.0):
    return ham.ModelParams(omega=omega, omega0=omega0, gamma=gamma, j=j)


DP_TOL = obs.DP_TOLERANCE


def small_lattice(gamma=0.4, j=2.0, n_max=25, op="Jz"):
    """Peres lattice (E/j, expectations) of the even parity sector with its
    certificate at DP_TOL."""
    p = params(gamma, j)
    ladder = ham.sector_ladder(p, n_max, 1)
    s = solver.eigh(ham.build_sector(ladder))
    rep = obs.delta_p(s, ladder.index)
    return s.energies / p.j, obs.peres_expectation(op, s, ladder), rep


class TestLattice:
    def test_points_sorted_and_bounded(self):
        e, x, rep = small_lattice()
        assert np.all(np.diff(e) >= 0)
        assert x.min() >= -2.0 - 1e-9
        assert x.max() <= 2.0 + 1e-9
        assert np.isfinite(rep.delta_p).all()
        assert e.size == x.size == rep.delta_p.size

    def test_single_state_lattice(self):
        # j = 1/2 with no shell above the ground shell: one state per sector
        e, x, rep = small_lattice(gamma=0.3, j=0.5, n_max=0, op="photon_n")
        assert e.size == x.size == rep.delta_p.size == 1
        obs.check_bounds("photon_n", x, 0.5)

    def test_converged_only_filter(self):
        e, x, rep = small_lattice()
        full = e.size
        converged = rep.delta_p < DP_TOL
        filt = x[converged]
        assert filt.size == rep.converged_count or filt.size == converged.sum()
        assert filt.size < full

    def test_near_zero_coupling_lattice_is_regular(self):
        # degenerate columns: many distinct <Jz> values at the same (integer) energy
        e, x, rep = small_lattice(gamma=0.005, j=2.0, n_max=30)
        near_two = (rep.delta_p < 1e-12) & (np.abs(e - 1.0) < 0.01)
        # E = 2 = n + m has 5 realizations at j=2, all even: (-1)^(n + m + j) = +1
        assert near_two.sum() == 5
        assert len(np.unique(np.round(x[near_two], 6))) == 5


class TestDensityOfStates:
    def test_zero_coupling_degeneracy_sequence(self):
        # the production sectors give the integer zero-coupling energies to
        # about 1e-15, some just below the bin edge they sit on
        p = params(0.0, 2.0)
        energies = np.sort(np.concatenate([
            solver.eigh(ham.build_coherent_parity(p, 30, sector)).energies
            for sector in (1, -1)
        ]))
        edges, counts = analysis.density_of_states(energies, p.j)
        # integer E are 0.5 apart in E/j at j=2, one cluster per filled bin
        # at its left edge: degeneracies 1,2,3,4 then saturation at 2j+1 = 5
        filled = np.flatnonzero(counts)[:8]
        assert list(counts[filled]) == [1, 2, 3, 4, 5, 5, 5, 5]
        assert np.allclose(edges[filled], -1.0 + 0.5 * np.arange(8), rtol=0, atol=1e-12)
        assert edges[0] == -1.0

    def test_level_just_below_an_edge_joins_the_bin_above(self):
        below = 1.0 - 1e-12
        edges, counts = analysis.density_of_states([0.3, below, 1.0, 1.2], 1.0)
        filled = np.flatnonzero(counts)
        assert np.allclose(edges[filled], [0.3, 1.0, 1.2], rtol=0, atol=1e-12)
        assert list(counts[filled]) == [1, 2, 1]
        # a level further below the edge than the tolerance stays below it
        edges, counts = analysis.density_of_states([0.3, 1.0 - 1e-6, 1.2], 1.0)
        filled = np.flatnonzero(counts)
        assert np.allclose(edges[filled], [0.3, 1.0 - analysis.BIN_WIDTH, 1.2], rtol=0, atol=1e-12)
        assert list(counts[filled]) == [1, 1, 1]

    def test_empty_input(self):
        edges, counts = analysis.density_of_states([], 2.0)
        assert edges.size == 0 and counts.size == 0

    @pytest.mark.parametrize(
        "levels, message",
        [([-49_999.9, 49_999.9], None),
         ([-50_000.1, 0.0], "E/j spans -50000.1 to 0, 1e+06 bins of 0.05"),
         ([0.0, 50_000.1], "E/j spans 0 to 50000.1, 1e+06 bins of 0.05"),
         ([-2e10, 4.0], "E/j spans -2e+10 to 4, 4e+11 bins of 0.05"),
         ([-2e60, -2e60], "E/j spans -2e+60 to -2e+60, 1 bins of 0.05")],
        ids=["within-reach", "below-reach", "above-reach", "wide-span", "far-level"],
    )
    def test_grid_beyond_its_reach_is_refused(self, levels, message):
        # the grid's size is checked before it is allocated: a 4e11-bin grid
        # would take terabytes, and a bin index past int64 would wrap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if message is None:
                edges, counts = analysis.density_of_states(levels, 1.0)
                assert edges.size == 1_999_998 and counts.sum() == 2
            else:
                with pytest.raises(CapacityError, match="a grid reaches at most 50000") as err:
                    analysis.density_of_states(levels, 1.0)
                assert str(err.value).startswith(message)


class TestMarkers:
    def synthetic(self, kink=0.0, n=4000, seed=1):
        rng = np.random.default_rng(seed)
        e = np.sort(rng.uniform(-2.0, 2.0, n))
        y = np.abs(e - kink)  # piecewise-linear kink
        return e, y - 2.0

    def test_synthetic_kink_found(self):
        e, jz = self.synthetic(kink=0.0)
        markers = analysis.esqpt_markers(e, jz, bin_width=0.05)
        assert min(
            abs(markers.static_marker - 0.0), abs(markers.dynamic_marker - 0.0)
        ) <= 0.05

    def test_dynamic_below_static(self):
        e, jz = self.synthetic()
        markers = analysis.esqpt_markers(e, jz, bin_width=0.05)
        assert markers.dynamic_marker < markers.static_marker

    def test_insufficient_bins(self):
        with pytest.raises(InsufficientDataError):
            analysis.esqpt_markers(np.array([0.0, 0.01, 0.02]), np.zeros(3), bin_width=0.05)


class TestSpacingStats:
    """The spacing statistic the pipeline reports: the mean gap ratio."""

    def test_poisson_reference(self):
        rng = np.random.default_rng(123)
        levels = np.sort(rng.uniform(0.0, 5000.0, 5000))
        assert analysis.mean_gap_ratio(levels) == pytest.approx(POISSON_RATIO, abs=0.01)

    def test_rigid_spectrum_ratio_one(self):
        assert analysis.mean_gap_ratio(np.arange(200.0)) == pytest.approx(1.0, abs=1e-12)

    def test_ratio_in_unit_interval(self):
        rng = np.random.default_rng(9)
        levels = np.sort(rng.standard_normal(500)).cumsum() * 0 + np.sort(
            rng.uniform(0, 100, 500)
        )
        assert 0.0 <= analysis.mean_gap_ratio(levels) <= 1.0


def _goe_ratio_density(r):
    return 27.0 / 4.0 * (r + r * r) / (1.0 + r + r * r) ** 2.5


def _poisson_ratio_density(r):
    return 2.0 / (1.0 + r) ** 2


class TestGapRatioSurmises:
    """The oracles of criterion 12: the gap-ratio CDFs of Atas et al. and the
    Kolmogorov-Smirnov distance."""

    @pytest.mark.parametrize(
        "cdf, density",
        [(poisson_ratio_cdf, _poisson_ratio_density), (goe_ratio_cdf, _goe_ratio_density)],
        ids=["poisson", "goe"],
    )
    def test_cdf_is_the_integral_of_its_density(self, cdf, density):
        for r in np.linspace(0.0, 1.0, 21):
            value, _ = quad(density, 0.0, r, epsabs=1e-14, epsrel=1e-13)
            assert cdf(r) == pytest.approx(value, abs=1e-12)
        assert cdf(0.0) == 0.0 and cdf(1.0) == 1.0

    @pytest.mark.parametrize(
        "cdf, mean",
        [(poisson_ratio_cdf, POISSON_RATIO), (goe_ratio_cdf, 4.0 - 2.0 * np.sqrt(3.0))],
        ids=["poisson", "goe"],
    )
    def test_means(self, cdf, mean):
        # the mean of a variable on [0, 1] is the integral of 1 - F
        value, _ = quad(lambda r: 1.0 - cdf(r), 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
        assert value == pytest.approx(mean, abs=1e-12)

    def test_ks_distance_matches_scipy(self):
        sample = np.random.default_rng(7).uniform(0.0, 1.0, 300) ** 1.3
        for cdf in (poisson_ratio_cdf, goe_ratio_cdf):
            assert ks_distance(sample, cdf) == pytest.approx(
                kstest(sample, cdf).statistic, abs=1e-15
            )
        assert ks_distance([0.5], lambda x: x) == 0.5

    def test_each_spectrum_is_nearest_its_own_law(self):
        rng = np.random.default_rng(2013)
        levels = np.sort(rng.uniform(0.0, 1.0, 3000))
        uncorrelated = gap_ratios(levels)
        assert uncorrelated.mean() == pytest.approx(analysis.mean_gap_ratio(levels), abs=1e-15)
        a = rng.standard_normal((1000, 1000))
        goe = np.linalg.eigvalsh(a + a.T)
        correlated = gap_ratios(goe[250:750])  # the bulk; r~ needs no unfolding
        assert ks_distance(uncorrelated, poisson_ratio_cdf) < 0.03
        assert ks_distance(uncorrelated, goe_ratio_cdf) > 0.15
        assert ks_distance(correlated, goe_ratio_cdf) < 0.07
        assert ks_distance(correlated, poisson_ratio_cdf) > 0.15


class TestDropDegenerate:
    def test_collapses_exact_degeneracies(self):
        e = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0])
        assert np.array_equal(analysis.drop_degenerate(e), [0.0, 1.0, 2.0])

    def test_keeps_generic_levels(self):
        e = np.array([0.0, 0.5, 1.2])
        assert np.array_equal(analysis.drop_degenerate(e), e)


class TestWeylCount:
    """The oracle of criterion 11: the Weyl count against its closed form at
    zero coupling, its slope above eps = omega0 at any coupling and its onset
    at the classical ground-state energy."""

    @pytest.mark.parametrize("j, omega, omega0", [(10.0, 1.0, 1.0), (2.5, 0.7, 1.3)])
    def test_zero_coupling_closed_form(self, j, omega, omega0):
        # j (2j + 1) / (2 omega) F(eps): F is 0 below -omega0,
        # (eps + omega0)^2 / (2 omega0) up to omega0 and 2 eps above; the
        # midpoint grid is exact but for the one y cell that holds the kink
        eps = np.linspace(-2.0, 3.0, 41) * omega0
        f = np.where(eps < -omega0, 0.0,
                     np.where(eps <= omega0, (eps + omega0) ** 2 / (2.0 * omega0), 2.0 * eps))
        want = j * (2.0 * j + 1.0) / (2.0 * omega) * f
        got = weyl_count(params(0.0, j, omega=omega, omega0=omega0), eps)
        assert np.abs(got - want).max() <= 1e-6 * want.max()

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5])
    def test_slope_above_omega0_is_j_2j_plus_1_over_omega(self, gamma):
        # u <= omega0 y <= omega0 on the whole sphere, so above omega0 every
        # spin point counts and dN_W / d eps = j (2j + 1) / omega
        p = params(gamma, 4.0, omega=0.8, omega0=1.1)
        lo, hi = weyl_count(p, [1.2, 5.7])
        assert (hi - lo) / 4.5 == pytest.approx(4.0 * 9.0 / 0.8, rel=1e-9)

    @pytest.mark.parametrize("gamma", [0.75, 1.0, 2.0])
    def test_count_starts_at_the_classical_ground_state(self, gamma):
        # above gamma_c the lowest u is -(omega0 / 2)(gamma^2/gamma_c^2 +
        # gamma_c^2/gamma^2), the superradiant ground-state energy over j
        p = params(gamma, 3.0)
        ratio = gamma**2 / p.gamma_c**2
        e_min = -0.5 * p.omega0 * (ratio + 1.0 / ratio)
        below, above = weyl_count(p, [e_min - 1e-9, e_min + 1e-3])
        assert below == 0.0 and above > 0.0
