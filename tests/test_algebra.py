import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from dickelat import algebra
from dickelat.basis import BasisSpec
from dickelat.hamiltonian import ModelParams
from oracles import (
    displacement_by_diagonal, displacement_expm, displacement_vectorized, jx_matrix, jx_squared,
    laguerre_rational, m_values,
)

HALF_SPINS = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5]


def sign_flip(size):
    """(-1)^(r - c) over a size x size grid."""
    k = np.arange(size)
    return np.where((k[:, None] - k[None, :]) % 2 == 0, 1.0, -1.0)


def laguerre_from_w(n, alpha, x):
    """L_n^(alpha)(x) read back from displacement_matrix through its closed
    form W[n + alpha, n] = sqrt(n!/(n+alpha)!) delta^alpha e^(-x/2) L_n^(alpha)(x)
    at delta = sqrt(x)."""
    delta = math.sqrt(x)
    w = algebra.displacement_matrix(n + alpha, delta)
    log_pref = (
        0.5 * (math.lgamma(n + 1) - math.lgamma(n + alpha + 1))
        + alpha * math.log(delta)
        - 0.5 * delta * delta
    )
    return w[n + alpha, n] / math.exp(log_pref)


class TestSpinElements:
    def test_z_diagonal(self):
        # Jz is diagonal in the m-ascending basis with entries m_values(j)
        assert list(m_values(0.5)) == [-0.5, 0.5]

    def test_ladder_raise(self):
        val = algebra.ladder_coeff(1.0, 0.0, +1)
        assert val == pytest.approx(math.sqrt(2), abs=1e-12)
        assert jx_matrix(1.0)[2, 1] == pytest.approx(0.5 * val, abs=1e-15)

    def test_x_squared_against_brute_force_square(self):
        # element (2, 2) of Jx^2 at j=2 from an independently squared Jx
        x = jx_matrix(2.0)
        brute = x @ x
        val = jx_squared(2.0)[4, 4]
        assert val == pytest.approx(brute[4, 4], abs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("j", HALF_SPINS)
    def test_x_squared_full_matrix_matches_brute_force(self, j):
        x = jx_matrix(j)
        assert np.allclose(jx_squared(j), x @ x, atol=1e-13)

    def test_invalid_quantum_numbers_rejected(self):
        # spin lengths are validated where they enter: model parameters and bases
        for bad_j in (-0.5, 0.0, 0.7):
            with pytest.raises(ValueError):
                ModelParams(omega=1.0, omega0=1.0, gamma=0.1, j=bad_j)
        with pytest.raises(ValueError):
            BasisSpec(0.7, 5, 1)
        with pytest.raises(ValueError):
            BasisSpec(-0.5, 5, -1)

    @pytest.mark.parametrize("j", HALF_SPINS)
    def test_ladder_symmetry(self, j):
        ms = m_values(j)
        for m in ms[:-1]:
            up = algebra.ladder_coeff(j, m, +1)
            down = algebra.ladder_coeff(j, m + 1, -1)
            assert up == pytest.approx(down, abs=1e-14)
        assert algebra.ladder_coeff(j, ms[-1], +1) == 0.0
        assert algebra.ladder_coeff(j, ms[0], -1) == 0.0
        x = jx_matrix(j)
        assert np.array_equal(x, x.T)

    @pytest.mark.parametrize("j", HALF_SPINS)
    def test_casimir_sum_rule(self, j):
        # Jx^2 + Jy^2 + Jz^2 = j(j+1) I; with Jy^2 = Jz^2-axis analog built
        # from the same ladders: Jy = (J+ - J-)/(2i) -> Jy^2 real symmetric
        ms = m_values(j)
        dim = ms.size
        jp = np.zeros((dim, dim))
        for k in range(dim - 1):
            jp[k + 1, k] = algebra.ladder_coeff(j, ms[k], +1)
        jm = jp.T
        jx = 0.5 * (jp + jm)
        jy2 = np.real(-0.25 * (jp - jm) @ (jp - jm))
        jz2 = np.diag(ms**2)
        total = jx @ jx + jy2 + jz2
        assert np.allclose(total, j * (j + 1) * np.eye(dim), atol=1e-12)


class TestDisplacedOverlap:
    def test_vacuum_coherent_overlap(self):
        for n_top in (0, 10):
            w = algebra.displacement_matrix(n_top, 0.6)
            assert w[0, 0] == pytest.approx(math.exp(-0.18), abs=1e-12)

    def test_zero_displacement_is_identity(self):
        assert np.array_equal(algebra.displacement_matrix(5, 0.0), np.eye(6))

    def test_against_matrix_exponential(self):
        # frozen from expm(0.7 (adag - a)) at cutoff 200
        assert algebra.displacement_matrix(5, 0.7)[3, 5] == pytest.approx(
            0.48716529462211794, abs=1e-12
        )

    @pytest.mark.parametrize("delta", [0.3, -0.85, 1.7])
    def test_matrix_against_matrix_exponential(self, delta):
        d = displacement_expm(delta, cutoff=120)
        w = algebra.displacement_matrix(40, delta)
        assert np.abs(w - d[:41, :41]).max() < 1e-13

    @settings(max_examples=60, deadline=None)
    @given(n_top=st.integers(0, 60), delta=st.floats(-3.0, 3.0, allow_nan=False))
    def test_symmetries(self, n_top, delta):
        w = algebra.displacement_matrix(n_top, delta)
        flip = sign_flip(n_top + 1)
        assert np.allclose(w.T, flip * w, rtol=1e-12, atol=1e-300)
        assert np.allclose(
            algebra.displacement_matrix(n_top, -delta), flip * w, rtol=1e-12, atol=1e-300
        )
        assert np.abs(w).max() <= 1.0 + 1e-15

    @settings(max_examples=25, deadline=None)
    @given(npr=st.integers(0, 20), delta=st.floats(-2.0, 2.0, allow_nan=False))
    def test_unitarity_column_sums(self, npr, delta):
        cutoff = npr + math.ceil(40 * (1 + delta * delta))
        col = algebra.displacement_matrix(cutoff, delta)[:, npr]
        assert (col**2).sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n_top", [0, 1, 2, 7, 40, 160, 431, 900])
    def test_bits_match_the_diagonal_reference(self, n_top):
        # H's entries are compared byte for byte, so W keeps every bit of the
        # diagonal-by-diagonal fill; n_top 431 and 900 take the rescale branch
        for delta in (0.05, 0.8, 2.7, 6.0):
            for signed in (delta, -delta):
                got = algebra.displacement_matrix(n_top, signed)
                want = displacement_by_diagonal(n_top, signed)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), signed

    @pytest.mark.parametrize("delta", [0.3, -0.7, 1.3, 0.632, -2.5, 4.0, 1.414])
    def test_bits_match_the_whole_triangle_build(self, delta):
        # filled one degree (column) at a time, W keeps every bit of the
        # build that exponentiates its whole lower triangle in one pass
        for n_top in [*range(80), 120, 160, 250, 409, 600, 1200]:
            got = algebra.displacement_matrix(n_top, delta)
            want = displacement_vectorized(n_top, delta)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n_top

    def test_build_holds_one_array_of_ws_size(self):
        # W itself and a few vectors: at n_max = 1200 and N = 1, W is as
        # large as H, and the sector's charge counts W once
        tracemalloc.start()
        try:
            algebra.displacement_matrix(1200, 0.632)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * 8 * 1201**2, peak / (8 * 1201**2)

    def test_large_arguments_stay_finite(self):
        # several hundred shells push the raw Laguerre recurrence past 1e250,
        # so this exercises the rescaling branch; the middle column's
        # displaced state lies far inside the cutoff, so it keeps unit norm
        for n_top, delta in ((430, 0.95), (900, 0.8)):
            w = algebra.displacement_matrix(n_top, delta)
            assert np.isfinite(w).all()
            assert np.abs(w).max() <= 1.0 + 1e-12
            assert (w[:, n_top // 2] ** 2).sum() == pytest.approx(1.0, abs=1e-10)


class TestLogFactorial:
    """algebra's log k! against SciPy's gammaln(k + 1), compared bit for bit,
    since W's and so H's bits depend on every one of them."""

    @staticmethod
    def assert_bits_match(ks):
        ks = np.asarray(ks, dtype=float)
        got = np.array([algebra._log_factorial(k) for k in ks])
        want = gammaln(ks + 1.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bits_match_gammaln_up_to_200000(self):
        self.assert_bits_match(np.arange(200_001))

    @pytest.mark.parametrize("x", [12.0, 13.0, 999.0, 1000.0, 1e8, 1e8 + 1.0])
    def test_bits_match_gammaln_at_each_branch_edge(self, x):
        # x = k + 1: the exact product below 13, the 5-term series below 1000,
        # the 3-term series up to 1e8 and the bare Stirling sum above it
        self.assert_bits_match([x - 2.0, x - 1.0, x])


class TestLaguerre:
    """The Laguerre recurrence inside displacement_matrix against exact
    rational sums, read back through the closed form of its entries."""

    def test_degree_zero(self):
        assert laguerre_from_w(0, 3, 1.7) == pytest.approx(1.0, rel=1e-12)

    def test_degree_one_closed_form(self):
        # L_1^(1)(2) = 0, so W[2, 1] vanishes at delta = sqrt(2)
        assert algebra.displacement_matrix(2, math.sqrt(2.0))[2, 1] == pytest.approx(
            0.0, abs=1e-14
        )

    def test_against_exact_rational_sum(self):
        exact = laguerre_rational(10, 2, Fraction(7, 2))
        assert float(exact) == pytest.approx(-3.370283551628207, abs=1e-12)
        assert laguerre_from_w(10, 2, 3.5) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("n,alpha,x", [(25, 0, 0.3), (40, 7, 1.2), (12, 30, 2.5)])
    def test_recurrence_matches_rational_sum(self, n, alpha, x):
        delta = math.sqrt(x)
        # the exact sum at the very float delta^2 the recurrence starts from
        exact = float(laguerre_rational(n, alpha, Fraction(delta * delta)))
        assert laguerre_from_w(n, alpha, x) == pytest.approx(exact, rel=1e-10)
