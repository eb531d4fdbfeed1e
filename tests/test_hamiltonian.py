import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dickelat import hamiltonian as ham
from dickelat import solver
from dickelat.basis import BasisSpec, basis_size, enumerate_basis
from dickelat.errors import CapacityError, ConfigError
from oracles import (
    block_slices,
    build_coherent,
    build_fock,
    build_tc_block,
    coherent_states_in_fock,
    envelope_words_bound,
    fock_parity_diag,
    full_index,
    index_of,
    lambda_diag,
    parity_projector,
    symmetric_matrix,
    tc_full_fock,
)

RES = ham.ModelParams  # shorthand for resonance parameter sets


def params(gamma, j, omega=1.0, omega0=1.0):
    return ham.ModelParams(omega=omega, omega0=omega0, gamma=gamma, j=j)


class TestModelParams:
    def test_derived_quantities(self):
        p = params(0.3, 2.0)
        assert p.n_atoms == 4
        assert p.gamma_c == pytest.approx(0.5)
        assert p.g_disp == pytest.approx(2 * 0.3 / math.sqrt(4))

    def test_validation(self):
        with pytest.raises(ValueError):
            params(0.3, 0.7)
        with pytest.raises(ValueError):
            params(-0.1, 1.0)
        with pytest.raises(ValueError):
            ham.ModelParams(omega=0.0, omega0=1.0, gamma=0.1, j=1.0)

    @pytest.mark.parametrize("name", ["omega", "omega0", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, name, value):
        kw = {"omega": 1.0, "omega0": 1.0, "gamma": 0.1, "j": 1.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ham.ModelParams(**kw)


class TestBuildFock:
    def test_zero_coupling_spectrum(self):
        h = build_fock(params(0.0, 0.5), 1)
        evals = np.sort(np.linalg.eigvalsh(h.data))
        assert np.allclose(evals, [-0.5, 0.5, 0.5, 1.5], atol=1e-14)

    def test_zero_coupling_diagonal(self):
        h = build_fock(params(0.0, 1.5), 6)
        assert np.count_nonzero(h.data - np.diag(np.diag(h.data))) == 0

    def test_single_ladder_element_by_hand(self):
        # (2 gamma / sqrt(N)) sqrt(n+1) <m'|Jx|m> at gamma=0.25, j=1/2
        h = build_fock(params(0.25, 0.5), 1)
        idx = full_index(h.basis)
        r = index_of(idx, 1, -0.5)
        c = index_of(idx, 0, 0.5)
        assert h.data[r, c] == pytest.approx(0.25, abs=1e-15)

    def test_exact_symmetry_and_parity_block_structure(self):
        p = params(0.7, 1.5)
        h = build_fock(p, 8)
        assert np.array_equal(h.data, h.data.T)
        pi = fock_parity_diag(p.j, 8)
        # <i|H|k> = 0 whenever the parity eigenvalues differ, entrywise
        mask = pi[:, None] != pi[None, :]
        assert np.count_nonzero(h.data[mask]) == 0

    def test_commutes_with_parity_exactly(self):
        p = params(1.1, 2.0)
        h = build_fock(p, 7)
        pi = np.diag(fock_parity_diag(p.j, 7))
        assert np.count_nonzero(h.data @ pi - pi @ h.data) == 0

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            ham.sector_ladder(params(0.1, 2.0), 40, 1, mem_budget_bytes=10_000)


class TestBuildCoherent:
    def test_zero_coupling_matches_fock_exactly(self):
        p = params(0.0, 1.0)
        hf = build_fock(p, 20)
        hc = build_coherent(p, 20)
        assert np.allclose(
            np.linalg.eigvalsh(hf.data), np.linalg.eigvalsh(hc.data), atol=1e-13
        )

    def test_stated_entries_at_quarter_coupling(self):
        p = params(0.25, 0.5)
        h = build_coherent(p, 4)
        idx = full_index(h.basis)
        i = index_of(idx, 0, -0.5)
        k = index_of(idx, 0, 0.5)
        assert h.data[i, i] == pytest.approx(-0.0625, abs=1e-15)
        assert h.data[k, k] == pytest.approx(-0.0625, abs=1e-15)
        assert h.data[i, k] == pytest.approx(0.5 * math.exp(-2 * 0.25**2), abs=1e-12)

    def test_low_spectrum_matches_fock(self):
        p = params(0.25, 0.5)
        wc = np.linalg.eigvalsh(build_coherent(p, 60).data)
        wf = np.linalg.eigvalsh(build_fock(p, 200).data)
        assert np.abs(wc[:10] - wf[:10]).max() < 1e-10

    def test_cross_basis_oracle_j1(self):
        p = params(0.75, 1.0)
        wc = np.linalg.eigvalsh(build_coherent(p, 60).data)
        wf = np.linalg.eigvalsh(build_fock(p, 400).data)
        assert np.abs(wc[:20] - wf[:20]).max() < 1e-8

    def test_elementwise_against_rotated_fock(self):
        # strongest oracle: explicit change-of-basis matrix from the Fock side
        p = params(0.45, 1.5)
        n_coh, n_fock = 10, 90
        b = coherent_states_in_fock(p, n_coh, n_fock)
        assert np.abs(b.T @ b - np.eye(b.shape[1])).max() < 1e-12
        hf = build_fock(p, n_fock)
        hc = build_coherent(p, n_coh)
        assert np.abs(b.T @ hf.data @ b - hc.data).max() < 1e-10

    def test_omega0_zero_is_diagonal(self):
        p = ham.ModelParams(omega=1.0, omega0=0.0, gamma=0.8, j=1.5)
        h = build_coherent(p, 12)
        off = h.data - np.diag(np.diag(h.data))
        assert np.count_nonzero(off) == 0
        idx = full_index(h.basis)
        expect = idx.n_exc - (4 * 0.8**2 / (1.0 * 3)) * idx.m_vals**2
        assert np.allclose(np.diag(h.data), expect, atol=1e-15)


@settings(max_examples=80, deadline=None)
@given(twoj=st.integers(1, 21), n_max=st.integers(0, 60), sector=st.sampled_from((1, -1)))
@example(twoj=4, n_max=0, sector=-1)  # its m = 0 block holds no label
def test_ladder_layout(twoj, n_max, sector):
    # the ladder's row slices tile the index in order, the non-empty ones
    # being the index's m runs; each pair's block is a view of W, oriented as
    # block[a, b] = W[N of hi row b, N of lo row a]
    ladder = ham.sector_ladder(params(0.3, twoj / 2.0), n_max, sector)
    idx, w = ladder.index, ladder.w
    if ladder.pairs:
        rows = [ladder.pairs[0][1], *(hi for _, _, hi, _ in ladder.pairs)]
        assert all(p[2] == q[1] for p, q in zip(ladder.pairs, ladder.pairs[1:]))
    else:
        rows = [ladder.self_block[1]]
    assert [sl.step for sl in rows] == [None] * len(rows)
    assert [sl.start for sl in rows] == [0, *(sl.stop for sl in rows[:-1])]
    assert rows[-1].stop == idx.size
    want = [sl for _, sl in block_slices(enumerate_basis(idx.spec))]
    assert [sl for sl in rows if sl.stop > sl.start] == want
    for _, lo, hi, block in ladder.pairs:
        assert np.array_equal(block, w[np.ix_(idx.n_exc[hi], idx.n_exc[lo])].T)
        assert block.size == 0 or np.shares_memory(block, w)


class TestBuildCoherentParity:
    def test_projection_oracle_small(self):
        # project the full coherent matrix onto explicitly built parity vectors
        p = params(0.4, 1.0)
        n_max = 1
        hc = build_coherent(p, n_max)
        full_idx = full_index(hc.basis)
        for sector in (+1, -1):
            hp = ham.build_coherent_parity(p, n_max, sector)
            part_idx = enumerate_basis(hp.basis)
            proj = parity_projector(full_idx, part_idx)
            assert np.abs(proj.T @ proj - np.eye(part_idx.size)).max() < 1e-14
            assert np.abs(proj.T @ hc.data @ proj - hp.data).max() < 1e-13

    @pytest.mark.parametrize("j,gamma", [(1.0, 0.4), (2.0, 0.4), (1.5, 0.37), (2.5, 0.6)])
    def test_sector_union_equals_full_spectrum(self, j, gamma):
        p = params(gamma, j)
        n_max = 14
        wc = np.linalg.eigvalsh(build_coherent(p, n_max).data)
        wp = np.linalg.eigvalsh(ham.build_coherent_parity(p, n_max, +1).data)
        wm = np.linalg.eigvalsh(ham.build_coherent_parity(p, n_max, -1).data)
        union = np.sort(np.concatenate([wp, wm]))
        assert union.size == wc.size
        assert np.abs(union - wc).max() < 1e-10

    def test_sector_assignment_matches_fock_parity(self):
        # lowest levels per sector agree with Fock-basis states of that parity
        for j, gamma in [(1.0, 0.35), (1.5, 0.35)]:
            p = params(gamma, j)
            n_fock = 120
            hf = build_fock(p, n_fock)
            wf, vf = np.linalg.eigh(hf.data)
            pexp = (vf**2 * fock_parity_diag(j, n_fock)[:, None]).sum(axis=0)
            for sector in (+1, -1):
                wp = np.sort(
                    np.linalg.eigvalsh(ham.build_coherent_parity(p, 16, sector).data)
                )
                ref = wf[np.abs(pexp - sector) < 1e-8][:4]
                assert np.abs(wp[:4] - ref).max() < 1e-6

    def test_omega0_zero_is_diagonal(self):
        p = ham.ModelParams(omega=1.0, omega0=0.0, gamma=1.2, j=2.0)
        for sector in (+1, -1):
            h = ham.build_coherent_parity(p, 10, sector)
            off = h.data - np.diag(np.diag(h.data))
            assert np.count_nonzero(off) == 0

    def test_scale_sector_dimension(self):
        h_dim = enumerate_basis(BasisSpec(20.0, 250, +1)).size
        assert h_dim == 5146


class TestTavisCummings:
    def test_vacuum_block(self):
        p = params(0.3, 1.0)
        h = build_tc_block(p, 0)
        assert h.dim == 1
        assert h.data[0, 0] == pytest.approx(-1.0)

    def test_rabi_doublet(self):
        p = params(0.37, 0.5)
        h = build_tc_block(p, 1)
        evals = np.sort(np.linalg.eigvalsh(h.data))
        assert np.allclose(evals, [0.5 - 0.37, 0.5 + 0.37], atol=1e-14)

    def test_block_dimension(self):
        p = params(0.4, 1.0)
        for lam, dim in [(0, 1), (1, 2), (2, 3), (3, 3), (10, 3)]:
            assert build_tc_block(p, lam).dim == dim

    def test_blocks_match_full_space_oracle(self):
        p = params(0.4, 1.0)
        n_max = 60
        hf = tc_full_fock(p, n_max)
        wf, vf = np.linalg.eigh(hf)
        lam_diag = lambda_diag(p.j, n_max)
        lam_exp = (vf**2 * lam_diag[:, None]).sum(axis=0)
        block = build_tc_block(p, 3)
        w_block = np.sort(np.linalg.eigvalsh(block.data))
        ref = np.sort(wf[np.abs(lam_exp - 3) < 1e-8])
        assert ref.size == w_block.size
        assert np.abs(w_block - ref).max() < 1e-10


def _symmetric(dim, seed=0):
    a = np.random.default_rng(seed).standard_normal((dim, dim))
    return a + a.T


def _nudge(d, i, j):
    d[i, j] = np.nextafter(d[i, j], np.inf)
    return d


def _nan_at(d, *pairs):
    for i, j in pairs:
        d[i, j] = np.nan
    return d


def _signed_zero_pair(d, i, j):
    d[i, j], d[j, i] = 0.0, -0.0
    return d


class TestExactSymmetryCheck:
    """The tiled check gives np.array_equal(d, d.T)'s verdict; dim 600 has
    two whole 256-tiles and a partial one per side."""

    CASES = {
        "symmetric": (lambda: _symmetric(600), True),
        "far-corner-upper": (lambda: _nudge(_symmetric(600), 0, 599), False),
        "far-corner-lower": (lambda: _nudge(_symmetric(600), 599, 0), False),
        "partial-edge-tile": (lambda: _nudge(_symmetric(600), 300, 590), False),
        "partial-corner-tile": (lambda: _nudge(_symmetric(600), 595, 598), False),
        "nan-on-diagonal": (lambda: _nan_at(_symmetric(600), (7, 7)), False),
        "nan-pair": (lambda: _nan_at(_symmetric(600), (5, 580), (580, 5)), False),
        "signed-zero-pair": (lambda: _signed_zero_pair(_symmetric(600), 10, 590), True),
        "one-tile": (lambda: _nudge(_symmetric(256), 255, 0), False),
        "tile-plus-one": (lambda: _nudge(_symmetric(257), 256, 3), False),
        "dim-1": (lambda: _symmetric(1), True),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_verdict_matches_full_comparison(self, case):
        make, symmetric = self.CASES[case]
        d = make()
        assert np.array_equal(d, d.T) == symmetric
        if symmetric:
            symmetric_matrix(d, None)
        else:
            with pytest.raises(ValueError, match="not exactly symmetric"):
                symmetric_matrix(d, None)


def _inf_at(d, value, *pairs):
    for i, j in pairs:
        d[i, j] = d[j, i] = value
    return d


class TestLargestEntry:
    """build_sector refuses a sector whose H LAPACK would rescale: the check
    every SymmetricMatrix runs finds H's largest |entry| outside the window."""

    @pytest.mark.parametrize(
        "omega, omega0, gamma, n_max",
        [(1e-300, 0.0, 0.0, 3), (1.0, 1e300, 0.5, 3), (1e-300, 0.0, 0.5, 0)],
        ids=["below", "jz-above", "diagonal-above"],
    )
    def test_entry_outside_the_window_is_config_error(self, omega, omega0, gamma, n_max):
        p = ham.ModelParams(omega=omega, omega0=omega0, gamma=gamma, j=1.5)
        with pytest.raises(ConfigError, match=r"largest \|entry\| is .* outside \[2\*\*-485"):
            ham.build_sector(ham.sector_ladder(p, n_max, 1))


class TestFiniteEntries:
    """An exactly symmetric matrix holding ±inf fails as non-finite, in any
    tile; one that is also asymmetric elsewhere fails as not symmetric."""

    CASES = {
        "inf-pair": lambda: _inf_at(_symmetric(600), np.inf, (5, 580)),
        "minus-inf-on-diagonal": lambda: _inf_at(_symmetric(600), -np.inf, (7, 7)),
        "inf-in-partial-corner-tile": lambda: _inf_at(_symmetric(600), np.inf, (598, 595)),
        "dim-1": lambda: np.array([[np.inf]]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_symmetric_with_inf_is_non_finite(self, case):
        d = self.CASES[case]()
        assert np.array_equal(d, d.T) and not np.isfinite(d).all()
        with pytest.raises(ValueError, match="non-finite entries"):
            symmetric_matrix(d, None)

    def test_asymmetry_after_an_inf_tile_is_not_symmetric(self):
        d = _nudge(_inf_at(_symmetric(600), np.inf, (0, 1)), 599, 590)
        with pytest.raises(ValueError, match="not exactly symmetric"):
            symmetric_matrix(d, None)


_PEAK_SCRIPT = """
import resource, sys
from dickelat import hamiltonian, pipeline

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

params = hamiltonian.ModelParams(omega=1.0, omega0=1.0, gamma=1.0, j=int(sys.argv[1]) / 2)
pipeline.run_sector(pipeline.RunConfig(params, n_max=20, sectors=(1,)), 1)
baseline = maxrss()
result = pipeline.run_sector(pipeline.RunConfig(params, n_max=int(sys.argv[2]), sectors=(1,)), 1)
print(maxrss() - baseline)
"""

# A whole two-sector lattice run, both sectors' files written: the second
# sector's solve can peak above the first by what the allocator keeps of the
# first's freed temporaries.
_RUN_PEAK_SCRIPT = """
import resource, sys
from dickelat import hamiltonian, pipeline

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

params = hamiltonian.ModelParams(omega=1.0, omega0=1.0, gamma=1.0, j=20.0)
pipeline.run(pipeline.RunConfig(params, n_max=20, out_dir=sys.argv[2]))
baseline = maxrss()
result = pipeline.run(pipeline.RunConfig(params, n_max=int(sys.argv[1]), out_dir=sys.argv[2]))
print(*(sector.energies.size for sector in result.sectors), maxrss() - baseline)
"""

# Linux starts a child's ru_maxrss at the peak RSS of the process it was
# forked from, so a child of a large pytest process would read pytest's peak
# as its own.  A small interpreter in between forks the measured process.
_LAUNCH = "import subprocess, sys; subprocess.run([sys.executable, '-c', *sys.argv[1:]], check=True)"


def _envelope_area(spec):
    """Entries of the row envelopes over which the solver's audit multiplies
    the sector's H at 2 gamma_c."""
    ladder = ham.sector_ladder(params(1.0, spec.j), spec.n_max, spec.parity_sector)
    data = ham.build_sector(ladder).data
    return sum(
        (rows.stop - rows.start) * (cols.stop - cols.start)
        for rows, cols in solver._row_envelopes(data)
    )


class TestMemoryBudget:
    @pytest.mark.parametrize(
        ("n_atoms", "n_max"), [(40, 120), (40, 160), (4, 1000), (2, 1600), (1, 2400)],
        ids=["120", "160", "N4-1000", "N2-1600", "N1-2400"],
    )
    def test_charge_bounds_a_sectors_measured_peak(self, n_atoms, n_max):
        # one lattice sector (2 gamma_c, three Peres operators) in a fresh
        # process; its peak above a warm baseline must lie within the charge
        # and above charge / 1.3, so the charge is not merely pessimistic.  At
        # small N the allocator keeps the most above what is live; at N = 1,
        # W is as large as H
        src = str(Path(ham.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _LAUNCH, _PEAK_SCRIPT, str(n_atoms), str(n_max)],
            env=env, capture_output=True, text=True, check=True, timeout=600,
        )
        used = int(proc.stdout)
        spec = BasisSpec(n_atoms / 2, n_max, 1)
        dim = basis_size(spec)
        assert dim >= 2400
        charge = ham.footprint_bytes(spec)
        assert charge >= used >= charge / 1.3, (dim, used / (8 * dim * dim))

    def test_charge_bounds_a_two_sector_runs_measured_peak(self, tmp_path):
        # both sectors of one lattice run (N = 40, 2 gamma_c, three Peres
        # operators) in a fresh process: its peak above a warm baseline must
        # lie within its larger sector's charge
        src = str(Path(ham.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _LAUNCH, _RUN_PEAK_SCRIPT, "120", str(tmp_path)],
            env=env, capture_output=True, text=True, check=True, timeout=600,
        )
        *dims, used = map(int, proc.stdout.split())
        assert len(dims) == 2 and min(dims) >= 2000
        charge = max(ham.footprint_bytes(BasisSpec(20.0, 120, s)) for s in (1, -1))
        assert charge >= used, (dims, used / (8 * max(dims) ** 2))

    @pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 2.0, 3.5, 6.0])
    @pytest.mark.parametrize("n_max", [0, 1, 5, 40, 90])
    @pytest.mark.parametrize("sector", [1, -1])
    def test_envelope_bound_covers_the_solvers_envelopes(self, j, n_max, sector):
        # the audit multiplies H one row chunk at a time over the chunk's
        # envelope, found from the data, so its cost follows the envelopes'
        # area; they must never reach beyond the chunk's own m blocks and
        # those at m +- 1
        spec = BasisSpec(j, n_max, sector)
        assert _envelope_area(spec) <= envelope_words_bound(spec) <= basis_size(spec) ** 2

    def test_envelope_bound_is_tight_on_the_lattice(self):
        # at N = 40, 2 gamma_c, the W blocks are dense: the bound is within
        # 0.1% of the audit's envelopes
        spec = BasisSpec(20.0, 40, 1)
        area = _envelope_area(spec)
        assert area <= envelope_words_bound(spec) <= 1.001 * area

    def test_capacity_error_names_the_charge(self):
        # dim 103: charged 8 x (2.85 x 103^2 + W's 41^2) = 255,333 B against
        # 10,000 B, each size in the largest binary unit it holds at least
        # one of
        spec = BasisSpec(2.0, 40, 1)
        assert enumerate_basis(spec).size == 103
        with pytest.raises(CapacityError) as err:
            ham.sector_ladder(params(0.1, 2.0), 40, 1, mem_budget_bytes=10_000)
        message = str(err.value)
        assert "dim-103 sector is charged 249.3 KiB" in message
        assert "(3.01 x its 82.9 KiB dense matrix" in message
        assert message.endswith("budget is 9.8 KiB")

    def test_capacity_checked_before_enumeration(self, monkeypatch):
        # the budget is checked on the label count, so a sector too large for
        # it is refused without one label being built
        calls = []
        monkeypatch.setattr(ham, "enumerate_basis", lambda spec: calls.append(spec))
        with pytest.raises(CapacityError):
            ham.sector_ladder(params(0.1, 20.0), 400, 1, mem_budget_bytes=10_000)
        assert calls == []
