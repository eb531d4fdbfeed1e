"""Acceptance suite: each criterion runs at its stated tolerance.

The heavy coupled runs are computed once in module-scoped fixtures and
shared: `crit1_run` (the 40-atom CLI run near zero coupling), `sector` (one
parity sector per key, solved once) and `sweep_result`.  `audits` checks the
residual report of every spectrum `solver.eigh` returns while the module
runs, from a test, a fixture, a pipeline run or the CLI alike, against
criterion 9's bounds as it is returned; criterion 9 also solves and audits
spectra of its own, so it needs no other test to run first.

Measured cost on a 2-core box, 2 BLAS threads (pytest --durations; the
module took 124 s): `crit1_run` 30.2 s, criterion 10 31.1 s (the same CLI
run again), `g15_sector` + `g20_sector` 25.3 s, criterion 3 19.7 s (mostly
its Fock solves), `sweep_result` 8.6 s, criterion 12 4.9 s (two sectors at
n_max 140) and criterion 14 3.5 s; every other test takes under 0.1 s.
Criterion 11 took 0.9 s (its new key, j = 10 at n_max 160, and two Weyl
counts; its j = 20 key is criterion 8's) in a module run of 148 s, and
criterion 9's own sweep 0.06 s.  Budget: the physics criteria still planned
(the semiclassical lattices, classical chaos, the lattice scatter) may add
at most 29 s together.  They take their sectors from `sector`, and each new
key is timed before its size is fixed.
"""

import functools
import os
from pathlib import Path

import numpy as np
import pytest

from dickelat import analysis
from dickelat import hamiltonian as ham
from dickelat import observables as obs
from dickelat import pipeline, solver
from dickelat.basis import enumerate_basis
from dickelat.cli import main as cli_main
from oracles import (
    POISSON_RATIO,
    build_coherent,
    build_fock,
    build_tc_block,
    gap_ratios,
    goe_ratio_cdf,
    ks_distance,
    lambda_diag,
    leading_agreement,
    poisson_ratio_cdf,
    symmetric_matrix,
    tc_full_fock,
    weyl_count,
)

GC = 0.5  # critical coupling at resonance omega = omega0 = 1
DP_TOL = 1e-12  # top-shell weight tolerance of the superradiant runs


def assert_audit_bounds(label, resid, ortho, h_frob):
    """Criterion 9's bounds on one spectrum: residual <= 1e-10 ||H||_F and
    orthonormality defect <= 1e-10."""
    assert resid <= 1e-10 * h_frob, f"{label}: residual {resid:.3e} vs {1e-10*h_frob:.3e}"
    assert ortho <= 1e-10, f"{label}: orthonormality defect {ortho:.3e}"


@pytest.fixture(scope="module", autouse=True)
def audits():
    """(label, max_residual, max_ortho_defect, h_frobenius) of every spectrum
    solver.eigh returns while this module runs, each checked against
    criterion 9's bounds as it is returned: the test or fixture that solved
    a spectrum out of bounds fails."""
    records = []
    eigh = solver.eigh

    def audited(matrix):
        spectrum = eigh(matrix)
        rep = spectrum.residual_report
        label = f"{os.environ.get('PYTEST_CURRENT_TEST')} dim={spectrum.dim}"
        record = (label, rep.max_residual, rep.max_ortho_defect, rep.h_frobenius)
        assert_audit_bounds(*record)
        records.append(record)
        return spectrum

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "eigh", audited)
        yield records


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, cell in zip(header, line.split(",")):
            cols[h].append(float(cell))
    return {h: np.array(v) for h, v in cols.items()}


def crit1_cli_args(outdir):
    return [
        "lattice",
        "--n-atoms", "40",
        "--gamma-over-gc", "0.01",
        "--n-max", "250",
        "--sector", "both",
        "--ops", "Jz,Jx2,photon_n",
        "--out", str(outdir),
    ]


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def crit1_run(out_root):
    """Near-zero-coupling production run through the CLI, both parity sectors."""
    outdir = out_root / "crit1"
    assert cli_main(crit1_cli_args(outdir)) == 0
    gdir = outdir / "gamma=0.005"
    data = {}
    for sector in ("plus", "minus"):
        data[sector] = {
            "energies": read_csv(gdir / sector / "energies.csv"),
            "dir": gdir / sector,
        }
    return {"sectors": data}


@pytest.fixture(scope="module")
def sector():
    """sector(j, gamma_over_gc, n_max, parity): the SectorResult of a
    pipeline.run of that one parity sector at omega = omega0 = 1, with
    RunConfig's default Peres operators (all three), solved once per key."""

    @functools.cache
    def solve(j, gamma_over_gc, n_max, parity):
        params = ham.ModelParams(omega=1.0, omega0=1.0, gamma=gamma_over_gc * GC, j=j)
        return pipeline.run(pipeline.RunConfig(params, n_max, sectors=(parity,))).sectors[0]

    return solve


@pytest.fixture(scope="module")
def g15_sector(sector):
    return sector(20.0, 1.5, 250, 1)


@pytest.fixture(scope="module")
def g20_sector(sector):
    return sector(20.0, 2.0, 250, 1)


@pytest.fixture(scope="module")
def sweep_result():
    cfg = pipeline.RunConfig(
        params=ham.ModelParams(omega=1.0, omega0=1.0, gamma=0.4, j=20.0),
        n_max=100,
        sectors=(1, -1),
        ops=(),
    )
    results, rows = pipeline.sweep(cfg, [f * GC for f in (0.8, 1.0, 1.2, 1.5, 2.0)])
    for res in results:
        assert not isinstance(res, tuple), f"sweep point failed: {res}"
    return results, rows


def _cluster(energies):
    # sorted levels grouped by their nearest integer energy, one group per
    # Tavis-Cummings block Lambda = E + j: the gaps between neighbouring blocks
    # shrink as the widths grow (0.5002 between E = 60 and 61 here), so no gap
    # threshold separates them for long
    splits = np.nonzero(np.diff(np.rint(energies)))[0] + 1
    return np.split(energies, splits)


def _crit1_clusters(crit1_run, j=20.0):
    union = np.sort(
        np.concatenate(
            [crit1_run["sectors"][s]["energies"]["energy"] for s in ("plus", "minus")]
        )
    )
    # up to E/j = 3
    return union, [c for c in _cluster(union) if np.rint(c[0]) <= 3.0 * j]


def test_criterion_01_zero_coupling_cluster_width(crit1_run):
    # First-order law: the coupling splits each E = n + m multiplet because its
    # rotating part a J+ + a+ J- acts inside the multiplet, so a cluster's width
    # is the spread of the Tavis-Cummings block Lambda = E + j.  The widths grow
    # linearly in gamma and with E (0.0100 at E = -19, 0.4978 at E = 60 here).
    # The counter-rotating part enters at second order as the Bloch-Siegert
    # shift s(n, m) = (gamma^2 / 2N)(2nm + m^2 + m - j(j+1)), diagonal in
    # (n, m), so it moves a width by at most 2 max|s| over the cluster's states.
    p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=0.01 * GC, j=20.0)
    _, clusters = _crit1_clusters(crit1_run)
    # one cluster per multiplet up to E/j = 3
    centers = [int(round(c.mean())) for c in clusters]
    assert centers == list(range(-20, 61)), f"cluster centers {centers}"
    offenders = []
    for energy, c in zip(centers, clusters):
        lam = energy + round(p.j)
        block = solver.eigh(build_tc_block(p, lam))
        # a merged or cut cluster would pair the wrong widths
        assert c.size == block.dim, (
            f"E={energy}: cluster holds {c.size} levels, TC block {lam} has {block.dim}"
        )
        m = np.arange(-p.j, p.j + 1)
        n = energy - m
        m, n = m[n >= 0], n[n >= 0]
        shift = p.gamma**2 / (2 * p.n_atoms) * (2 * n * m + m**2 + m - p.j * (p.j + 1))
        tol = 2 * np.abs(shift).max()
        width = c.max() - c.min()
        spread = block.energies[-1] - block.energies[0]
        if abs(width - spread) > tol:
            offenders.append(f"({energy}, {width:.6f}, {spread:.6f}, {tol:.1e})")
    assert not offenders, (
        "cluster widths leave the first-order Tavis-Cummings spread by more than "
        "twice the Bloch-Siegert shift; (E, width, TC spread, tolerance): "
        + ", ".join(offenders)
    )


def test_criterion_01_zero_coupling_degeneracy_saturation(crit1_run):
    j = 20.0
    _, clusters = _crit1_clusters(crit1_run)
    sizes = {}
    for c in clusters:
        center = int(round(c.mean()))
        # clusters sit on the integers and stay well separated (unit spacing)
        assert abs(c.mean() - center) < 0.2
        sizes[center] = c.size
    # linear growth of the multiplicity up to 2j+1 = 41 at E/j = 1, constant above
    for energy in range(-20, 61):
        expect = min(energy + 21, 41)
        assert sizes[energy] == expect, f"E={energy}: {sizes[energy]} != {expect}"
    # level-density knee: the first cluster reaching full multiplicity is E/j = 1
    knee = min(e for e, s in sizes.items() if s == 41)
    assert knee / j == 1.0


def test_criterion_02_convergence_certificate(crit1_run):
    j = 20.0
    for sector in ("plus", "minus"):
        cols = crit1_run["sectors"][sector]["energies"]
        sel = cols["energy_over_j"] <= 3.0
        worst = cols["delta_p"][sel].max()
        assert worst < 1e-30, f"sector {sector}: max delta_p {worst:.3e}"


def test_criterion_03_cross_basis_oracle():
    # the production path (both parity sectors, merged by energy) against the
    # Fock-basis oracle
    cases = {1.0: (60, 280), 5.0: (110, 380)}
    for j, (n_coh, n_fock) in cases.items():
        for frac in (0.3, 0.9, 1.5):
            p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=frac * GC, j=j)
            energies, dp = [], []
            for sector in (1, -1):
                hp = ham.build_coherent_parity(p, n_coh, sector)
                sp = solver.eigh(hp)
                energies.append(sp.energies)
                dp.append(obs.delta_p(sp, enumerate_basis(hp.basis)).delta_p)
            order = np.argsort(np.concatenate(energies), kind="stable")
            energies = np.concatenate(energies)[order]
            conv = np.concatenate(dp)[order] < 1e-12
            sf = solver.eigh(build_fock(p, n_fock))
            assert conv[:30].all(), f"j={j} f={frac}: lowest 30 not all certified"
            diff = np.abs(energies[:30] - sf.energies[:30]).max()
            assert diff <= 1e-8, f"j={j} f={frac}: |dE| = {diff:.3e}"


def test_criterion_04_parity_block_completeness():
    p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=0.8 * GC, j=2.0)
    sc = solver.eigh(build_coherent(p, 20))
    sp = solver.eigh(ham.build_coherent_parity(p, 20, +1))
    sm = solver.eigh(ham.build_coherent_parity(p, 20, -1))
    union = np.sort(np.concatenate([sp.energies, sm.energies]))
    assert union.size == sc.energies.size
    assert np.abs(union - sc.energies).max() <= 1e-10


def test_criterion_05_tavis_cummings_blocks():
    p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=0.4, j=1.0)
    n_full = 60
    h_full = symmetric_matrix(tc_full_fock(p, n_full), None)
    s_full = solver.eigh(h_full)
    lam = lambda_diag(p.j, n_full)
    lam_exp = (s_full.vectors**2 * lam[:, None]).sum(axis=0)
    size = n_full + 1
    for lam_val in range(11):
        block = build_tc_block(p, lam_val)
        s_block = solver.eigh(block)
        ref = np.sort(s_full.energies[np.abs(lam_exp - lam_val) < 1e-6])
        assert ref.size == s_block.dim
        assert np.abs(np.sort(s_block.energies) - ref).max() <= 1e-10
        # reconstruct full-space vectors and pin <Lambda> = lambda
        ms = [m for m in np.arange(-p.j, p.j + 1) if lam_val - p.j - m >= -1e-12]
        for k in range(s_block.dim):
            full_vec = np.zeros(size * (p.n_atoms + 1))
            for row, m in enumerate(ms):
                n = round(lam_val - p.j - m)
                block_index = round(m + p.j) * size + n
                full_vec[block_index] = s_block.vectors[row, k]
            val = full_vec @ (lam * full_vec)
            assert abs(val - lam_val) <= 1e-12


def _markers_for(sector_result):
    assert sector_result.markers is not None
    return sector_result.markers


def test_criterion_06_esqpt_markers(g15_sector, g20_sector):
    m15 = _markers_for(g15_sector)
    m20 = _markers_for(g20_sector)
    for label, mk in (("1.5gc", m15), ("2.0gc", m20)):
        assert abs(mk.dynamic_marker - (-1.0)) <= 0.1, f"{label}: dynamic {mk.dynamic_marker}"
        assert abs(mk.static_marker - 1.0) <= 0.1, f"{label}: static {mk.static_marker}"
    assert abs(m15.static_marker - m20.static_marker) < 0.05
    # stability invariant: halving the bin width moves markers by less than one bin
    for sec in (g15_sector, g20_sector):
        converged = sec.report.delta_p < DP_TOL
        e_over_j = sec.energies[converged] / 20.0  # j of both fixtures
        fine = analysis.esqpt_markers(
            e_over_j, sec.expectations["Jz"][converged], bin_width=0.025
        )
        coarse = sec.markers
        assert abs(fine.dynamic_marker - coarse.dynamic_marker) < 0.05
        assert abs(fine.static_marker - coarse.static_marker) < 0.05


def test_criterion_07_superradiant_ground_state(sweep_result):
    results, rows = sweep_result
    fracs = (0.8, 1.0, 1.2, 1.5, 2.0)
    for frac, row, res in zip(fracs, rows, results):
        assert row["status"] == "ok"
        # ground state is certified converged in each sector
        for sec in res.sectors:
            assert sec.report.converged_count >= 1
        e_over_j = row["ground_e_over_j"]
        assert e_over_j <= -1.0, f"{frac}gc: ground E/j = {e_over_j}"
        if frac >= 1.2:
            assert e_over_j < -1.02, f"{frac}gc: ground E/j = {e_over_j}"


# Criterion 8's window (-1, 1) at 2 gamma_c, j = 20, n_max 250, sector +:
# the leading certified levels, degenerate ones dropped.  Measured: 614
# levels, <r~> 0.529, Kolmogorov-Smirnov distance 0.038 from the GOE surmise
# and 0.239 from the Poisson law, held to criterion 12's bounds.

def test_criterion_08_regular_chaotic_coexistence(g20_sector):
    stats = g20_sector.stats
    assert stats is not None
    by_window = {tuple(entry["window"]): entry for entry in stats}
    mid = by_window[(-1.0, 1.0)]
    low = by_window[(None, -1.0)]
    assert mid["n_levels"] >= 50 and low["n_levels"] >= 50
    assert mid["mean_ratio"] > 0.45, f"mid-window ratio {mid['mean_ratio']:.4f}"
    assert low["mean_ratio"] < 0.43, f"low-window ratio {low['mean_ratio']:.4f}"
    # the whole distribution of r~ in the mid window, not only its mean
    e_over_j = g20_sector.energies[: g20_sector.report.converged_count] / 20.0
    levels = analysis.drop_degenerate(e_over_j[(e_over_j > -1.0) & (e_over_j < 1.0)])
    assert levels.size >= C12_MIN_LEVELS, f"{levels.size} levels"
    ratios = gap_ratios(levels)
    d_goe, d_poisson = ks_distance(ratios, goe_ratio_cdf), ks_distance(ratios, poisson_ratio_cdf)
    assert d_goe <= C12_D_OWN, f"D {d_goe:.3f} from the GOE surmise"
    assert d_poisson >= C12_D_OTHER, f"D {d_poisson:.3f} from the Poisson law"
    # seeded uncorrelated-level reference
    rng = np.random.default_rng(2024)
    levels = np.sort(rng.uniform(0.0, 5000.0, 5000))
    ratio = analysis.mean_gap_ratio(levels)
    assert abs(ratio - POISSON_RATIO) < 0.01


def test_criterion_09_solver_audit(audits):
    # its own spectra: both sectors of a 24-coupling sweep at j = 2, n_max 20
    # (dim 52 and 53), so it holds whatever else runs with it; the recorder
    # checks every other spectrum of the module as it is solved
    first = len(audits)
    cfg = pipeline.RunConfig(
        params=ham.ModelParams(omega=1.0, omega0=1.0, gamma=0.1, j=2.0), n_max=20, ops=()
    )
    results, _ = pipeline.sweep(cfg, [f * GC for f in np.linspace(0.1, 2.4, 24)])
    assert not [res for res in results if isinstance(res, tuple)]
    own = audits[first:]
    assert len(own) >= 40
    for record in own:
        assert_audit_bounds(*record)


def test_criterion_10_determinism(crit1_run, out_root):
    outdir = out_root / "crit10"
    assert cli_main(crit1_cli_args(outdir)) == 0
    gdir = outdir / "gamma=0.005"
    compared = 0
    for sector in ("plus", "minus"):
        ref_dir = crit1_run["sectors"][sector]["dir"]
        for path in sorted(ref_dir.glob("*.csv")):
            other = gdir / sector / path.name
            assert other.read_bytes() == path.read_bytes(), f"{sector}/{path.name} differs"
            compared += 1
    assert compared >= 10


# Criterion 11, sector + at 2 gamma_c: N_q(eps), the count of leading
# certified levels with E/j <= eps, against half the Weyl count of both
# parities, N_W(eps + omega / 2j) / 2 (the quantum a^dag a carries the
# zero-point omega / 2), at edges 0.25 apart from eps = -2 to the top level.
# Above eps = omega0 the Weyl count grows by j (2j + 1) / (2 omega) per unit
# of eps and sector, at any coupling.  Measured:
#   j = 10, n_max 160 (dim 1691): 1024 levels, to E/j 8.97; N_q - N_W / 2
#   from 1.44 to 8.00 (mean 6.65); least-squares slope above eps = 1 105.02
#   against 105.00;
#   j = 20, n_max 250 (dim 5146): 3505 levels, to E/j 7.82; 1.79 to 14.92
#   (mean 12.96); slope 410.03 against 410.00.
# The offset grows like j: its maximum is 0.80 j and 0.75 j, and the j = 20
# one is 1.86x the j = 10 one.  Each bound below carries its margin.
C11_SLOPE_TOL = 0.005  # relative; 25x the worst measured 2.0e-4
C11_MAX_OFFSET_PER_J = 1.2  # 1.5x the worst measured 0.80
C11_OFFSET_RATIO = (1.5, 2.5)  # about the 2 of an offset linear in j; measured 1.86


def test_criterion_11_weyl_level_density(sector):
    max_offset = {}
    for j, n_max in ((10.0, 160), (20.0, 250)):
        sec = sector(j, 2.0, n_max, 1)
        params = ham.ModelParams(omega=1.0, omega0=1.0, gamma=2.0 * GC, j=j)
        e_over_j = sec.energies[: sec.report.converged_count] / j
        edges = np.arange(-2.0, e_over_j[-1], 0.25)
        n_q = np.searchsorted(e_over_j, edges, side="right")
        offset = n_q - weyl_count(params, edges + params.omega / (2 * j)) / 2
        above = edges >= params.omega0
        slope = np.polyfit(edges[above], n_q[above], 1)[0]
        weyl_slope = j * (2 * j + 1) / (2 * params.omega)
        assert abs(slope / weyl_slope - 1) <= C11_SLOPE_TOL, f"j={j}: slope {slope:.2f}"
        low, high = offset.argmin(), offset.argmax()
        assert offset[low] >= 0, f"j={j}: N_q - N_W/2 {offset[low]:.2f} at {edges[low]}"
        assert offset[high] <= C11_MAX_OFFSET_PER_J * j, (
            f"j={j}: N_q - N_W/2 {offset[high]:.2f} at {edges[high]}"
        )
        max_offset[j] = offset[high]
    ratio = max_offset[20.0] / max_offset[10.0]
    lo, hi = C11_OFFSET_RATIO
    assert lo <= ratio <= hi, f"the j = 20 offset is {ratio:.2f}x the j = 10 one"


# Criterion 12, j = 20, n_max 140, sector +: the distribution of the gap
# ratio r~ = min(s_i, s_i+1) / max(s_i, s_i+1) of the leading certified
# levels with 1 <= E/j < 2.5, degenerate ones dropped, against the laws of
# Atas et al., PRL 110, 084101 (2013).  Measured: at 0.4 gamma_c 617 levels,
# <r~> 0.400, Kolmogorov-Smirnov distance D 0.035 from the Poisson law and
# 0.245 from the GOE surmise; at 0.8 gamma_c 616 levels, <r~> 0.525, D 0.031
# from GOE and 0.242 from Poisson.  Sector - (613 and 615 levels) reads <r~>
# 0.372 and 0.529, D 0.050 and 0.037 from its own law, 0.287 and 0.256 from
# the other.  Consecutive ratios share a gap, so they are not independent and
# the textbook KS critical value (1.36 / sqrt(615) = 0.055) is only a guide.
# A mean of about 615 ratios has a standard error near 0.012.  Each bound
# below carries its margin.
C12_MIN_LEVELS = 550  # 10% under the measured 616
C12_D_OWN = 0.06  # 1.7x the worst measured 0.035 (and sector -'s 0.050)
C12_D_OTHER = 0.18  # 0.75x the least measured 0.242
C12_MAX_MEAN_REGULAR = 0.43  # the measured 0.400 plus 0.03
C12_MIN_MEAN_CHAOTIC = 0.50  # the measured 0.525 less 0.025


def test_criterion_12_chaos_below_critical_coupling(sector):
    # regular at 0.4 gamma_c, chaotic already at 0.8 gamma_c: the onset of
    # chaos lies below gamma_c
    cases = (
        (0.4, poisson_ratio_cdf, goe_ratio_cdf),
        (0.8, goe_ratio_cdf, poisson_ratio_cdf),
    )
    means = {}
    for frac, own, other in cases:
        sec = sector(20.0, frac, 140, 1)
        e_over_j = sec.energies[: sec.report.converged_count] / 20.0
        levels = analysis.drop_degenerate(e_over_j[(e_over_j >= 1.0) & (e_over_j < 2.5)])
        assert levels.size >= C12_MIN_LEVELS, f"{frac}gc: {levels.size} levels"
        ratios = gap_ratios(levels)
        d_own, d_other = ks_distance(ratios, own), ks_distance(ratios, other)
        assert d_own <= C12_D_OWN, f"{frac}gc: D {d_own:.3f} from {own.__name__}"
        assert d_other >= C12_D_OTHER, f"{frac}gc: D {d_other:.3f} from {other.__name__}"
        means[frac] = analysis.mean_gap_ratio(levels)
    assert means[0.4] <= C12_MAX_MEAN_REGULAR, f"0.4gc: <r~> {means[0.4]:.4f}"
    assert means[0.8] >= C12_MIN_MEAN_CHAOTIC, f"0.8gc: <r~> {means[0.8]:.4f}"


# Criterion 14, j = 10 at 2 gamma_c.  Measured against an n_max 200 run: the
# leading certified states of an n_max 120 run (665 in sector +, 661 in -)
# agree to 7.2e-11 and 7.6e-11 in energy and to 1.74e-10 and 3.19e-10 in
# <Jz>/j; at equal dim 1701 (n_max 80, both sectors merged), 764 leading
# states of the displaced basis agree to 1e-8, against 48 of the Fock basis.
# Each bound below carries its margin.
C14_SOUND_BOUND = 3e-10  # 4x the worst measured 7.6e-11
C14_JZ_BOUND = 1.3e-9  # on <Jz>/j: 4x the worst measured 3.19e-10
C14_MIN_CERTIFIED = 600  # per sector at n_max 120: 10% under the measured 661
C14_AGREE_TOL = 1e-8
C14_MIN_FOCK = 24  # half the measured 48
C14_MIN_RATIO = 8  # half the measured 764 / 48 = 15.9


def _merged_sectors(sectors):
    """Energies and delta_p of a run's sectors, merged in ascending energy."""
    energies = np.concatenate([s.energies for s in sectors])
    order = np.argsort(energies, kind="stable")
    return energies[order], np.concatenate([s.report.delta_p for s in sectors])[order]


def test_criterion_14_certificate_soundness_and_basis_claim():
    p = ham.ModelParams(omega=1.0, omega0=1.0, gamma=2.0 * GC, j=10.0)
    runs = {
        n_max: pipeline.run(pipeline.RunConfig(params=p, n_max=n_max, ops=ops)).sectors
        for n_max, ops in ((80, ()), (120, ("Jz",)), (200, ("Jz",)))
    }
    # soundness: the certificate tests itself at two truncations, not the model
    # or the operator
    for sector, run, ref in zip((1, -1), runs[120], runs[200]):
        k = run.report.converged_count
        assert C14_MIN_CERTIFIED <= k <= ref.report.converged_count, f"sector {sector}: {k}"
        worst = np.abs(run.energies[:k] - ref.energies[:k]).max()
        assert worst <= C14_SOUND_BOUND, f"sector {sector}: |dE| = {worst:.3e}"
        jz, jz_ref = run.expectations["Jz"][:k], ref.expectations["Jz"][:k]
        worst_jz = np.abs(jz - jz_ref).max() / p.j
        assert worst_jz <= C14_JZ_BOUND, f"sector {sector}: |d<Jz>|/j = {worst_jz:.3e}"
    # the basis claim, against the independent Fock oracle at the same dim
    ref_energies, ref_dp = _merged_sectors(runs[200])
    reference = ref_energies[: np.logical_and.accumulate(ref_dp < DP_TOL).sum()]
    displaced, _ = _merged_sectors(runs[80])
    fock = solver.eigh(build_fock(p, 80)).energies
    assert displaced.size == fock.size == 1701
    n_displaced = leading_agreement(displaced, reference, C14_AGREE_TOL)
    n_fock = leading_agreement(fock, reference, C14_AGREE_TOL)
    assert n_displaced < reference.size, "the reference's certified states ran out"
    assert n_fock >= C14_MIN_FOCK, f"Fock gets {n_fock} leading states right"
    assert n_displaced >= C14_MIN_RATIO * n_fock, f"{n_displaced} displaced against {n_fock} Fock"
