import configparser
import csv
import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from dickelat import analysis, cli, hamiltonian, observables, pipeline, solver
from dickelat.basis import BasisSpec, basis_size, enumerate_basis
from dickelat.cli import main
from dickelat.errors import CapacityError, ConfigError, SolverError
from dickelat.hamiltonian import ModelParams

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_config(tmp_path, **kw):
    defaults = dict(
        params=ModelParams(omega=1.0, omega0=1.0, gamma=0.3, j=1.0),
        n_max=20,
        sectors=(1, -1),
        ops=("Jz", "Jx2", "photon_n"),
        out_dir=tmp_path / "out",
    )
    defaults.update(kw)
    return pipeline.RunConfig(**defaults)


def _reachable_arrays(root):
    """Every ndarray reachable from `root` through objects, exceptions,
    tracebacks and the locals of their frames; modules, classes, functions
    and the callers of a frame are not followed."""
    seen, todo, arrays = set(), [root], []
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType, types.CodeType)
        ):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, types.FrameType):
            todo.extend(obj.f_locals.values())
        else:
            todo.extend(gc.get_referents(obj))
    return arrays


def _certified_levels(sector_dir):
    """(E/j, certified, leading) of a sector's states, read from
    energies.csv; the leading ones are those before the first uncertified one."""
    with open(sector_dir / "energies.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    e_over_j = np.array([float(r["energy_over_j"]) for r in table])
    certified = np.array([float(r["delta_p"]) for r in table]) < observables.DP_TOLERANCE
    return e_over_j, certified, np.logical_and.accumulate(certified)


class TestPipelineRun:
    def test_products_and_manifest(self, tmp_path):
        cfg = small_config(tmp_path)
        result = pipeline.run(cfg)
        assert len(result.sectors) == 2
        for man in result.manifests:
            assert man["status"] == "ok"
            sector_dir = result.out_dir / pipeline.SECTOR_DIRS[man["sector"]]
            for name, digest in man["files"].items():
                path = sector_dir / name
                assert path.exists()
                actual = "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
                assert actual == digest
            assert "energies.csv" in man["files"]
            assert "lattice_Jz.csv" in man["files"]
            assert man["residual_report"]["max_residual"] <= (
                1e-10 * man["residual_report"]["h_frobenius"]
            )

    @pytest.mark.parametrize(
        "ops, products",
        [
            (("Jx2",), ["dos.csv", "energies.csv", "lattice_Jx2.csv", "stats.json"]),
            ((), ["energies.csv"]),
        ],
        ids=["no-Jz", "no-ops"],
    )
    def test_ops_decide_products(self, tmp_path, ops, products):
        result = pipeline.run(small_config(tmp_path, sectors=(1,), ops=ops))
        assert sorted(result.manifests[0]["files"]) == products
        sector = result.sectors[0]
        assert list(sector.expectations) == list(ops)
        assert sector.markers is None
        assert (sector.dos is None) == (sector.stats is None) == (not ops)

    def test_manifest_stage_timings_sum_to_wall_time(self, tmp_path):
        result = pipeline.run(small_config(tmp_path))
        for man in result.manifests:
            timings = man["timings_s"]
            assert list(timings) == ["build", "solve", "certificate", "observables", "analysis"]
            assert all(t >= 0.0 for t in timings.values())
            assert sum(timings.values()) == man["wall_time_s"]
            on_disk = json.loads(
                (result.out_dir / pipeline.SECTOR_DIRS[man["sector"]] / "manifest.json").read_text()
            )
            assert on_disk["timings_s"] == timings

    def test_csv_round_trip_precision(self, tmp_path):
        cfg = small_config(tmp_path, sectors=(1,))
        result = pipeline.run(cfg)
        sector = result.sectors[0]
        path = result.out_dir / "plus" / "energies.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "index,energy,energy_over_j,parity,delta_p"
        vals = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.array_equal(vals, sector.energies)  # 17 digits: exact round trip

    @pytest.mark.parametrize("j", [1.0, 1.5], ids=["integer-j", "half-integer-j"])
    def test_parity_column_is_the_sector_label(self, tmp_path, j):
        params = ModelParams(omega=1.0, omega0=1.0, gamma=0.6, j=j)
        cfg = small_config(tmp_path, params=params)
        result = pipeline.run(cfg)
        tables = ["energies.csv", *(f"lattice_{op}.csv" for op in cfg.ops)]
        for man in result.manifests:
            sector_dir = result.out_dir / pipeline.SECTOR_DIRS[man["sector"]]
            for name in tables:
                lines = (sector_dir / name).read_text().splitlines()
                column = lines[0].split(",").index("parity")
                cells = [line.split(",")[column] for line in lines[1:]]
                assert len(cells) == man["dim"]
                assert set(cells) == {str(man["sector"])}, name

    def test_determinism_byte_identical(self, tmp_path):
        cfg1 = small_config(tmp_path, out_dir=tmp_path / "a")
        cfg2 = small_config(tmp_path, out_dir=tmp_path / "b")
        r1 = pipeline.run(cfg1)
        r2 = pipeline.run(cfg2)
        for man in r1.manifests:
            sec = pipeline.SECTOR_DIRS[man["sector"]]
            for name in man["files"]:
                if not name.endswith(".csv"):
                    continue
                b1 = (r1.out_dir / sec / name).read_bytes()
                b2 = (r2.out_dir / sec / name).read_bytes()
                assert b1 == b2, f"{name} differs between identical runs"

    def test_run_failure_flushes_marker(self, tmp_path):
        cfg = small_config(tmp_path, mem_budget_bytes=1000)
        with pytest.raises(Exception):
            pipeline.run(cfg)
        man = json.loads((cfg.out_dir / "gamma=0.3" / "plus" / "manifest.json").read_text())
        assert man["status"] == "failed"
        assert "error" in man

    def test_failed_rewrite_replaces_ok_manifest(self, tmp_path, monkeypatch):
        first = small_config(tmp_path, n_max=10)
        pipeline.run(first)
        manifest = first.out_dir / "gamma=0.3" / "plus" / "manifest.json"
        assert json.loads(manifest.read_text())["status"] == "ok"

        write_text = pipeline._write_text

        def failing_write(path, text):
            if path.name == "lattice_Jz.csv":
                raise OSError("disk full")
            write_text(path, text)

        monkeypatch.setattr(pipeline, "_write_text", failing_write)
        with pytest.raises(OSError):
            pipeline.run(small_config(tmp_path, n_max=12))
        man = json.loads(manifest.read_text())
        assert man["status"] == "failed"
        assert man["n_max"] == 12
        assert "disk full" in man["error"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        pipeline.run(small_config(tmp_path, n_max=10))
        sector_dir = tmp_path / "out" / "gamma=0.3" / "plus"
        before = {p.name: p.read_bytes() for p in sector_dir.iterdir()}

        write_bytes = Path.write_bytes

        def half_then_full_disk(path, data):
            if path.name.startswith(".lattice_Jz.csv."):
                write_bytes(path, data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "disk full")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", half_then_full_disk)
        with pytest.raises(OSError):
            pipeline.run(small_config(tmp_path, n_max=12))
        # no temporary file is left, and every final name holds a whole file
        # of this run: the new energies.csv and the failed manifest; the
        # previous run's products are cleared before the rerun starts
        assert "lattice_Jz.csv" in before
        assert sorted(p.name for p in sector_dir.iterdir()) == ["energies.csv", "manifest.json"]
        dim = enumerate_basis(BasisSpec(1.0, 12, 1)).size
        assert len((sector_dir / "energies.csv").read_text().splitlines()) == dim + 1
        assert json.loads((sector_dir / "manifest.json").read_text())["status"] == "failed"

    def test_manifest_records_blas_threads_and_peak_rss(self, tmp_path):
        with solver.blas_threads(1):
            result = pipeline.run(small_config(tmp_path, sectors=(1,)))
            with pytest.raises(CapacityError):
                pipeline.run(small_config(tmp_path, sectors=(-1,), mem_budget_bytes=1000))
        for sector in ("plus", "minus"):
            man = json.loads((result.out_dir / sector / "manifest.json").read_text())
            assert man["blas_threads"] == 1
            assert 0 < man["peak_rss_mib"] < 1e6
        assert result.manifests[0]["peak_rss_mib"] <= man["peak_rss_mib"]

    def test_manifest_records_library_versions(self, tmp_path):
        result = pipeline.run(small_config(tmp_path, n_max=8, sectors=(1,)))
        man = json.loads((result.out_dir / "plus" / "manifest.json").read_text())
        versions = man["versions"]
        # numpy's version and the build string of the OpenBLAS numpy links
        assert set(versions) == {"numpy", "openblas"}
        assert versions["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        assert versions["openblas"].startswith(f"OpenBLAS {blas['version']} ")

    def test_out_of_bounds_expectation_fails_the_sector(self, tmp_path, monkeypatch):
        # at zero coupling the top state of sector + has <Jz> = j exactly; a Jz
        # scaled by 1 + 1e-6 leaves [-j, j] by far more than the slack
        peres_expectation = observables.peres_expectation

        def scaled(op, spectrum, ladder):
            values = peres_expectation(op, spectrum, ladder)
            return values * (1.0 + 1e-6) if op == "Jz" else values

        monkeypatch.setattr(observables, "peres_expectation", scaled)
        cfg = small_config(
            tmp_path, params=ModelParams(omega=1.0, omega0=1.0, gamma=0.0, j=2.0),
            n_max=10, sectors=(1,),
        )
        with pytest.raises(ValueError, match="Jz expectation outside"):
            pipeline.run(cfg)
        man = json.loads((cfg.out_dir / "gamma=0" / "plus" / "manifest.json").read_text())
        assert man["status"] == "failed"
        assert "Jz expectation outside" in man["error"]

    def test_peak_rss_excludes_the_launcher(self, tmp_path):
        # a launcher holding 300 MiB (written, so resident) while the run lives
        # must not lend its peak to the run's manifest
        held = np.ones(300 * 2**20 // 8)
        src = str(Path(pipeline.__file__).resolve().parents[1])
        argv = ["spectrum", "--n-atoms", "2", "--gamma", "0.3", "--n-max", "8", "--sector", "+"]
        subprocess.run(
            [sys.executable, "-m", "dickelat", *argv, "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, check=True, timeout=120,
        )
        del held
        man = json.loads((tmp_path / "gamma=0.3" / "plus" / "manifest.json").read_text())
        assert 0 < man["peak_rss_mib"] < 150

    def test_peak_rss_is_null_without_proc_status(self, tmp_path, monkeypatch):
        def unreadable(*args, **kwargs):
            raise OSError(errno.ENOENT, "no /proc")

        monkeypatch.setattr(pipeline, "open", unreadable, raising=False)
        result = pipeline.run(small_config(tmp_path, n_max=8, sectors=(1,)))
        assert result.manifests[0]["peak_rss_mib"] is None

    def test_killed_rerun_leaves_no_manifest(self, tmp_path, monkeypatch):
        first = small_config(tmp_path, n_max=10)
        pipeline.run(first)
        gamma_dir = first.out_dir / "gamma=0.3"
        assert (gamma_dir / "plus" / "manifest.json").exists()
        assert (gamma_dir / "minus" / "manifest.json").exists()
        # what a run killed while writing energies.csv leaves behind
        orphan = gamma_dir / "plus" / ".energies.csv.123-456.tmp"
        orphan.write_text("index,energy\n0,")

        def killed(*args):
            raise KeyboardInterrupt

        # the first call of each sector, on whichever thread solves it
        monkeypatch.setattr(hamiltonian, "sector_ladder", killed)
        with pytest.raises(KeyboardInterrupt):
            pipeline.run(small_config(tmp_path, n_max=12))
        # neither the sector that died nor the one never reached looks complete
        assert not (gamma_dir / "plus" / "manifest.json").exists()
        assert not (gamma_dir / "minus" / "manifest.json").exists()
        assert not orphan.exists()

    def test_killed_sweep_rerun_leaves_no_summary(self, tmp_path, monkeypatch):
        first = small_config(tmp_path, n_max=8, ops=())
        pipeline.sweep(first, (0.1, 0.2))
        summary = first.out_dir / "summary.csv"
        assert summary.exists()
        # what a sweep killed while writing its table leaves behind
        orphan = first.out_dir / ".summary.csv.123-456.tmp"
        orphan.write_text("gamma,")
        ladder, calls = hamiltonian.sector_ladder, []

        def killed_in_second_sector(*args):
            calls.append(args)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return ladder(*args)

        monkeypatch.setattr(hamiltonian, "sector_ladder", killed_in_second_sector)
        with pytest.raises(KeyboardInterrupt):
            pipeline.sweep(small_config(tmp_path, n_max=10, ops=()), (0.1, 0.2))
        # the first sweep's table would list both points as ok at n_max 8
        assert not summary.exists()
        assert not orphan.exists()

    def test_rerun_clears_products_it_does_not_write(self, tmp_path):
        first = small_config(tmp_path, sectors=(1,))
        pipeline.run(first)
        sector_dir = first.out_dir / "gamma=0.3" / "plus"
        assert {"dos.csv", "stats.json", "lattice_Jz.csv"} <= {p.name for p in sector_dir.iterdir()}
        # what --ops wrote before, a spectrum rerun at another n_max must not leave beside it
        result = pipeline.run(small_config(tmp_path, sectors=(1,), n_max=12, ops=()))
        assert sorted(p.name for p in sector_dir.iterdir()) == ["energies.csv", "manifest.json"]
        assert sorted(result.manifests[0]["files"]) == ["energies.csv"]

    def test_manifest_and_markers_record_the_constants(self, tmp_path):
        # the certificate tolerance and the E/j bin width every run uses
        params = ModelParams(omega=1.0, omega0=1.0, gamma=1.0, j=10.0)
        cfg = small_config(tmp_path, params=params, n_max=40, sectors=(1,), ops=("Jz",))
        result = pipeline.run(cfg)
        sector_dir = result.out_dir / "plus"
        man = json.loads((sector_dir / "manifest.json").read_text())
        assert man["dp_tolerance"] == 1e-12
        assert json.loads((sector_dir / "markers.json").read_text())["bin_width"] == 0.05
        assert man["dim"] == result.sectors[0].energies.size

    def test_a_sector_writes_exactly_the_names_a_rerun_clears(self, tmp_path):
        # all three operators, and markers found: every product a sector can write
        params = ModelParams(omega=1.0, omega0=1.0, gamma=1.0, j=10.0)
        cfg = small_config(tmp_path, params=params, n_max=40, sectors=(1,))
        (result,), _ = pipeline.sweep(cfg, (1.0,))
        assert result.sectors[0].markers is not None
        sector_dir = result.out_dir / "plus"
        names = [*result.manifests[0]["files"], "manifest.json"]
        assert sorted(names) == sorted(pipeline._SECTOR_FILES)
        assert sorted(p.name for p in sector_dir.iterdir()) == sorted(pipeline._SECTOR_FILES)
        with open(cfg.out_dir / "summary.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert [c for c in header if c.startswith("ratio_")] == list(pipeline.STAT_WINDOWS)

    def test_sweep_isolates_failures(self, tmp_path):
        cfg = small_config(
            tmp_path,
            mem_budget_bytes=8 * (21 * 2 + 11) ** 2 + 10**6,
        )
        results, rows = pipeline.sweep(cfg, (0.2, 0.4))
        assert all(not isinstance(r, tuple) for r in results)
        assert [row["status"] for row in rows] == ["ok", "ok"]
        summary = (cfg.out_dir / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("gamma,")
        assert len(summary) == 3

    def test_sweep_without_couplings_is_config_error(self, tmp_path, no_build):
        with pytest.raises(ConfigError, match="at least one coupling"):
            pipeline.sweep(small_config(tmp_path), [])

    def test_sweep_results_follow_coupling_order(self, tmp_path):
        cfg = small_config(tmp_path, n_max=12, ops=())
        results, rows = pipeline.sweep(cfg, (0.2, 0.3, 0.4))
        assert [row["status"] for row in rows] == ["ok"] * 3
        # results and rows follow the order of the couplings
        grounds = [min(s.energies[0] for s in r.sectors) for r in results]
        assert grounds == sorted(grounds, reverse=True)

    def test_sweep_leaves_default_budget(self, tmp_path):
        default = hamiltonian.MEMORY_BUDGET_BYTES
        cfg = small_config(tmp_path, n_max=12, ops=(), mem_budget_bytes=2**30)
        _, rows = pipeline.sweep(cfg, (0.2, 0.3, 0.4, 0.5))
        assert [row["status"] for row in rows] == ["ok"] * 4
        assert hamiltonian.MEMORY_BUDGET_BYTES == default

    def test_sweep_budget_below_every_matrix_fails_each_point(self, tmp_path):
        cfg = small_config(tmp_path, n_max=12, ops=(), mem_budget_bytes=1000)
        results, rows = pipeline.sweep(cfg, (0.2, 0.3, 0.4, 0.5))
        assert [row["status"] for row in rows] == ["failed"] * 4
        assert all(isinstance(r[1], CapacityError) for r in results)

    def test_stats_are_raw_gap_ratios_of_certified_levels(self, tmp_path):
        # j = 10 at gamma_c / 2: one level below E/j = -1, 115 between -1 and 1
        params = ModelParams(omega=1.0, omega0=1.0, gamma=0.25, j=10.0)
        cfg = small_config(tmp_path, params=params, n_max=40, ops=("Jz",))
        _, rows = pipeline.sweep(cfg, (0.25,))
        with open(cfg.out_dir / "summary.csv", newline="") as fh:
            (summary,) = csv.DictReader(fh)
        n_levels = {}
        for sector in cfg.sectors:
            sector_dir = cfg.out_dir / "gamma=0.25" / pipeline.SECTOR_DIRS[sector]
            e_over_j, _, leading = _certified_levels(sector_dir)
            e_over_j = e_over_j[leading]
            stats = json.loads((sector_dir / "stats.json").read_text())
            assert [entry["window"] for entry in stats] == [[None, -1.0], [-1.0, 1.0]]
            for entry, column in zip(stats, ("ratio_low", "ratio_mid")):
                lo, hi = (-np.inf if w is None else w for w in entry["window"])
                levels = analysis.drop_degenerate(e_over_j[(e_over_j > lo) & (e_over_j < hi)])
                assert entry["n_levels"] == levels.size
                n_levels[sector, column] = levels.size
                if levels.size < 50:
                    assert entry == {"window": entry["window"], "n_levels": levels.size,
                                     "skipped": "fewer than 50 levels"}
                    ratio = np.nan
                else:
                    ratio = analysis.mean_gap_ratio(levels)
                    assert set(entry) == {"window", "n_levels", "mean_ratio"}
                    assert entry["mean_ratio"] == ratio
                if sector == cfg.sectors[0]:
                    np.testing.assert_array_equal(float(summary[column]), ratio)
                    np.testing.assert_array_equal(rows[0][column], ratio)
        # both kinds of window are exercised
        assert n_levels[1, "ratio_low"] < 50 <= n_levels[1, "ratio_mid"]

    def test_gap_ratios_skip_levels_past_an_uncertified_one(self, tmp_path):
        # j = 10, n_max 40 at 1.5 gamma_c, sector -: state 71 (E/j = 0.115) is
        # the first uncertified one, and 6 of the 70 certified levels in
        # (-1, 1) lie above it; a ratio across that hole would span a level
        # that is missing from the list
        params = ModelParams(omega=1.0, omega0=1.0, gamma=0.75, j=10.0)
        cfg = small_config(tmp_path, params=params, n_max=40, sectors=(-1,), ops=("Jz",))
        pipeline.run(cfg)
        sector_dir = cfg.out_dir / "gamma=0.75" / "minus"
        e_over_j, certified, leading = _certified_levels(sector_dir)
        in_window = (e_over_j > -1.0) & (e_over_j < 1.0)
        every_certified = analysis.drop_degenerate(e_over_j[certified & in_window])
        consecutive = analysis.drop_degenerate(e_over_j[leading & in_window])
        assert consecutive.size >= 50 and every_certified.size > consecutive.size
        stats = json.loads((sector_dir / "stats.json").read_text())
        assert stats[1] == {"window": [-1.0, 1.0], "n_levels": consecutive.size,
                            "mean_ratio": analysis.mean_gap_ratio(consecutive)}
        manifest = json.loads((sector_dir / "manifest.json").read_text())
        assert manifest["converged_count"] == leading.sum()

    # each kind of failure: omega0, the couplings, the error and its words;
    # a failed audit, an overflowing W and an H LAPACK would rescale (both
    # refused when H is built, from SymmetricMatrix's ValueError)
    FAILURES = {
        "audit": (1.0, (0.2, 0.4, 0.6), SolverError, "solver audit failed"),
        "w-overflow": (1.0, (1e40, 2e40, 3e40), ConfigError, "cannot be solved"),
        "rescale": (1e300, (0.2, 0.4, 0.6), ConfigError, "largest |entry| is"),
    }

    @pytest.mark.parametrize(
        "kind, n_max",
        [("audit", 100), ("audit", 239), ("w-overflow", 100), ("w-overflow", 239),
         ("rescale", 100), ("rescale", 239)],
        ids=["solve-ahead", "serial", "w-overflow-solve-ahead", "w-overflow-serial",
             "rescale-solve-ahead", "rescale-serial"],
    )
    def test_failed_points_hold_no_matrix(self, tmp_path, monkeypatch, kind, n_max):
        # n_max 239 gives dim 600, the first at SOLVE_AHEAD_BELOW_DIM, where
        # the sectors run one at a time; W, (n_max + 1)^2, is the smallest
        # matrix a point makes
        def out_of_bounds(hmat, energies, vectors):
            return solver.ResidualReport(1e-3, 0.0, 1.0)

        omega0, gammas, error, words = self.FAILURES[kind]
        if kind == "audit":
            monkeypatch.setattr(solver, "residual_report_for", out_of_bounds)
        params = ModelParams(omega=1.0, omega0=omega0, gamma=0.3, j=2.0)
        cfg = small_config(tmp_path, params=params, n_max=n_max, sectors=(1,))
        dim = basis_size(BasisSpec(2.0, n_max, 1))
        assert (dim >= pipeline.SOLVE_AHEAD_BELOW_DIM) == (n_max == 239)
        results, rows = pipeline.sweep(cfg, gammas)
        assert [row["status"] for row in rows] == ["failed"] * 3
        for _, exc in results:
            assert type(exc) is error and words in str(exc)
        held = [a.shape for a in _reachable_arrays(results) if a.size >= (n_max + 1) ** 2]
        assert held == []

    def test_sweep_ground_energy_drops_past_critical(self, tmp_path):
        cfg = small_config(
            tmp_path,
            params=ModelParams(omega=1.0, omega0=1.0, gamma=0.1, j=5.0),
            n_max=60,
            ops=(),
            out_dir=None,
        )
        results, rows = pipeline.sweep(cfg, (0.25, 0.75))
        assert rows[0]["ground_e_over_j"] == pytest.approx(-1.0, abs=0.02)
        assert rows[1]["ground_e_over_j"] < -1.1

    def test_manifest_says_why_markers_are_missing(self, tmp_path):
        # the benchmark's 16-coupling sweep: N = 20, n_max 40, both sectors
        params = ModelParams(omega=1.0, omega0=1.0, gamma=0.1, j=10.0)
        cfg = small_config(
            tmp_path,
            params=params,
            n_max=40,
        )
        gammas = [params.gamma_c * (0.2 + k * 2.8 / 15) for k in range(16)]
        _, rows = pipeline.sweep(cfg, gammas)
        assert [row["status"] for row in rows] == ["ok"] * 16
        manifests = sorted(cfg.out_dir.glob("gamma=*/*/manifest.json"))
        assert len(manifests) == 32
        missing = 0
        for path in manifests:
            man = json.loads(path.read_text())
            if (path.parent / "markers.json").exists():
                assert "markers_error" not in man, path
            else:
                missing += 1
                assert man["markers_error"], path
        assert 0 < missing < 32


class TestSolveAhead:
    """A small sweep solves each sector on a worker thread one ahead of the
    previous sector's products; a budget that admits one sector but not two
    runs it one sector at a time.  The two must be indistinguishable."""

    GAMMAS = (0.2, 0.4, 0.6, 0.8)

    @staticmethod
    def config(out_dir, budget=hamiltonian.MEMORY_BUDGET_BYTES):
        params = ModelParams(omega=1.0, omega0=1.0, gamma=0.1, j=2.0)
        return pipeline.RunConfig(params, n_max=12, out_dir=out_dir, mem_budget_bytes=budget)

    @staticmethod
    def one_sector_budget():
        return max(hamiltonian.footprint_bytes(BasisSpec(2.0, 12, s)) for s in (1, -1))

    @staticmethod
    def recorded_sweep(cfg, monkeypatch, fail_call=None):
        """sweep(cfg, GAMMAS) with every solver.eigh call recorded as perfbench
        records it (the sector and a digest of H), plus whether it ran on the
        main thread; call number `fail_call` raises SolverError instead."""
        calls = []
        eigh = solver.eigh

        def recorder(matrix):
            calls.append((
                matrix.basis, hashlib.sha256(matrix.data.tobytes()).hexdigest(),
                threading.current_thread() is threading.main_thread(),
            ))
            if len(calls) - 1 == fail_call:
                raise SolverError("injected failure")
            return eigh(matrix)

        monkeypatch.setattr(solver, "eigh", recorder)
        threads = threading.active_count()
        _, rows = pipeline.sweep(cfg, TestSolveAhead.GAMMAS)
        # the worker is joined before sweep returns
        assert threading.active_count() == threads
        monkeypatch.setattr(solver, "eigh", eigh)
        out = cfg.out_dir
        files = {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"
        }
        manifests = {}
        for path in sorted(out.rglob("manifest.json")):
            man = json.loads(path.read_text())
            manifests[str(path.relative_to(out))] = (man["status"], man["files"], man.get("error"))
        statuses = [row["status"] for row in rows]
        return files, manifests, statuses, calls

    @pytest.mark.parametrize("fail_call", [None, 2], ids=["ok", "second-coupling-plus-fails"])
    def test_matches_one_sector_at_a_time(self, tmp_path, monkeypatch, fail_call):
        # the serial run keeps the process's thread count: set it to the
        # worker's, so both solve on one thread
        with solver.blas_threads(1):
            ahead = self.recorded_sweep(self.config(tmp_path / "ahead"), monkeypatch, fail_call)
            serial = self.recorded_sweep(
                self.config(tmp_path / "serial", self.one_sector_budget()), monkeypatch, fail_call
            )
        files, manifests, statuses, calls = ahead
        assert "summary.csv" in files and len(manifests) == 8 - (fail_call is not None)
        assert statuses == (["ok"] * 4 if fail_call is None else ["ok", "failed", "ok", "ok"])
        # products, summary.csv, manifests and the solve sequence are the same
        assert ahead[:3] == serial[:3]
        assert [c[:2] for c in calls] == [c[:2] for c in serial[3]]
        # every solve ran on the worker, or on the main thread under the budget
        assert not any(main for *_, main in calls)
        assert all(main for *_, main in serial[3])
        if fail_call is not None:
            man = manifests["gamma=0.4/plus/manifest.json"]
            assert man[0] == "failed" and "injected failure" in man[2]
            assert "gamma=0.4/minus/manifest.json" not in manifests

    def test_failed_products_discard_the_solve_ahead(self, tmp_path, monkeypatch):
        # the second coupling's + sector fails after its solve, while its -
        # sector is already being solved: that solve is dropped, and the
        # later couplings still get their own sectors
        write_text = pipeline._write_text

        def full_disk(path, text):
            if path.parent.parent.name == "gamma=0.4" and path.name == "energies.csv":
                raise OSError("disk full")
            return write_text(path, text)

        monkeypatch.setattr(pipeline, "_write_text", full_disk)
        with solver.blas_threads(1):
            files, manifests, statuses, calls = self.recorded_sweep(
                self.config(tmp_path / "ahead"), monkeypatch
            )
            serial = self.recorded_sweep(
                self.config(tmp_path / "serial", self.one_sector_budget()), monkeypatch
            )
        assert statuses == ["ok", "failed", "ok", "ok"]
        assert (files, manifests, statuses) == serial[:3]
        assert "disk full" in manifests["gamma=0.4/plus/manifest.json"][2]
        # the dropped solve is the one extra call
        sectors = [(c[0].parity_sector, c[1]) for c in calls]
        assert len(calls) == len(serial[3]) + 1
        assert sectors[:3] + sectors[4:] == [(c[0].parity_sector, c[1]) for c in serial[3]]
        assert sectors[3][0] == -1


class TestConfigValidation:
    def test_bad_sector(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, sectors=(2,))

    def test_bad_op(self, tmp_path):
        with pytest.raises(ConfigError):
            small_config(tmp_path, ops=("Jx",))

    def test_duplicate_sectors(self, tmp_path):
        with pytest.raises(ConfigError, match="sectors must be distinct"):
            small_config(tmp_path, sectors=(1, 1))

    @pytest.mark.parametrize("budget", [0, -(2**30)])
    def test_bad_mem_budget(self, tmp_path, budget):
        with pytest.raises(ConfigError, match="mem_budget_bytes"):
            small_config(tmp_path, mem_budget_bytes=budget)


@pytest.fixture
def no_build(monkeypatch):
    """Fail the test if any Hamiltonian is built."""

    def build(*a, **k):
        raise AssertionError("matrix built despite a config error")

    monkeypatch.setattr(hamiltonian, "build_sector", build)


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_a_run_imports_no_scipy(self):
        # a fresh interpreter: the test oracles import scipy into this one
        src = str(Path(cli.__file__).resolve().parents[1])
        script = (
            "import sys, dickelat.cli; "
            "code = dickelat.cli.main(['spectrum', '--n-atoms', '2', '--gamma', '0.3', "
            "'--n-max', '8']); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=120,
        )
        assert proc.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("gammas", ["0.1,0.1000000000000001,0.2", "0.1,0.1"])
    def test_sweep_refuses_couplings_sharing_a_directory(
        self, tmp_path, monkeypatch, capsys, gammas
    ):
        # both couplings print as gamma=0.1, so the second point's products
        # would overwrite the first's
        def never(*args):
            raise AssertionError("solver.eigh called")

        monkeypatch.setattr(solver, "eigh", never)
        out = tmp_path / "d"
        code = self.run_cli("sweep", "--n-atoms", "2", "--n-max", "6", "--sector", "+",
                            "--gamma", gammas, "--out", str(out))
        assert code == 2
        assert "gamma=0.1" in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_roundtrip(self, tmp_path, capsys):
        code = self.run_cli(
            "spectrum",
            "--n-atoms", "2",
            "--gamma", "0.3",
            "--n-max", "15",
            "--out", str(tmp_path / "o"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sector=+" in out and "sector=-" in out
        assert (tmp_path / "o" / "gamma=0.3" / "plus" / "energies.csv").exists()

    def test_lattice_with_gamma_over_gc(self, tmp_path, capsys):
        code = self.run_cli(
            "lattice",
            "--n-atoms", "2",
            "--gamma-over-gc", "0.8",
            "--n-max", "15",
            "--sector", "+",
            "--ops", "Jz",
            "--out", str(tmp_path / "o"),
        )
        assert code == 0
        assert (tmp_path / "o" / "gamma=0.4" / "plus" / "lattice_Jz.csv").exists()

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[spectrum]\nn-atoms = 2\ngamma = 0.25\nn-max = 12\nsector = +\n"
        )
        code = self.run_cli(
            "spectrum", "--config", str(ini), "--gamma", "0.5",
            "--out", str(tmp_path / "o"),
        )
        assert code == 0
        assert (tmp_path / "o" / "gamma=0.5" / "plus" / "energies.csv").exists()
        assert not (tmp_path / "o" / "gamma=0.25").exists()

    @pytest.mark.parametrize(
        "file_key, flag, value, gamma",
        [("gamma-over-gc", "--gamma", "0.5", 0.5), ("gamma", "--gamma-over-gc", "0.8", 0.4)],
        ids=["gamma-over-file-gamma-over-gc", "gamma-over-gc-over-file-gamma"],
    )
    def test_coupling_flag_replaces_the_files_coupling(
        self, tmp_path, no_build, file_key, flag, value, gamma
    ):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[lattice]\nn-atoms = 2\n{file_key} = 2.0\n")
        argv = ["lattice", "--config", str(ini), flag, value]
        merged = cli._merged(cli.build_parser().parse_args(argv), "lattice")
        assert file_key not in merged
        cfg, gammas = cli._resolve(merged, "lattice")
        assert gammas == [gamma] and cfg.params.gamma == gamma

    def test_config_file_without_the_commands_section_is_config_error(
        self, tmp_path, no_build, capsys
    ):
        ini = tmp_path / "run.ini"
        ini.write_text("[lattice]\nn-max = 12\n[sweep]\nn-max = 12\n")
        code = self.run_cli(
            "spectrum", "--config", str(ini), "--n-atoms", "2", "--gamma", "0.1",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"config file {ini} has no [spectrum] section; it has [lattice], [sweep]" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"n-atoms = 2\ngamma = 0.3\n", "is malformed: File contains no section headers."),
            (b"[spectrum]\nn-atoms = 2\ngamma = 0.3\nsector = +%x\n",
             "bad value for sector: '+%x'"),
            (b"[spectrum]\nn-atoms = 2\n[spectrum]\ngamma = 0.3\n",
             ": section 'spectrum' already exists"),
            (b"[spectrum]\nn-atoms = 2\nn-atoms = 3\ngamma = 0.3\n",
             "option 'n-atoms' in section 'spectrum' already exists"),
            (b"[spectrum]\nn-atoms = 2\ngamma = 0.3\nout = \xff\n",
             "is malformed: 'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["no-section-header", "percent-is-literal", "repeated-section", "repeated-key",
             "not-utf-8"],
    )
    def test_malformed_config_file_is_one_config_error(
        self, tmp_path, no_build, capsys, content, reason
    ):
        ini = tmp_path / "run.ini"
        ini.write_bytes(content)
        assert self.run_cli("spectrum", "--config", str(ini), "--n-max", "3") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert reason in err
        if "malformed" in reason:
            assert f"config file {ini} is malformed: " in err

    def test_missing_gamma_is_config_error(self):
        assert self.run_cli("spectrum", "--n-atoms", "2") == 2

    def test_both_couplings_is_config_error(self, tmp_path):
        argv = ["spectrum", "--n-atoms", "2", "--gamma", "0.1", "--gamma-over-gc", "0.2"]
        assert self.run_cli(*argv) == 2
        # the coupling flags replace the file's coupling, not each other
        ini = tmp_path / "run.ini"
        ini.write_text("[spectrum]\ngamma = 0.3\n")
        assert self.run_cli(*argv, "--config", str(ini)) == 2

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--mem-budget-gib", "inf", "mem-budget-gib"),
            ("--mem-budget-gib", "-1", "mem_budget_bytes"),
            ("--mem-budget-gib", "0", "mem_budget_bytes"),
        ],
        ids=[
            "mem-budget-gib-inf",
            "mem-budget-gib-negative",
            "mem-budget-gib-zero",
        ],
    )
    def test_out_of_range_setting_is_config_error_before_build(
        self, no_build, capsys, flag, value, field
    ):
        code = self.run_cli(
            "lattice", "--n-atoms", "4", "--gamma-over-gc", "2", "--n-max", "10", flag, value,
        )
        assert code == 2
        assert field in capsys.readouterr().err

    def test_capacity_exit_code(self, tmp_path):
        code = self.run_cli(
            "spectrum",
            "--n-atoms", "40",
            "--gamma", "0.1",
            "--n-max", "250",
            "--mem-budget-gib", "0.001",
        )
        assert code == 3

    def test_capacity_error_sizes_are_readable(self, capsys):
        # a 1e-9 GiB budget rounds to 1 byte; the dim-28 sector is charged
        # 8 x (2.85 x 28^2 + W's 11^2) = 18,843 bytes
        code = self.run_cli(
            "spectrum", "--n-atoms", "4", "--n-max", "10", "--gamma", "0.1",
            "--mem-budget-gib", "1e-9",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "dim-28 sector is charged 18.4 KiB (3.00 x its 6.1 KiB dense matrix" in err
        assert err.rstrip().endswith("budget is 1 B")

    def test_solver_exit_code(self, monkeypatch):
        def boom(*args):
            args[-1].value = 3  # dstedc's info > 0: the iteration failed to converge

        monkeypatch.setattr(solver, "_DSTEDC", boom)
        code = self.run_cli("spectrum", "--n-atoms", "2", "--gamma", "0.3", "--n-max", "8")
        assert code == 4

    def test_failed_audit_is_solver_error(self, tmp_path, monkeypatch, capsys):
        def out_of_bounds(hmat, energies, vectors):
            return solver.ResidualReport(1e-3, 0.0, 1.0)

        monkeypatch.setattr(solver, "residual_report_for", out_of_bounds)
        argv = ["--n-atoms", "2", "--gamma", "0.3", "--n-max", "8", "--sector", "+"]
        assert self.run_cli("lattice", *argv, "--out", str(tmp_path / "l")) == 4
        assert "solver audit failed" in capsys.readouterr().err
        man = json.loads((tmp_path / "l" / "gamma=0.3" / "plus" / "manifest.json").read_text())
        assert man["status"] == "failed"
        assert "solver audit failed" in man["error"]
        assert self.run_cli("sweep", *argv, "--out", str(tmp_path / "s")) == 5
        out = capsys.readouterr().out
        assert "[failed]" in out and "solver audit failed" in out
        summary = (tmp_path / "s" / "summary.csv").read_text().splitlines()
        assert summary[1].split(",")[2] == "failed"

    def test_sweep_cli(self, tmp_path, capsys):
        code = self.run_cli(
            "sweep",
            "--n-atoms", "2",
            "--gamma", "0.2,0.4",
            "--n-max", "12",
            "--sector", "+",
            "--ops", "Jz",
            "--out", str(tmp_path / "s"),
        )
        assert code == 0
        assert (tmp_path / "s" / "summary.csv").exists()
        out = capsys.readouterr().out
        assert out.count("[ok]") == 2

    def test_range_spec(self, tmp_path):
        code = self.run_cli(
            "sweep",
            "--n-atoms", "2",
            "--gamma", "0.1:0.3:3",
            "--n-max", "10",
            "--sector", "+",
            "--ops", "",
            "--out", str(tmp_path / "s"),
        )
        assert code == 0
        rows = (tmp_path / "s" / "summary.csv").read_text().splitlines()
        assert len(rows) == 4

    def test_convergence_profile(self, capsys):
        code = self.run_cli(
            "convergence",
            "--n-atoms", "2",
            "--gamma", "0.4",
            "--sector", "+",
            "--n-max-list", "10,20",
        )
        assert code == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["n_max", "dim", "converged", "ground_dp", "max_dp(E/j<=1)"]
        assert [int(row.split()[0]) for row in rows] == [10, 20]
        for row in rows:
            assert len(row.split()) == 5
            n_max, dim, converged = map(int, row.split()[:3])
            assert dim == basis_size(BasisSpec(1.0, n_max, 1))
            assert 0 <= converged <= dim

    def test_convergence_checks_every_truncation_before_solving(self, monkeypatch, capsys):
        # n_max 4000 is a dim-10003 sector, charged 2.2 GiB against 0.5 GiB
        eigh, calls = solver.eigh, []
        monkeypatch.setattr(solver, "eigh", lambda matrix: calls.append(matrix.dim) or eigh(matrix))
        code = self.run_cli(
            "convergence", "--n-atoms", "4", "--gamma-over-gc", "2", "--sector", "+",
            "--n-max-list", "20,40,4000", "--mem-budget-gib", "0.5",
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "dim-10003 sector" in captured.err
        assert captured.out == ""
        assert calls == []

    def test_bad_n_max_list_is_config_error(self, no_build, capsys):
        for value, message in (("10,x", "not an integer"), ("", "the n-max-list is empty")):
            code = self.run_cli(
                "convergence", "--n-atoms", "2", "--gamma", "0.4", "--n-max-list", value
            )
            assert code == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""

    def test_repeated_peres_operator_is_config_error(self, no_build, capsys, tmp_path):
        # a second Jz would compute <Jz> again for the one lattice_Jz.csv
        out = tmp_path / "o"
        code = self.run_cli("lattice", "--n-atoms", "4", "--n-max", "6", "--gamma", "0.3",
                            "--ops", "Jz,Jz", "--out", str(out))
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: Peres operators must be distinct\n"
        assert captured.out == ""
        assert not out.exists()

    def test_negative_n_max_entry_is_config_error_before_build(self, no_build, capsys):
        code = self.run_cli(
            "convergence", "--n-atoms", "20", "--gamma-over-gc", "2", "--sector", "+",
            "--n-max-list", "80,-1",
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "n_max must be >= 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--gamma", "abc", "not a number: 'abc'"),
            ("--gamma", "0.1:0.3:x", "not an integer: 'x'"),
            ("--gamma-over-gc", "1,x", "not a number: 'x'"),
            ("--gamma", "0:1:y", "not an integer: 'y'"),
            ("--gamma", ",", "the coupling list is empty"),
            ("--gamma", "", "the coupling list is empty"),
            ("--gamma-over-gc", "", "the coupling list is empty"),
        ],
        ids=[
            "gamma-abc", "gamma-range-hi-x", "gamma-over-gc-list-x", "gamma-range-n-y",
            "gamma-comma", "gamma-empty", "gamma-over-gc-empty",
        ],
    )
    def test_bad_coupling_is_config_error(self, no_build, capsys, flag, value, message):
        code = self.run_cli("sweep", "--n-atoms", "2", flag, value, "--n-max", "5")
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_coupling_is_config_error(self, no_build, value):
        assert self.run_cli("spectrum", "--n-atoms", "2", "--gamma", value) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n-atoms", "2", "--n-max", "0", "--gamma", "1e80"],
            ["--n-atoms", "2", "--n-max", "2", "--gamma", "0.5", "--omega0", "1e300"],
            ["--n-atoms", "2", "--n-max", "0", "--gamma", "0.5", "--omega", "1e-300",
             "--omega0", "0"],
            ["--n-atoms", "3", "--n-max", "2", "--gamma", "0.5", "--omega", "1e308",
             "--omega0", "1e308"],
            ["--n-atoms", "5", "--n-max", "2", "--gamma", "0.5", "--omega", "1e308",
             "--omega0", "1.7e308", "--sector", "+"],
            ["--n-atoms", "2", "--n-max", "4", "--gamma", "1e40"],
            ["--n-atoms", "2", "--n-max", "4", "--gamma", "1e80"],
            ["--n-atoms", "2", "--n-max", "0", "--gamma", "1e200"],
            ["--n-atoms", "2", "--n-max", "4", "--gamma", "1e-10", "--omega", "1e-320"],
        ],
        ids=["gamma", "omega0", "omega", "inf", "nan", "w-overflow-inf", "w-overflow-nan",
             "gamma-squared-overflows", "g-overflows"],
    )
    def test_entry_lapack_would_rescale_is_config_error(self, capsys, argv):
        # H's largest |entry| lies where dsyevd would rescale it, or is inf,
        # or a diagonal entry is inf - inf: the sector is refused when H is
        # built, with no numpy warning from the fill on the way.  So is a
        # coupling that overflows W (to inf at 1e40, to NaN at 1e80), gamma^2
        # (one shell's W stays finite) or G itself (at a subnormal omega)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = self.run_cli("spectrum", *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: gamma=") and err.count("\n") == 1
        assert "a Hamiltonian that cannot be solved" in err and "Traceback" not in err
        assert ("largest |entry| is" in err and "outside [2**-485, 2**485]" in err
                or "non-finite entries" in err or "hold a NaN" in err)

    def test_strong_coupling_outside_the_dos_grid_fails_its_sweep_point(self, tmp_path):
        # both couplings solve, but their E/j spans are far wider than any
        # density-of-states grid: each point fails before its grid exists,
        # with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = self.run_cli(
                "sweep", "--n-atoms", "2", "--n-max", "4", "--gamma", "0.5,1e30,1e5",
                "--out", str(tmp_path),
            )
        assert code == 5
        statuses = [line.split(",")[2] for line in
                    (tmp_path / "summary.csv").read_text().splitlines()[1:]]
        assert statuses == ["ok", "failed", "failed"]
        for gamma, span in (("1e+30", "-2e+60 to 4, 4e+61"), ("100000", "-2e+10 to 4, 4e+11")):
            man = json.loads((tmp_path / f"gamma={gamma}" / "plus" / "manifest.json").read_text())
            assert man["status"] == "failed"
            assert man["error"].startswith(f"E/j spans {span} bins of 0.05")

    def test_strong_coupling_below_overflow_solves(self):
        assert self.run_cli("spectrum", "--n-atoms", "2", "--n-max", "4", "--gamma", "1e30") == 0

    def test_overflowing_coupling_fails_its_sweep_point(self, tmp_path):
        argv = ["--n-atoms", "2", "--n-max", "4", "--ops", "", "--out", str(tmp_path)]
        assert self.run_cli("sweep", *argv, "--gamma", "0.5,1e40,1e80,1e30") == 5
        statuses = [line.split(",")[2] for line in
                    (tmp_path / "summary.csv").read_text().splitlines()[1:]]
        assert statuses == ["ok", "failed", "failed", "ok"]
        for gamma in ("1e+40", "1e+80"):
            man = json.loads((tmp_path / f"gamma={gamma}" / "plus" / "manifest.json").read_text())
            assert man["status"] == "failed"
            assert "give n_max=4 a Hamiltonian that cannot be solved" in man["error"]

    @pytest.mark.parametrize("flag", ["--omega", "--omega0"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_model_parameter_is_config_error(
        self, tmp_path, no_build, capsys, flag, value
    ):
        out = tmp_path / "o"
        code = self.run_cli(
            "spectrum", "--n-atoms", "2", "--n-max", "5", "--gamma", "0.1", flag, value,
            "--out", str(out),
        )
        assert code == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--omega", "-1", "--gamma", "0.3"], "omega"),
            (["--omega0", "-1", "--gamma", "0.3"], "omega0"),
            (["--omega0", "nan", "--gamma-over-gc", "2"], "omega0"),
        ],
        ids=["omega-negative", "omega0-negative", "omega0-nan-gamma-over-gc"],
    )
    def test_bad_frequency_is_config_error(self, no_build, capsys, argv, name):
        assert self.run_cli("spectrum", "--n-atoms", "2", "--n-max", "4", *argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {name} must be finite")

    # (subcommand, flag, a bad value, a valid one); --out takes any path
    FLAG_VALUES = [
        ("spectrum", "--omega", "x", "1.5"),
        ("spectrum", "--omega0", "x", "0.5"),
        ("sweep", "--gamma", "abc", "0.1:0.3:3"),
        ("sweep", "--gamma-over-gc", "1,x", "0.5,1.5"),
        ("spectrum", "--n-atoms", "2.5", "3"),
        ("spectrum", "--sector", "x", "-"),
        ("spectrum", "--mem-budget-gib", "nan", "0.5"),
        ("spectrum", "--n-max", "x", "12"),
        ("lattice", "--ops", "Jx", "Jz,photon_n"),
        ("convergence", "--n-max-list", "10,x", "10:30:10"),
    ]

    @staticmethod
    def flag_and_config(tmp_path, command, flag, value):
        """Two argv of `command`: one gives `flag value` on the command line,
        the other under the command's section of an INI file.  Both give the
        other settings the command needs as flags."""
        others = {"--n-atoms": "2", "--gamma": "0.3"}
        others.pop("--gamma" if flag == "--gamma-over-gc" else flag, None)
        argv = [command, *(arg for item in others.items() for arg in item)]
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{command}]\n{flag[2:]} = {value}\n")
        return [*argv, flag, value], [*argv, "--config", str(ini)]

    @pytest.mark.parametrize(
        "command, flag, bad", [case[:3] for case in FLAG_VALUES],
        ids=[case[1][2:] for case in FLAG_VALUES],
    )
    def test_bad_value_is_one_config_error_from_flag_or_config(
        self, tmp_path, no_build, capsys, command, flag, bad
    ):
        errors = []
        for argv in self.flag_and_config(tmp_path, command, flag, bad):
            assert self.run_cli(*argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("config error: ") and errors[0].count("\n") == 1

    @pytest.mark.parametrize(
        "command, flag, good",
        [(c, f, good) for c, f, _, good in FLAG_VALUES] + [("lattice", "--out", "runs/o")],
        ids=[case[1][2:] for case in FLAG_VALUES] + ["out"],
    )
    def test_valid_value_resolves_alike_from_flag_or_config(self, tmp_path, command, flag, good):
        resolved = []
        for argv in self.flag_and_config(tmp_path, command, flag, good):
            merged = cli._merged(cli.build_parser().parse_args(argv), command)
            resolved.append((cli._resolve(merged, command), merged))
        assert resolved[0] == resolved[1]
        assert resolved[0][1][flag[2:]] == good

    @pytest.mark.parametrize(
        "argv",
        [
            ["convergence", "--ops", "Jz"],
            ["convergence", "--out", "{out}"],
            ["convergence", "--n-max", "10"],
            ["spectrum", "--ops", "Jz", "--out", "{out}"],
        ],
        ids=["convergence-ops", "convergence-out", "convergence-n-max", "spectrum-ops"],
    )
    def test_flag_the_subcommand_does_not_read_is_rejected(self, tmp_path, no_build, capsys, argv):
        out = tmp_path / "o"
        argv = [arg.format(out=out) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            self.run_cli(*argv, "--n-atoms", "2", "--gamma", "0.3")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--basis", "fock"), ("--workers", "2"), ("--unfold-degree", "6"),
            ("--tol-dp", "1e-12"), ("--bin-width", "0.05"),
        ],
        ids=["basis", "workers", "unfold-degree", "tol-dp", "bin-width"],
    )
    def test_removed_flag_is_rejected(self, no_build, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            self.run_cli("sweep", "--n-atoms", "2", "--gamma", "0.3", flag, value)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, unknown",
        [
            (["n_max = 3"], "n_max"),
            (["basis = fock"], "basis"),
            (["workers = 2"], "workers"),
            (["unfold-degree = 6"], "unfold-degree"),
            (["tol-dp = 1e-12"], "tol-dp"),
            (["bin-width = 0.05"], "bin-width"),
            (["ops = Jz"], "ops"),
            (["n-max-list = 3,4", "sector = both", "nmax = 3"], "n-max-list, nmax"),
        ],
        ids=[
            "typo", "basis", "workers", "unfold-degree", "tol-dp", "bin-width", "ops",
            "other-command-flag",
        ],
    )
    def test_unknown_config_key_is_config_error(self, tmp_path, no_build, capsys, lines, unknown):
        ini = tmp_path / "run.ini"
        ini.write_text("\n".join(["[spectrum]", "n-atoms = 2", "gamma = 0.3", *lines]) + "\n")
        assert self.run_cli("spectrum", "--config", str(ini)) == 2
        assert f"not spectrum flags: {unknown}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["out", "ops", "n-max"])
    def test_convergence_config_key_it_does_not_read_is_config_error(
        self, tmp_path, no_build, capsys, key
    ):
        out = tmp_path / "o"
        values = {"out": out, "ops": "Jz", "n-max": 10}
        ini = tmp_path / "run.ini"
        ini.write_text(f"[convergence]\nn-atoms = 2\ngamma = 0.3\n{key} = {values[key]}\n")
        assert self.run_cli("convergence", "--config", str(ini)) == 2
        assert f"not convergence flags: {key}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_sector_in_config_is_config_error(self, tmp_path, no_build):
        ini = tmp_path / "run.ini"
        ini.write_text("[spectrum]\nn-atoms = 2\ngamma = 0.3\nsector = x\n")
        assert self.run_cli("spectrum", "--config", str(ini)) == 2

    @pytest.mark.parametrize(
        "path", sorted(CONFIGS.glob("*.ini")), ids=lambda path: path.stem
    )
    def test_checked_in_config_resolves(self, path):
        sections = configparser.ConfigParser()
        sections.read(path)
        assert sections.sections()
        for command in sections.sections():
            args = cli.build_parser().parse_args([command, "--config", str(path)])
            cfg, _ = cli._resolve(cli._merged(args, command), command)
            assert cfg.n_max >= 250 and cfg.sectors == (1, -1)
            assert cfg.ops == ("Jz", "Jx2", "photon_n")

    def test_unset_options_take_run_config_defaults(self):
        cfg, _ = cli._resolve({"gamma": "0.3"}, "lattice")
        params = ModelParams(omega=1.0, omega0=1.0, gamma=0.3, j=20.0)
        assert cfg == pipeline.RunConfig(params=params)

    def test_stats_subcommand_is_rejected(self, capsys):
        # lattice writes every product stats wrote
        with pytest.raises(SystemExit) as exc:
            self.run_cli("stats", "--n-atoms", "4", "--gamma", "0.45", "--n-max", "40")
        assert exc.value.code == 2
        assert "invalid choice: 'stats'" in capsys.readouterr().err


@pytest.fixture
def sector_thread_counts(monkeypatch):
    """The BLAS thread count each sector starts with: its sector_ladder call,
    on whichever thread solves it."""
    seen = []
    sector_ladder = hamiltonian.sector_ladder

    def spy(*args):
        seen.append(solver.blas_thread_count())
        return sector_ladder(*args)

    monkeypatch.setattr(hamiltonian, "sector_ladder", spy)
    return seen


class TestBlasThreadScope:
    SMALL = ["--n-atoms", "2", "--gamma", "0.3", "--n-max", "8"]

    @pytest.mark.parametrize(
        "argv, code, threads",
        [
            (["spectrum", *SMALL], 0, 1),
            (["sweep", "--n-atoms", "2", "--gamma", "0.2,0.3,0.4"], 0, 1),
            (["convergence", "--n-atoms", "2", "--gamma", "0.3", "--n-max-list", "8,-1"], 2, 1),
            # a budget short of two sectors runs them one at a time, on the
            # count the run found
            (["spectrum", *SMALL, "--mem-budget-gib", "1e-9"], 3, 2),
        ],
        ids=["ok", "sweep", "config-error", "capacity-error"],
    )
    def test_small_command_runs_one_thread_then_restores(
        self, sector_thread_counts, capsys, argv, code, threads
    ):
        before = solver.blas_thread_count()
        with solver.blas_threads(2):
            assert main(argv) == code
            assert solver.blas_thread_count() == 2
        # a bad --n-max-list entry is a config error before any sector runs
        assert bool(sector_thread_counts) == (code != 2)
        assert set(sector_thread_counts) <= {threads}
        assert solver.blas_thread_count() == before

    def test_library_calls_run_one_thread(self, sector_thread_counts, tmp_path):
        with solver.blas_threads(2):
            pipeline.run(small_config(tmp_path, n_max=8))
            pipeline.sweep(small_config(tmp_path, n_max=8), (0.2, 0.4))
            assert solver.blas_thread_count() == 2
        assert sector_thread_counts == [1] * (2 + 2 * 2)

    @pytest.mark.parametrize("sectors", [(1,), (1, -1)], ids=["one-sector", "budget-for-one"])
    def test_serial_run_keeps_the_process_count(self, sector_thread_counts, tmp_path, sectors):
        # below the threshold, a run of one sector, or of two whose budget
        # holds only one, runs its sectors one at a time on the count it found
        budget = max(hamiltonian.footprint_bytes(BasisSpec(1.0, 8, s)) for s in (1, -1))
        cfg = small_config(tmp_path, n_max=8, sectors=sectors, mem_budget_bytes=budget)
        assert basis_size(BasisSpec(1.0, 8, 1)) < pipeline.SOLVE_AHEAD_BELOW_DIM
        with solver.blas_threads(2):
            result = pipeline.run(cfg)
            assert solver.blas_thread_count() == 2
        assert sector_thread_counts == [2] * len(sectors)
        assert [man["blas_threads"] for man in result.manifests] == [2] * len(sectors)

    def test_runs_in_one_process_take_turns(self, monkeypatch):
        # Two solve-ahead sweeps on two threads.  The first's first solve
        # waits (a second at most) for the second's first solve to begin, and
        # the second's solves wait for the first sweep to return: were the
        # two blocks to overlap, the first would give OpenBLAS back its count
        # while the second still solves ahead.
        first_solving, second_solving, first_done = (threading.Event() for _ in range(3))
        seen = {15: [], 20: []}  # n_max: (first sweep returned?, BLAS threads) per solve
        solve = pipeline._solve_sector

        def spy(cfg, sector):
            after_first = first_done.is_set()
            if cfg.n_max == 20:
                second_solving.set()
                first_done.wait(60)
            elif not seen[15]:
                first_solving.set()
                second_solving.wait(1.0)
            seen[cfg.n_max].append((after_first, solver.blas_thread_count()))
            return solve(cfg, sector)

        monkeypatch.setattr(pipeline, "_solve_sector", spy)
        params = ModelParams(omega=1.0, omega0=1.0, gamma=0.2, j=10.0)
        results = {}

        def sweep(n_max):
            cfg = pipeline.RunConfig(params, n_max, ops=("Jz",))
            try:
                results[n_max] = pipeline.sweep(cfg, (0.2, 0.4, 0.6, 0.8))[0]
            finally:
                if n_max == 15:
                    first_done.set()

        before = solver.blas_thread_count()
        with solver.blas_threads(2):
            first = threading.Thread(target=sweep, args=(15,))
            first.start()
            assert first_solving.wait(60)
            second = threading.Thread(target=sweep, args=(20,))
            second.start()
            first.join()
            second.join()
            assert solver.blas_thread_count() == 2
        assert solver.blas_thread_count() == before
        for n_max in (15, 20):
            assert not [r for r in results[n_max] if isinstance(r, tuple)], results[n_max]
        assert [threads for _, threads in seen[15] + seen[20]] == [1] * 16
        assert [after for after, _ in seen[20]] == [True] * 8

    @pytest.mark.parametrize("above, threads", [(0, 2), (1, 1)])
    def test_threshold(self, monkeypatch, tmp_path, capsys, above, threads):
        dim = max(basis_size(BasisSpec(1.0, 8, s)) for s in (1, -1))
        # at the threshold the run keeps the counts it found
        monkeypatch.setattr(pipeline, "SOLVE_AHEAD_BELOW_DIM", dim + above)
        with solver.blas_threads(2):
            assert main(["spectrum", *self.SMALL, "--out", str(tmp_path)]) == 0
            assert solver.blas_thread_count() == 2
        for sector in ("plus", "minus"):
            man = json.loads((tmp_path / "gamma=0.3" / sector / "manifest.json").read_text())
            assert man["blas_threads"] == threads
