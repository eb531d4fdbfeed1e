"""Run orchestration: enumerate -> build -> diagonalize -> observables ->
analysis, with deterministic CSV/JSON persistence and coupling sweeps.

A run's Peres operators decide its products.  A run with at least one
operator writes a lattice per operator, the DoS and the gap-ratio statistics,
plus the ESQPT markers when Jz is among them.  A run with none writes the
energies only.

A sector runs in two halves: ladder, build and solve, then certificate,
observables, analysis and files.  A run or sweep of two sectors or more, all
smaller than SOLVE_AHEAD_BELOW_DIM, whose memory budget covers two sectors
at once, puts BLAS on one thread while one worker thread solves each sector
and the main thread finishes the one before it, in call order (the solve
drops the GIL), so two sectors are alive at once.  Every other run or sweep
runs its sectors one at a time at the process's thread count, and the
budget bounds one sector.  OpenBLAS's thread count is process-wide, so runs
and sweeps in one process take turns: each holds one lock from its first
sector to its last."""

import contextlib
import hashlib
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, hamiltonian, observables, solver
from .basis import BasisSpec, basis_size
from .errors import ConfigError, DickelatError
from .hamiltonian import ModelParams

SECTOR_DIRS = {1: "plus", -1: "minus"}

# The final name of every file a run writes to a sector directory.
_SECTOR_FILES = ("manifest.json", "energies.csv", "dos.csv", "markers.json", "stats.json",
                 *(f"lattice_{op}.csv" for op in observables.PERES_OPS))

# Runs and sweeps of two sectors or more below this dimension solve one
# sector ahead on a worker thread, with BLAS on one thread (see the module
# docstring).  16-coupling sweeps of both sectors on 2 cores, worker against
# serial on 2 threads, medians of 8 alternating fresh processes: 1.44 against
# 1.65 s at dim 557, 1.71 against 1.72 s at 599, 2.06 against 2.09 s at 641,
# 2.39 against 2.26 s at 662; of 6, 2.93 against 2.64 s at 746 and 4.21
# against 3.35 s at 851.
SOLVE_AHEAD_BELOW_DIM = 600

# Held by each run or sweep for its whole _sector_runner block.
_RUNNER_LOCK = threading.Lock()

# E/j windows of the gap-ratio statistics, by their summary.csv column: below
# the dynamic ESQPT, and between it and the static one.  None is an open end.
STAT_WINDOWS = {"ratio_low": (None, -1.0), "ratio_mid": (-1.0, 1.0)}


@dataclass
class RunConfig:
    """Everything needed to resolve one run of the pipeline; a sweep varies
    params.gamma.  `ops` also decides the analysis products (see the module
    docstring)."""

    params: ModelParams
    n_max: int = 250
    sectors: tuple = (1, -1)
    ops: tuple = ("Jz", "Jx2", "photon_n")
    out_dir: Path | None = None
    mem_budget_bytes: int = hamiltonian.MEMORY_BUDGET_BYTES

    def __post_init__(self):
        if not self.sectors or any(s not in (1, -1) for s in self.sectors):
            raise ConfigError("sectors must be drawn from {+1, -1}")
        if len(set(self.sectors)) < len(self.sectors):
            raise ConfigError("sectors must be distinct")
        for op in self.ops:
            if op not in observables.PERES_OPS:
                raise ConfigError(f"unknown Peres operator {op!r}")
        if len(set(self.ops)) < len(self.ops):
            raise ConfigError("Peres operators must be distinct")
        if self.n_max < 0:
            raise ConfigError("n_max must be >= 0")
        if not self.mem_budget_bytes > 0:
            raise ConfigError("mem_budget_bytes must be > 0")
        if self.out_dir is not None:
            self.out_dir = Path(self.out_dir)


@dataclass
class SectorResult:
    energies: np.ndarray
    report: observables.ConvergenceReport
    expectations: dict
    dos: tuple | None
    markers: analysis.EsqptMarkers | None
    markers_error: str | None
    stats: list | None
    residual_report: solver.ResidualReport
    timings_s: dict


@dataclass
class RunResult:
    gamma: float
    sectors: list
    manifests: list
    out_dir: Path | None


def _window_stats(energies_over_j):
    """Mean gap ratio of the raw levels, degenerate ones dropped, per
    STAT_WINDOWS window of one sector's leading certified levels: no ratio
    may span a level that is missing from the list."""
    out = []
    for lo, hi in STAT_WINDOWS.values():
        lo_v = -math.inf if lo is None else lo
        hi_v = math.inf if hi is None else hi
        sel = energies_over_j[(energies_over_j > lo_v) & (energies_over_j < hi_v)]
        sel = analysis.drop_degenerate(sel)
        entry = {"window": [lo, hi], "n_levels": int(sel.size)}
        if sel.size < 50:
            entry["skipped"] = "fewer than 50 levels"
        else:
            entry["mean_ratio"] = analysis.mean_gap_ratio(sel)
        out.append(entry)
    return out


def _solve_sector(cfg, sector):
    """run_sector's first half: the sector's m-ladder, its spectrum and the
    build and solve times.  H is dropped on return."""
    t0 = time.perf_counter()
    ladder = hamiltonian.sector_ladder(cfg.params, cfg.n_max, sector, cfg.mem_budget_bytes)
    matrix = hamiltonian.build_sector(ladder)
    t1 = time.perf_counter()
    spectrum = solver.eigh(matrix)
    return ladder, spectrum, {"build": t1 - t0, "solve": time.perf_counter() - t1}


def _finish_sector(cfg, solved):
    """run_sector's second half, from _solve_sector's output."""
    ladder, spectrum, timings = solved
    marks = [(None, time.perf_counter())]
    report = observables.delta_p(spectrum, ladder.index)
    marks.append(("certificate", time.perf_counter()))

    expectations = {}
    for op in cfg.ops:
        expectations[op] = observables.peres_expectation(op, spectrum, ladder)
        observables.check_bounds(op, expectations[op], cfg.params.j)
    marks.append(("observables", time.perf_counter()))

    dos, markers, markers_error, stats = None, None, None, None
    if cfg.ops:
        dos = analysis.density_of_states(spectrum.energies, cfg.params.j)
        converged = report.delta_p < observables.DP_TOLERANCE
        e_over_j = spectrum.energies[converged] / cfg.params.j
        if "Jz" in expectations:
            try:
                markers = analysis.esqpt_markers(e_over_j, expectations["Jz"][converged])
            except DickelatError as exc:
                markers_error = str(exc)
        stats = _window_stats(spectrum.energies[: report.converged_count] / cfg.params.j)

    marks.append(("analysis", time.perf_counter()))
    timings.update((name, t - t_prev) for (_, t_prev), (name, t) in zip(marks, marks[1:]))
    return SectorResult(
        energies=spectrum.energies,
        report=report,
        expectations=expectations,
        dos=dos,
        markers=markers,
        markers_error=markers_error,
        stats=stats,
        residual_report=spectrum.residual_report,
        timings_s=timings,
    )


def run_sector(cfg: RunConfig, sector):
    """Full pipeline for one sector; returns an in-memory SectorResult.

    timings_s holds the wall time of each consecutive stage (build, solve,
    certificate, observables, analysis); their sum is the sector's wall time.
    expectations maps each Peres operator to its per-state values, each
    within the operator's bounds; with energies / j they are its lattice.  A
    run without Peres operators leaves expectations empty and dos, markers
    and stats None.  When the Jz markers are not found, markers is None and
    markers_error says why."""
    return _finish_sector(cfg, _solve_sector(cfg, sector))


class _SolveAhead:
    """Runs the sectors of `jobs`, the (RunConfig, sector) pairs of a run or
    sweep in call order.  Each job's _solve_sector runs on the one worker of
    `pool`, started when the job before it is handed to the caller, so it
    overlaps that job's second half and files.  Jobs are taken in list
    order; a job passed over (the later sectors of a failed point) has its
    solve, if started, waited for and dropped.  So at most two sectors are
    alive at once."""

    def __init__(self, pool, jobs):
        self._pool = pool
        self._jobs = jobs
        self._index = {(id(cfg), sector): k for k, (cfg, sector) in enumerate(jobs)}
        self._pending = (None, None)  # (job index, future of its _solve_sector)

    def run_sector(self, cfg, sector):
        """run_sector(cfg, sector), its solve done on the worker."""
        k = self._index[id(cfg), sector]
        ahead, future = self._pending
        self._pending = (None, None)
        if ahead != k:
            if future is not None:
                future.exception()  # a passed-over job's solve: wait for it, drop it
            future = self._pool.submit(_solve_sector, cfg, sector)
        solved = future.result()
        if k + 1 < len(self._jobs):
            self._pending = (k + 1, self._pool.submit(_solve_sector, *self._jobs[k + 1]))
        return _finish_sector(cfg, solved)


# ---------------------------------------------------------------------------
# persistence

def _write_text(path: Path, text: str):
    """Write `text` to a temporary file beside `path`, then rename it to
    `path`, so no partly written file ever carries a final name.  Returns the
    sha256 of the bytes written."""
    data = text.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _write_csv(path: Path, header, row_format, *columns):
    """_write_text of a CSV: the header line, then one line per row, its cells
    formatted together by `row_format` ("{:.17g}" keeps full precision and
    prints nan)."""
    return _write_text(path, "\n".join([header, *map(row_format.format, *columns)]) + "\n")


def _write_json(path: Path, obj):
    """_write_text of `obj` as sorted, indented JSON."""
    return _write_text(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def write_sector_files(cfg, sector, result, sector_dir: Path):
    """Write the per-sector CSV/JSON products; returns {name: sha256}.  Every
    `parity` cell holds the sector label, which all its states carry, and each
    `lattice_<op>.csv` shares its E/j and delta_p columns with energies.csv."""
    sector_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    e = result.energies
    e_over_j = (e / cfg.params.j).tolist()
    dp = result.report.delta_p.tolist()
    files["energies.csv"] = _write_csv(
        sector_dir / "energies.csv", "index,energy,energy_over_j,parity,delta_p",
        f"{{}},{{:.17g}},{{:.17g}},{sector},{{:.17g}}", range(e.size), e.tolist(), e_over_j, dp,
    )
    for op, values in result.expectations.items():
        files[f"lattice_{op}.csv"] = _write_csv(
            sector_dir / f"lattice_{op}.csv", "E_over_j,expval,parity,delta_p",
            f"{{:.17g}},{{:.17g}},{sector},{{:.17g}}", e_over_j, values.tolist(), dp,
        )
    if result.dos is not None:
        edges, counts = result.dos
        files["dos.csv"] = _write_csv(
            sector_dir / "dos.csv", "bin_left,bin_right,count", "{:.17g},{:.17g},{}",
            edges[:-1].tolist(), edges[1:].tolist(), counts.tolist(),
        )

    if result.markers is not None:
        files["markers.json"] = _write_json(sector_dir / "markers.json", {
            "static_marker": result.markers.static_marker,
            "dynamic_marker": result.markers.dynamic_marker,
            "bin_width": analysis.BIN_WIDTH,
        })
    if result.stats is not None:
        files["stats.json"] = _write_json(sector_dir / "stats.json", result.stats)
    return files


def _peak_rss_mib():
    """This process's own peak resident set size (VmHWM) in MiB, or None where
    /proc/self/status cannot be read.  ru_maxrss is no substitute: a child
    starts with the high-water mark of the process that forked it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _sector_manifest(cfg, sector, result=None, files=None, error=None):
    gamma = cfg.params.gamma
    man = {
        "status": "ok" if error is None else "failed",
        "gamma": gamma,
        "gamma_over_gc": gamma / cfg.params.gamma_c if cfg.params.gamma_c > 0 else None,
        "sector": sector,
        "n_max": cfg.n_max,
        "n_atoms": cfg.params.n_atoms,
        "omega": cfg.params.omega,
        "omega0": cfg.params.omega0,
        "dp_tolerance": observables.DP_TOLERANCE,
        "files": files or {},
        "blas_threads": solver.blas_thread_count(),
        "versions": solver.library_versions(),
        "peak_rss_mib": _peak_rss_mib(),
    }
    if result is not None:
        man.update(
            dim=result.energies.size,
            converged_count=result.report.converged_count,
            residual_report=asdict(result.residual_report),
            wall_time_s=sum(result.timings_s.values()),
            timings_s=result.timings_s,
        )
        if result.markers_error is not None:
            man["markers_error"] = result.markers_error
    if error is not None:
        man["error"] = str(error)
    return man


@contextlib.contextmanager
def _sector_runner(points):
    """The function (cfg, sector) -> SectorResult that runs the sectors of
    `points`, the configs of one run or of a sweep's couplings (they share j,
    n_max, sectors and the budget).  With two sectors or more, all below
    SOLVE_AHEAD_BELOW_DIM, and a budget that covers two at once, each solve
    runs one ahead on a worker thread (_SolveAhead) with BLAS on one thread,
    both for the whole block, the worker joined before it ends.  Otherwise it
    is run_sector, at the process's thread count.  The block holds
    _RUNNER_LOCK, so a second run or sweep of the process waits for it: the
    thread count it finds, and the one it leaves, are not changed under it."""
    cfg = points[0]
    specs = [BasisSpec(cfg.params.j, cfg.n_max, s) for s in cfg.sectors]
    jobs = [(p, s) for p in points for s in p.sectors]
    with _RUNNER_LOCK:
        if (len(jobs) < 2 or max(map(basis_size, specs)) >= SOLVE_AHEAD_BELOW_DIM
                or 2 * max(map(hamiltonian.footprint_bytes, specs)) > cfg.mem_budget_bytes):
            yield run_sector
            return
        with solver.blas_threads(1):
            with ThreadPoolExecutor(1, thread_name_prefix="dickelat-solve") as pool:
                yield _SolveAhead(pool, jobs).run_sector


def _gamma_dir_name(gamma):
    """The name of a coupling's directory under out_dir."""
    return f"gamma={gamma:.12g}"


def run(cfg: RunConfig) -> RunResult:
    """Execute one run (all requested sectors) and persist products under
    out_dir/<gamma>/<sector>/.  Raises on failure after flushing a manifest
    with a failure marker."""
    with _sector_runner([cfg]) as run_one:
        return _run(cfg, run_one)


def _run(cfg, run_one):
    """run's body, with each sector's result from run_one(cfg, sector)."""
    gamma = cfg.params.gamma
    results, manifests = [], []
    gamma_dir = None
    sector_dirs = [None] * len(cfg.sectors)
    if cfg.out_dir is not None:
        gamma_dir = cfg.out_dir / _gamma_dir_name(gamma)
        sector_dirs = [gamma_dir / SECTOR_DIRS[sector] for sector in cfg.sectors]
        # no earlier run's "ok" manifest may outlive a rerun that dies midway,
        # nor a product the rerun does not write, nor the temporary files of a
        # run killed while writing
        for sector_dir in sector_dirs:
            for path in [*map(sector_dir.joinpath, _SECTOR_FILES), *sector_dir.glob(".*.tmp")]:
                path.unlink(missing_ok=True)
    for sector, sector_dir in zip(cfg.sectors, sector_dirs):
        try:
            result = run_one(cfg, sector)
            files = {}
            if sector_dir is not None:
                files = write_sector_files(cfg, sector, result, sector_dir)
        except Exception as exc:
            if sector_dir is not None:
                sector_dir.mkdir(parents=True, exist_ok=True)
                _write_json(sector_dir / "manifest.json", _sector_manifest(cfg, sector, error=exc))
            raise
        man = _sector_manifest(cfg, sector, result=result, files=files)
        if sector_dir is not None:
            _write_json(sector_dir / "manifest.json", man)
        results.append(result)
        manifests.append(man)
    return RunResult(gamma, results, manifests, gamma_dir)


def _summary_row(cfg, result: RunResult | None):
    """One summary.csv row of the sweep point `cfg`; a failed point has no
    result."""
    gamma = cfg.params.gamma
    row = {
        "gamma": gamma,
        "gamma_over_gc": gamma / cfg.params.gamma_c if cfg.params.gamma_c > 0 else math.nan,
        "status": "ok" if result is not None else "failed",
        "ground_energy": math.nan,
        "ground_e_over_j": math.nan,
        "converged_count": 0,
        "dynamic_marker": math.nan,
        "static_marker": math.nan,
        **dict.fromkeys(STAT_WINDOWS, math.nan),
    }
    if result is None:
        return row
    ground = min(float(s.energies[0]) for s in result.sectors)
    row["ground_energy"] = ground
    row["ground_e_over_j"] = ground / cfg.params.j
    row["converged_count"] = sum(s.report.converged_count for s in result.sectors)
    first = result.sectors[0]
    if first.markers is not None:
        row["dynamic_marker"] = first.markers.dynamic_marker
        row["static_marker"] = first.markers.static_marker
    if first.stats is not None:
        for key, entry in zip(STAT_WINDOWS, first.stats):
            if "mean_ratio" in entry:
                row[key] = entry["mean_ratio"]
    return row


def _without_tracebacks(exc):
    """exc, with the tracebacks of it and of every exception in its
    __cause__ / __context__ chain cleared."""
    chain, seen = [exc], set()
    while chain:
        link = chain.pop()
        if link is not None and id(link) not in seen:
            seen.add(id(link))
            link.__traceback__ = None
            chain += [link.__cause__, link.__context__]
    return exc


def sweep(cfg: RunConfig, gammas):
    """One run of `cfg` per coupling in the non-empty `gammas`, in order and
    in one _sector_runner; per-point failures are isolated.  Returns
    (results, summary_rows) where a failed point appears as (gamma,
    exception) in results.  The exception is stored without its traceback,
    nor those of the exceptions it was raised from or while handling, whose
    frames would keep the point's matrices alive.  Two couplings whose
    directories under out_dir would have one name are a ConfigError, raised
    before anything is solved or deleted."""
    if not gammas:
        raise ConfigError("a sweep needs at least one coupling")
    points = [replace(cfg, params=replace(cfg.params, gamma=g)) for g in gammas]
    if cfg.out_dir is not None:
        names = [_gamma_dir_name(g) for g in gammas]
        shared = sorted({name for name in names if names.count(name) > 1})
        if shared:
            raise ConfigError(
                f"couplings share an output directory ({', '.join(shared)}): "
                "each sweep point needs its own"
            )
        # no earlier sweep's table may outlive a rerun that dies midway
        for path in [cfg.out_dir / "summary.csv", *cfg.out_dir.glob(".summary.csv.*.tmp")]:
            path.unlink(missing_ok=True)
    results, rows = [], []
    with _sector_runner(points) as run_one:
        for g, point in zip(gammas, points):
            try:
                result = _run(point, run_one)
            except Exception as exc:
                rows.append(_summary_row(point, None))
                results.append((g, _without_tracebacks(exc)))
            else:
                rows.append(_summary_row(point, result))
                results.append(result)

    if cfg.out_dir is not None:
        header = list(rows[0])
        row_format = ",".join("{}" if k == "status" else "{:.17g}" for k in header)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        columns = ([r[k] for r in rows] for k in header)
        _write_csv(cfg.out_dir / "summary.csv", ",".join(header), row_format, *columns)
    return results, rows
