"""End-to-end and per-layer benchmark of the dickelat CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lattice_sr --seed 1 --seconds 30 --trace 0

Each invocation is one real `dickelat` CLI call in a fresh Python process
(closed loop: one call at a time), repeated while the next call would still
end within --seconds (at least once), and every call's outputs are checked
(see checks.py).  --trace 0 reports the
end-to-end metrics; --trace 1 also makes one traced call whose spans give
the per-layer metrics, plus a single-thread BLAS solve of the workload's
largest sector.  Every metric is printed by name and unit; the last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics (end-to-end with --trace 0, per-layer with --trace 1).  All three
workloads in one command:

    for w in lattice_sr sweep_small convergence_scan; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 30 --trace 1; done

The seed jitters every coupling by a relative amount below 1e-3, which moves
the spectra but not the matrix dimensions; seed 0 runs the nominal
couplings and is checked against the fingerprint in fingerprints.json.
"""

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
JITTER = 1e-3
SETUP_PROBES = 4
EIGH_1THREAD_S = 2.0
BUDGET_S = 175.0
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "certified_states_per_s": "1/s",
    "ok_frac": "ratio",
}


@dataclass(frozen=True)
class Plan:
    """A workload's CLI arguments (without --out) and what it must produce:
    one spectrum per (point, sector), points being (gamma/gamma_c, n_max)."""

    argv: list
    n_atoms: int
    points: list
    sectors: tuple
    writes: bool
    summary: bool = False

    def solves(self):
        """(gamma/gamma_c, n_max, sector) of each spectrum, in call order."""
        return [(f, n, s) for f, n in self.points for s in self.sectors]


def _jitter(rng, f):
    return f if rng is None else f * (1.0 + JITTER * rng.uniform(-1.0, 1.0))


# Why these workloads: lattice_sr is the paper's headline run (two sectors of
# dim ~3300 with all three Peres operators), where observables and peak
# memory move; sweep_small is 32 small sectors, where per-call overhead,
# the Hamiltonian build and CSV persistence show (16 couplings, so that a
# 30 s run holds four or more calls for its median); convergence_scan has no
# Peres operators, analysis or files, so it should not move when those do.
def lattice_sr(rng):
    f = _jitter(rng, 2.0)
    argv = ["lattice", "--config", "configs/fig_superradiant_20.ini",
            "--n-max", "160", "--gamma-over-gc", repr(f)]
    return Plan(argv, 40, [(f, 160)], (1, -1), writes=True)


def sweep_small(rng):
    step = (3.0 - 0.2) / 15
    fs = [_jitter(rng, 0.2 + k * step) for k in range(16)]
    argv = ["sweep", "--n-atoms", "20", "--n-max", "40", "--sector", "both",
            "--gamma-over-gc", ",".join(repr(f) for f in fs)]
    return Plan(argv, 20, [(f, 40) for f in fs], (1, -1), writes=True, summary=True)


def convergence_scan(rng):
    f = _jitter(rng, 2.0)
    argv = ["convergence", "--n-atoms", "40", "--gamma-over-gc", repr(f),
            "--sector", "+", "--n-max-list", "40:160:40"]
    return Plan(argv, 40, [(f, n) for n in (40, 80, 120, 160)], (1,), writes=False)


WORKLOADS = {w.__name__: w for w in (lattice_sr, sweep_small, convergence_scan)}


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith(("_s", "_s_1thread")):
        return "s"
    if name.endswith(("mib", "mib_computed")):
        return "MiB"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith(("_frac", "_fraction", "_speedup", "rss_over_matrix")):
        return "ratio"
    return "count"


class Bench:
    """Spawns worker processes under a scratch directory of the checkout and
    checks what they produce."""

    def __init__(self, root, tmp, workload, seed):
        self.root, self.tmp = root, tmp
        self.run_prefix = f"{workload}-s{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + BUDGET_S
        self.count = itertools.count()
        self.fingerprint = None
        if seed == 0:
            stored = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
            self.fingerprint = stored[workload]

    def spawn(self, spec, threads=BLAS_THREADS):
        n = next(self.count)
        spec = dict(spec, src=str(self.root / "src"), out=str(self.tmp / f"result{n}.json"),
                    run_id=f"{self.run_prefix}-{n}")
        spec_path = self.tmp / f"spec{n}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=self.root, env=env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"worker timed out after {timeout:.0f} s"}
        if proc.returncode != 0:
            return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        return json.loads(Path(spec["out"]).read_text(encoding="utf-8"))

    def invoke(self, plan, trace):
        """One CLI call; returns the worker's result extended with the check
        outcome (failed sector indices, problems, converged total)."""
        out_dir = self.tmp / f"out{next(self.count)}"
        argv = list(plan.argv)
        if plan.writes:
            argv += ["--out", str(out_dir.relative_to(self.root))]
        res = self.spawn({"mode": "cli", "argv": argv, "trace": trace})
        res["argv"] = argv
        if "error" in res:
            res.update(failed=set(range(len(plan.solves()))), problems=[res["error"]], converged=0)
            return res
        try:
            entries, total, failed, problems = checks.check_run(plan, res, out_dir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            entries, total = [], 0
            failed, problems = set(range(len(plan.solves()))), [f"unreadable output: {exc!r}"]
        if self.fingerprint is not None and not problems:
            bad, msgs = checks.compare_fingerprint(entries, self.fingerprint)
            failed.update(bad)
            problems += msgs
        res.update(failed=failed, problems=problems, converged=total)
        files = [p for p in out_dir.rglob("*") if p.is_file()] if out_dir.exists() else []
        res["files_written"] = len(files)
        res["bytes_written"] = sum(p.stat().st_size for p in files)
        res["windows_skipped"] = sum(
            "skipped" in entry
            for p in files if p.name == "stats.json"
            for entry in json.loads(p.read_text(encoding="utf-8"))
        )
        shutil.rmtree(out_dir, ignore_errors=True)
        return res


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(bench, plan, seconds, trace):
    setups = []
    for _ in range(SETUP_PROBES):
        probe = bench.spawn({"mode": "setup"})
        if "setup_s" in probe:
            setups.append(probe["setup_s"])
    # Closed loop: calls follow one another until the next one would end
    # after `seconds`; there is always at least one.
    runs = []
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        runs.append(bench.invoke(plan, trace=False))
        now = time.monotonic()
        if now + (now - t) > min(t0 + seconds, bench.deadline - 60):
            break
    good = [r for r in runs if "error" not in r]
    setups += [r["setup_s"] for r in good]
    e2e = {
        "wall_s": _median([r["wall_s"] for r in good]),
        "setup_s": _median(setups),
        "peak_rss_mib": _median([r["maxrss_mib"] for r in good]),
        "certified_states_per_s": _median([r["converged"] / r["wall_s"] for r in good]),
    }
    per_layer = None
    if trace:
        traced = bench.invoke(plan, trace=True)
        runs.append(traced)
        per_layer = layer_metrics(bench, plan, traced, e2e)
    attempted = len(runs) * len(plan.solves())
    failed = sum(len(r["failed"]) for r in runs)
    e2e["ok_frac"] = 1.0 - failed / attempted
    if per_layer is not None:
        per_layer["failed_frac"] = failed / attempted
    return runs, attempted, failed, e2e, per_layer


def layer_metrics(bench, plan, traced, e2e):
    if "error" in traced:
        return {}
    m = layers.layer_metrics(traced["spans"], traced["wall_window"])
    m["trace.overhead_s"] = traced["wall_s"] - e2e["wall_s"]
    m["rss_over_matrix"] = (
        e2e["peak_rss_mib"] / m["hamiltonian.matrix_mib_computed"]
        if m["hamiltonian.matrix_mib_computed"] else 0.0
    )
    for key in ("bytes_written", "files_written"):
        m[f"pipeline.{key}"] = traced[key]
    m["analysis.windows_skipped"] = traced["windows_skipped"]
    # single-thread baseline: the largest solve of this run again, BLAS on one thread
    solves = layers.eigh_self(traced["spans"])
    if not solves:
        return m
    k = max(range(len(solves)), key=lambda i: solves[i][0])
    dim = solves[k][0]
    f, n_max, sector = plan.solves()[k]
    one = bench.spawn(
        {"mode": "eigh", "point": [plan.n_atoms, f * checks.GAMMA_C, n_max, sector],
         "seconds": EIGH_1THREAD_S},
        threads=1,
    )
    if "error" in one or one["dim"] != dim:
        traced["problems"].append(f"single-thread solve: {one.get('error', one.get('dim'))}")
        traced["failed"].add(k)
        return m
    self_1 = _median([t for _, t in layers.eigh_self(one["spans"])])
    m["solver.eigh.self_s_1thread"] = self_1
    m["solver.blas_speedup"] = self_1 / _median([t for d, t in solves if d == dim])
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "dickelat" / "cli.py").is_file():
        print(f"perfbench: {root} holds no src/dickelat; run from a checkout root",
              file=sys.stderr)
        return 2
    plan = WORKLOADS[args.workload](None if args.seed == 0 else random.Random(args.seed))
    work = root / ".perfbench_runs"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        bench = Bench(root, tmp, args.workload, args.seed)
        runs, attempted, failed, e2e, per_layer = measure(bench, plan, args.seconds, args.trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass

    problems = [p for r in runs for p in r["problems"]]
    walls = [round(r["wall_s"], 4) for r in runs if "wall_s" in r]
    env = next((r["env"] for r in runs if "env" in r), None)
    record = {
        "workload": args.workload, "seed": args.seed, "argv": runs[0]["argv"],
        "invocations": len(runs), "wall_samples_s": walls, "blas_threads": BLAS_THREADS, "env": env,
        "problems": problems[:20],
    }
    print("# record " + json.dumps(record, sort_keys=True))
    table = {**e2e, "failed_frac": failed / attempted, **(per_layer or {})}
    for name, value in table.items():
        print(f"{name:<44} {value:>16.6g} {unit_of(name)}")
    metrics = e2e if per_layer is None else per_layer
    out = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
