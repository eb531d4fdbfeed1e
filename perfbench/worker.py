"""One fresh benchmark process: set up, then run one dickelat CLI call (or one
dense solve), and write what it measured as JSON.

    python3 perfbench/worker.py SPEC.json

SPEC holds "mode" ("setup", "cli" or "eigh"), "src" (the checkout's src/
directory), "out" (result path) and, per mode, "argv", "trace" or "point".
Set-up is the imports plus a BLAS warm-up; its time is reported separately
so the run time that follows excludes it.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _maxrss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(src):
    """Import numpy, scipy and dickelat from `src` and warm up BLAS/LAPACK."""
    import numpy as np
    import scipy
    import scipy.linalg

    sys.path.insert(0, src)
    import tracer

    _, namespaces = tracer.dickelat_modules()
    pkg = os.path.realpath(os.path.dirname(namespaces[0].__file__))
    if os.path.dirname(pkg) != os.path.realpath(src):
        raise SystemExit(f"dickelat imported from {pkg}, not from {src}")
    a = np.random.default_rng(0).standard_normal((300, 300))
    a = a + a.T
    scipy.linalg.eigh(a, driver="evd", check_finite=False)
    a @ a
    return np, scipy


def environment(np, scipy):
    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def install_audit(records):
    """Record every spectrum's residual report and energy sum; one call per
    sector, so the untimed cost is negligible next to the solve."""
    from dickelat import solver

    inner = solver.eigh

    def eigh(matrix, *args, **kwargs):
        spectrum = inner(matrix, *args, **kwargs)
        rep = spectrum.residual_report
        records.append({
            "dim": int(spectrum.dim),
            "j": matrix.basis.j,
            "n_max": matrix.basis.n_max,
            "sector": matrix.basis.parity_sector,
            "energy_sum": float(spectrum.energies.sum()),
            "ground": float(spectrum.energies[0]),
            "max_residual": rep.max_residual,
            "max_ortho_defect": rep.max_ortho_defect,
            "h_frobenius": rep.h_frobenius,
        })
        return spectrum

    solver.eigh = eigh


def run_cli(spec, out):
    import tracer
    from dickelat import cli

    tr = None
    if spec["trace"]:
        tr = tracer.Tracer(spec["run_id"])
        tracer.install(tr)
    records = []
    install_audit(records)
    buf = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(spec["argv"])
    except Exception as exc:  # the run failed; report it, the parent counts it
        code = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    out.update(
        wall_s=end - t,
        wall_window=[t, end],
        exit_code=code,
        stdout=buf.getvalue(),
        audit=records,
        spans=tr.spans if tr else None,
    )


def run_eigh(spec, out):
    """Dense solves of one parity sector, traced at the solver boundary and
    repeated until spec["seconds"] have passed (at least once)."""
    import tracer
    from dickelat import hamiltonian, solver

    n_atoms, gamma, n_max, sector = spec["point"]
    params = hamiltonian.ModelParams(omega=1.0, omega0=1.0, gamma=gamma, j=n_atoms / 2)
    matrix = hamiltonian.build_coherent_parity(params, n_max, sector)
    tr = tracer.Tracer(spec["run_id"])
    tracer.install(tr)
    t = time.perf_counter()
    while True:
        solver.eigh(matrix)
        if time.perf_counter() - t >= spec["seconds"]:
            break
    out.update(spans=tr.spans, dim=int(matrix.dim))


def main(path):
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    np, scipy = set_up(spec["src"])
    out = {"setup_s": time.perf_counter() - T0}
    if spec["mode"] == "cli":
        out["env"] = environment(np, scipy)
        run_cli(spec, out)
    elif spec["mode"] == "eigh":
        run_eigh(spec, out)
    out["maxrss_mib"] = _maxrss_mib()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
