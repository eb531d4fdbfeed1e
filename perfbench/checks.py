"""Output checks for one dickelat CLI run.

Every run is checked for:

* the solver audit: residual <= 1e-10 ||H||_F and orthonormality <= 1e-10,
  both from the manifests and from the spectra the run produced;
* manifest sha256 entries that match the bytes of each file;
* trace sum rules, which hold for any complete set of eigenstates of one
  parity sector with integer j (omega = omega0 = 1):
  sum_k E_k = Tr H = sum (N - G^2 m^2), sum_k <Jz>_k = 0,
  sum_k <n>_k = sum (N + G^2 m^2), sum_k <Jx^2>_k = sum m^2,
  with G = 2 gamma / sqrt(N_atoms) and the sums over the sector's (N, m) labels;
* for the default seed, a stored fingerprint (certified counts, ground E/j
  and ESQPT marker positions).
"""

import csv
import hashlib
import json
import math
from pathlib import Path

RESIDUAL_BOUND = 1e-10
ORTHO_BOUND = 1e-10
SUM_RULE_REL = 1e-9
GAMMA_C = 0.5  # sqrt(omega0 * omega) / 2 at omega = omega0 = 1
SECTOR_DIRS = {1: "plus", -1: "minus"}
OPS = ("Jz", "Jx2", "photon_n")


def sector_labels(n_atoms, n_max, sector):
    """(N, m) labels of one parity sector of the displaced basis, integer j:
    every m > 0 shell, and m = 0 only where (-1)^N equals the sector sign."""
    if n_atoms % 2:
        raise ValueError("the sum rules here need integer j (even N_atoms)")
    j = n_atoms // 2
    labels = [(n, m) for m in range(1, j + 1) for n in range(n_max + 1)]
    labels += [(n, 0) for n in range(n_max + 1) if (1 if n % 2 == 0 else -1) == sector]
    return labels


def expected_sums(n_atoms, n_max, sector, gamma):
    """Expected trace sums of one sector, with the scale each may err by."""
    g2 = 4.0 * gamma**2 / n_atoms
    labels = sector_labels(n_atoms, n_max, sector)
    photon = math.fsum(n + g2 * m * m for n, m in labels)
    jx2 = math.fsum(m * m for _, m in labels)
    return {
        "dim": len(labels),
        "energy": math.fsum(n - g2 * m * m for n, m in labels),
        "Jz": 0.0,
        "photon_n": photon,
        "Jx2": jx2,
        "scale": {"energy": photon, "Jz": len(labels) * n_atoms / 2, "photon_n": photon,
                  "Jx2": max(1.0, jx2)},
    }


def _column_sum(path, col):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return math.fsum(float(r[col]) for r in rows), rows


def _sha256(path):
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _audit_ok(rep):
    return (
        rep["max_residual"] <= RESIDUAL_BOUND * rep["h_frobenius"]
        and rep["max_ortho_defect"] <= ORTHO_BOUND
    )


def convergence_rows(stdout):
    """(n_max, dim, converged) from the table `dickelat convergence` prints."""
    rows = []
    for line in stdout.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 5:
            rows.append((int(parts[0]), int(parts[1]), int(parts[2])))
    return rows


def check_sector_dir(sector_dir, n_atoms, n_max, sector, gamma, problems):
    """Manifest, hashes and sum rules of one sector's files; returns
    (converged_count, markers or None) and appends what is wrong to problems."""
    where = f"{sector_dir.parent.name}/{sector_dir.name}"
    man_path = sector_dir / "manifest.json"
    if not man_path.is_file():
        problems.append(f"{where}: no manifest")
        return None, None
    man = json.loads(man_path.read_text(encoding="utf-8"))
    if man.get("status") != "ok":
        problems.append(f"{where}: manifest status {man.get('status')!r}")
        return None, None
    if not _audit_ok(man["residual_report"]):
        problems.append(f"{where}: solver audit out of bounds {man['residual_report']}")
    for name, digest in man["files"].items():
        if _sha256(sector_dir / name) != digest:
            problems.append(f"{where}: sha256 mismatch for {name}")
    want = expected_sums(n_atoms, n_max, sector, gamma)
    if man["dim"] != want["dim"]:
        problems.append(f"{where}: dim {man['dim']} != {want['dim']}")
    got, rows = _column_sum(sector_dir / "energies.csv", 1)
    if len(rows) != want["dim"]:
        problems.append(f"{where}: energies.csv has {len(rows)} rows, not {want['dim']}")
    sums = {"energy": got}
    for op in OPS:
        sums[op], _ = _column_sum(sector_dir / f"lattice_{op}.csv", 1)
    for key, value in sums.items():
        if abs(value - want[key]) > SUM_RULE_REL * want["scale"][key]:
            problems.append(f"{where}: sum rule {key}: {value!r} != {want[key]!r}")
    markers = None
    if (sector_dir / "markers.json").is_file():
        mk = json.loads((sector_dir / "markers.json").read_text(encoding="utf-8"))
        markers = [mk["dynamic_marker"], mk["static_marker"]]
    return man["converged_count"], markers


def check_run(plan, result, out_dir):
    """Check one CLI invocation against its plan.

    Returns (per-sector fingerprint entries, converged total, failed sector
    indices, problems).  Sectors are counted in call order, one per spectrum;
    one fails when the run raised, it wrote a non-ok manifest, or any of its
    checks failed.
    """
    problems = []
    failed = set()
    expected = plan.solves()
    if result.get("exit_code") != 0:
        problems.append(f"CLI exit code {result.get('exit_code')!r}")
        return [], 0, set(range(len(expected))), problems

    audit = result["audit"]
    if len(audit) != len(expected):
        problems.append(f"{len(audit)} spectra, expected {len(expected)}")
        return [], 0, set(range(len(expected))), problems
    entries = []
    for k, (rec, (f, n_max, s)) in enumerate(zip(audit, expected)):
        before = len(problems)
        want = expected_sums(plan.n_atoms, n_max, s, f * GAMMA_C)
        if (rec["dim"], rec["n_max"], rec["sector"]) != (want["dim"], n_max, s):
            problems.append(f"spectrum {k}: {rec['dim']}/{rec['n_max']}/{rec['sector']}")
        if not _audit_ok(rec):
            problems.append(f"spectrum {k}: solver audit out of bounds")
        if abs(rec["energy_sum"] - want["energy"]) > SUM_RULE_REL * want["scale"]["energy"]:
            problems.append(f"spectrum {k}: sum E {rec['energy_sum']!r} != Tr H {want['energy']!r}")
        if len(problems) > before:
            failed.add(k)
        entries.append({"ground_e_over_j": rec["ground"] / rec["j"]})

    if plan.writes:
        for k, (f, n_max, s) in enumerate(expected):
            sector_dir = out_dir / f"gamma={f * GAMMA_C:.12g}" / SECTOR_DIRS[s]
            before = len(problems)
            conv, markers = check_sector_dir(sector_dir, plan.n_atoms, n_max, s, f * GAMMA_C, problems)
            if len(problems) > before:
                failed.add(k)
            entries[k].update(converged=conv, markers=markers)
        if plan.summary:
            with open(out_dir / "summary.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            n_sec = len(plan.sectors)
            for k, row in enumerate(rows):
                if row["status"] != "ok":
                    failed.update(range(k * n_sec, (k + 1) * n_sec))
            if len(rows) != len(plan.points):
                problems.append(f"summary.csv has {len(rows)} rows")
    else:
        rows = convergence_rows(result["stdout"])
        if [(n, d) for n, d, _ in rows] != [(n, r["dim"]) for (_, n, _), r in zip(expected, audit)]:
            problems.append(f"printed rows {rows} do not match the spectra")
            failed.update(range(len(expected)))
        for k, (_, _, conv) in enumerate(rows[: len(entries)]):
            entries[k].update(converged=conv, markers=None)
    total = sum(e.get("converged") or 0 for e in entries)
    return entries, total, failed, problems


def compare_fingerprint(entries, stored, rel=1e-9):
    """(indices of sectors that differ from the stored fingerprint, messages)."""
    if len(entries) != len(stored):
        return set(range(len(entries))), [f"fingerprint has {len(entries)} sectors, stored {len(stored)}"]
    bad, msgs = set(), []
    for k, (got, want) in enumerate(zip(entries, stored)):
        g, w = got["ground_e_over_j"], want["ground_e_over_j"]
        gm, wm = got.get("markers"), want["markers"]
        diffs = []
        if got.get("converged") != want["converged"]:
            diffs.append(f"converged {got.get('converged')} != {want['converged']}")
        if abs(g - w) > rel * abs(w):
            diffs.append(f"ground E/j {g!r} != {w!r}")
        if (gm is None) != (wm is None) or (
            gm is not None and any(abs(a - b) > 1e-9 for a, b in zip(gm, wm))
        ):
            diffs.append(f"markers {gm} != {wm}")
        if diffs:
            bad.add(k)
            msgs += [f"sector {k}: {d}" for d in diffs]
    return bad, msgs
