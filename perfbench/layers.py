"""Per-layer metrics from the spans of one traced run.

A span's self time is its duration minus the part of it that its child
spans cover.  Layer names are the dickelat module names.
"""

from collections import Counter, defaultdict

from checks import OPS

MIB = 2.0**20


def _union(intervals):
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _union(children[s["id"]]) for s in spans}


def eigh_self(spans):
    """[(dim, self time)] of every solver.eigh span, in call order."""
    own = self_times(spans)
    return [(s["dim"], own[s["id"]]) for s in spans if s["name"] == "solver.eigh"]


def layer_metrics(spans, wall_window):
    """Per-layer metrics of one traced run whose CLI call spanned wall_window."""
    own = self_times(spans)
    by_name = defaultdict(float)
    by_label = defaultdict(float)
    calls, failures = Counter(), Counter()
    rss = defaultdict(float)
    for s in spans:
        name = s["name"]
        by_name[name] += own[s["id"]]
        if "label" in s:
            by_label[f"{name}.{s['label']}"] += own[s["id"]]
        calls[name] += 1
        failures[name] += s["failed"]
        rss[name] = max(rss[name], s["maxrss_mib"])

    eighs = [s for s in spans if s["name"] == "solver.eigh"]
    dim_total = sum(s["dim"] for s in eighs)
    certified = sum(s.get("converged", 0) for s in spans if s["name"] == "observables.delta_p")
    builds = [s["dim"] for s in spans if s["name"].startswith("hamiltonian.build_")]
    wall = wall_window[1] - wall_window[0]
    roots = [(s["start"], s["end"]) for s in spans if s["parent"] is None]

    m = {
        "solver.eigh.self_s": by_name["solver.eigh"],
        "solver.residual_report_for.self_s": by_name["solver.residual_report_for"],
        "solver.eigh.calls": calls["solver.eigh"],
        "solver.eigh.maxrss_mib": rss["solver.eigh"],
        "solver.dim_total": dim_total,
        "solver.certified_fraction": certified / dim_total if dim_total else 0.0,
    }
    for op in OPS:
        m[f"observables.peres_matrix.{op}.self_s"] = by_label[f"observables.peres_matrix.{op}"]
    for op in OPS:
        m[f"observables.expectation.{op}.self_s"] = by_label[f"observables.expectation.{op}"]
    m.update({
        "observables.expectation.maxrss_mib": rss["observables.expectation"],
        "observables.delta_p.self_s": by_name["observables.delta_p"],
        "observables.parity_labels.self_s": by_name["observables.parity_labels"],
        "hamiltonian.build_coherent_parity.self_s": by_name["hamiltonian.build_coherent_parity"],
        "algebra.displacement_matrix.self_s": by_name["algebra.displacement_matrix"],
        "algebra.displacement_matrix.calls": calls["algebra.displacement_matrix"],
        "basis.enumerate_basis.self_s": by_name["basis.enumerate_basis"],
        "hamiltonian.matrix_mib_computed": max((8.0 * d * d / MIB for d in builds), default=0.0),
        "analysis.self_s": sum(v for k, v in by_name.items() if k.startswith("analysis.")),
        "analysis.unfold.failures": failures["analysis.unfold"],
        "analysis.esqpt_markers.failures": failures["analysis.esqpt_markers"],
        "pipeline.write_sector_files.self_s": by_name["pipeline.write_sector_files"],
        "pipeline.run_sector.self_s": by_name["pipeline.run_sector"],
        "pipeline.run.self_s": by_name["pipeline.run"],
        "pipeline.sweep.self_s": by_name["pipeline.sweep"],
        "cli.main.self_s": by_name["cli.main"],
        "trace.uncovered_frac": (wall - _union(roots)) / wall,
    })
    return m
