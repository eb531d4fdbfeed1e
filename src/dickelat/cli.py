"""Command-line front end.

Subcommands: spectrum, lattice, sweep, convergence, each with only the flags
it reads.  Every flag can also come from an INI config file (one section per
subcommand); a flag given on the command line wins over the file, a coupling
flag over both of the file's coupling keys, and a file without the
subcommand's section, or with a key that names no flag of the subcommand, is
a config error.

Exit codes: 0 success, 2 config error, 3 capacity, 4 solver (no convergence
or a failed residual audit), 5 sweep with failed points.
"""

import argparse
import configparser
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .basis import BasisSpec
from .errors import CapacityError, ConfigError, SolverError
from .hamiltonian import ModelParams, check_capacity

_SECTOR_CHOICES = {"+": (1,), "-": (-1,), "both": (1, -1)}

# The two ways to give the coupling: a run takes exactly one.
_COUPLING_KEYS = ("gamma", "gamma-over-gc")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("model and run options")
    g.add_argument("--omega", help="field frequency (default 1.0)")
    g.add_argument("--omega0", help="atomic level splitting (default 1.0)")
    g.add_argument("--gamma", help="coupling; sweep accepts a comma list or lo:hi:n")
    g.add_argument("--gamma-over-gc", help="coupling in units of the critical coupling")
    g.add_argument("--n-atoms", help="number of two-level atoms (j = N/2)")
    g.add_argument("--sector", help="parity sector(s): +, - or both")
    g.add_argument("--config", help="INI config file; flags override its values")
    g.add_argument("--mem-budget-gib", help="memory budget of one sector's solve")

    parser = argparse.ArgumentParser(
        prog="dickelat",
        description="Dicke-model exact diagonalization, Peres lattices and chaos diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags are spelled out, like INI keys: convergence would read --n-max as --n-max-list
    cmd = {
        name: sub.add_parser(name, parents=[common], help=text, allow_abbrev=False)
        for name, text in (
            ("spectrum", "energies only"),
            ("lattice", "full pipeline: lattices, DoS, markers, stats"),
            ("sweep", "one run per coupling plus a summary table"),
            ("convergence", "top-shell weight profile vs n_max"),
        )
    }
    for name in ("spectrum", "lattice", "sweep"):
        cmd[name].add_argument("--n-max", help="photon/shell truncation")
        cmd[name].add_argument("--out", help="output directory")
    for name in ("lattice", "sweep"):
        cmd[name].add_argument("--ops", help="comma list of Peres operators (Jz,Jx2,photon_n)")
    cmd["convergence"].add_argument("--n-max-list", help="comma list or lo:hi:step of truncations")
    return parser


def _parse_list(text, cast):
    """'a,b,c' of `cast` values, or a range: 'lo:hi:n' of floats (n evenly
    spaced points, endpoints included), 'lo:hi:step' of ints (hi included
    when a step lands on it)."""
    text = text.strip()
    if ":" not in text:
        return [_cast(cast, v) for v in text.split(",") if v.strip()]
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"a range spec has three fields lo:hi:n or lo:hi:step, got {text!r}")
    lo, hi, k = _cast(cast, parts[0]), _cast(cast, parts[1]), _cast(int, parts[2])
    if cast is int:
        if k <= 0:
            raise ConfigError("range spec needs step > 0")
        return list(range(lo, hi + 1, k))
    if k < 1:
        raise ConfigError("range spec needs n >= 1")
    if k == 1:
        return [lo]
    step = (hi - lo) / (k - 1)
    return [lo + i * step for i in range(k)]


def _cast(cast, text):
    try:
        return cast(text)
    except ValueError as exc:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"not {kind}: {text!r}") from exc


def _load_config_section(path, section):
    """The `section` of the UTF-8 INI file `path`, its values taken as
    written: a `%` is literal text, as it is in a flag."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        reason = " ".join(str(exc).split())
        raise ConfigError(f"config file {path} is malformed: {reason}") from exc
    if not read:
        raise ConfigError(f"config file {path} not found or unreadable")
    if not cp.has_section(section):
        raise ConfigError(
            f"config file {path} has no [{section}] section; it has "
            + (", ".join(f"[{name}]" for name in cp.sections()) or "none")
        )
    return dict(cp.items(section))


def _merged(args, command):
    """Flag > config-file > default, keyed by the flag name with dashes.  A
    coupling flag drops both of the file's coupling keys.

    Raises ConfigError naming every config-file key that is not a flag of
    `command` (`config` itself included): such a key would otherwise be
    dropped without a word."""
    flags = {
        key.replace("_", "-"): value
        for key, value in vars(args).items() if key not in ("command", "config")
    }
    merged = {}
    if args.config:
        section = _load_config_section(args.config, command)
        unknown = sorted(set(section) - set(flags))
        if unknown:
            raise ConfigError(
                f"[{command}] in {args.config} has keys that are not {command} flags: "
                + ", ".join(unknown)
            )
        if any(flags[key] is not None for key in _COUPLING_KEYS):
            for key in _COUPLING_KEYS:
                section.pop(key, None)
        merged.update(section)
    merged.update((key, value) for key, value in flags.items() if value is not None)
    return merged


def _get(merged, key, cast, default=None):
    if key not in merged:
        return default
    try:
        return cast(merged[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {key}: {merged[key]!r} ({exc})") from exc


def _sectors(text):
    if text not in _SECTOR_CHOICES:
        raise ValueError(f"choose from {', '.join(sorted(_SECTOR_CHOICES))}")
    return _SECTOR_CHOICES[text]


def _ops(text):
    return tuple(o.strip() for o in text.split(",") if o.strip())


# flag -> (RunConfig field, parser).  Only the flags the user gave reach
# RunConfig, so each unset setting takes the one default RunConfig declares.
_RUN_FIELDS = {
    "n-max": ("n_max", int),
    "sector": ("sectors", _sectors),
    "ops": ("ops", _ops),
    "out": ("out_dir", lambda text: Path(text) if text else None),
    "mem-budget-gib": ("mem_budget_bytes", lambda text: round(float(text) * 2**30)),
}


def _resolve(merged, command):
    """(RunConfig, couplings) of a command; a command other than sweep takes
    exactly one coupling, which is also the config's."""
    n_atoms = _get(merged, "n-atoms", int, 40)
    if n_atoms < 1:
        raise ConfigError("n-atoms must be >= 1")
    has_g = "gamma" in merged
    has_gg = "gamma-over-gc" in merged
    if has_g and has_gg:
        raise ConfigError("give either gamma or gamma-over-gc, not both")
    if not (has_g or has_gg):
        raise ConfigError("a coupling is required: --gamma or --gamma-over-gc")
    given = {
        field: _get(merged, flag, cast)
        for flag, (field, cast) in _RUN_FIELDS.items()
        if flag in merged
    }
    if command in ("spectrum", "convergence"):
        given["ops"] = ()
    try:
        base = ModelParams(
            omega=_get(merged, "omega", float, 1.0),
            omega0=_get(merged, "omega0", float, 1.0),
            gamma=0.0,
            j=n_atoms / 2.0,
        )
        if has_gg and base.gamma_c == 0:
            raise ConfigError("gamma-over-gc needs omega0 > 0")
        if has_g:
            gammas = _parse_list(merged["gamma"], float)
        else:
            gammas = [f * base.gamma_c for f in _parse_list(merged["gamma-over-gc"], float)]
        if not gammas:
            raise ConfigError("the coupling list is empty")
        if command != "sweep" and len(gammas) != 1:
            raise ConfigError(f"{command} takes a single coupling; got {len(gammas)}")
        params = [replace(base, gamma=g) for g in gammas]  # checks every coupling
        cfg = pipeline.RunConfig(params=params[0], **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, gammas


def _print_run(result):
    for man in result.manifests:
        sector = {1: "+", -1: "-"}[man["sector"]]
        print(
            f"gamma={man['gamma']:.6g} sector={sector} dim={man['dim']} "
            f"residual={man['residual_report']['max_residual']:.3e} "
            f"converged={man['converged_count']} wall={man['wall_time_s']:.1f}s"
        )
    if result.out_dir is not None:
        print(f"outputs under {result.out_dir}")


def _cmd_single(cfg):
    result = pipeline.run(cfg)
    _print_run(result)
    for sec in result.sectors:
        if sec.markers is not None:
            print(
                f"  markers: dynamic={sec.markers.dynamic_marker:.3f} "
                f"static={sec.markers.static_marker:.3f}"
            )
        if sec.stats is not None:
            for entry in sec.stats:
                if "mean_ratio" in entry:
                    print(
                        f"  window {entry['window']}: n={entry['n_levels']} "
                        f"mean gap ratio={entry['mean_ratio']:.4f}"
                    )
    return 0


def _cmd_sweep(cfg, gammas):
    results, rows = pipeline.sweep(cfg, gammas)
    failed = 0
    for result, row in zip(results, rows):
        if row["status"] == "ok":
            print(
                f"gamma={row['gamma']:.6g} [ok] "
                f"ground E/j={row['ground_e_over_j']:.6f} converged={row['converged_count']}"
            )
        else:
            print(f"gamma={row['gamma']:.6g} [failed] {result[1]}")
            failed += 1
    if cfg.out_dir is not None:
        print(f"summary at {cfg.out_dir / 'summary.csv'}")
    return 5 if failed else 0


def _cmd_convergence(cfg, merged):
    n_list = _parse_list(merged.get("n-max-list", "50,100,150,200,250"), int)
    if not n_list:
        raise ConfigError("the n-max-list is empty")
    # every truncation is checked before the first one is solved
    points = [replace(cfg, n_max=n_max) for n_max in n_list]
    for point in points:
        for sector in point.sectors:
            check_capacity(BasisSpec(point.params.j, point.n_max, sector), point.mem_budget_bytes)
    print("n_max  dim    converged  ground_dp      max_dp(E/j<=1)")
    for point in points:
        result = pipeline.run(point)
        for sec in result.sectors:
            e_over_j = sec.energies / cfg.params.j
            low = sec.report.delta_p[e_over_j <= 1.0]
            max_low = low.max() if low.size else math.nan
            print(
                f"{point.n_max:<6d} {sec.energies.size:<6d} {sec.report.converged_count:<10d} "
                f"{sec.report.delta_p[0]:<14.3e} {max_low:.3e}"
            )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merged(args, args.command)
        cfg, gammas = _resolve(merged, args.command)
        if args.command == "sweep":
            return _cmd_sweep(cfg, gammas)
        if args.command == "convergence":
            return _cmd_convergence(cfg, merged)
        return _cmd_single(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
