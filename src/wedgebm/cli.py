"""Command line interface.

Subcommands: density, sample-stopped, sample-reflected, estimate, folds, ito.
Output is CSV (stdout or --out); floats are printed with %.12g so a fixed
(config, seed) pair gives byte-identical files, independent of --workers.
Wall-clock timings go to stderr only, never into the CSV.

A plain-text key=value file can hold any long flag (--config file); flags
given on the command line override the file.
"""

import argparse
import functools
import math
import sys

from .bessel import SeriesCapExceeded
from .densities import (killed_density_images, killed_density_series,
                        reflected_density_images, reflected_density_series)
from .geometry import CorrelatedSetup, PolarPoint, RegionCase, WedgeSpec
from .montecarlo import (EstimatorConfig, FaultFractionExceeded, Mode,
                         TestFunction, eps_sweep, estimate, folding_stats,
                         map_paths, run_frame)
from .samplers import DEFAULT_EPSILON, DEFAULT_FOLD_CAP

ESTIMATE_HEADER = ("mode,func,alpha,start_r,start_theta,T,eps,fold_cap,steps,"
                   "n,seed,estimate,half_width,n_faults,mean_folds,"
                   "mean_weight,ess")
SAMPLE_HEADER = "index,x,y,elapsed,hit_boundary,folds,weight,fault"
WORKERS_HELP = ("worker threads, each running one batch of paths at a "
                "time; the output does not depend on this. The threads share "
                "the GIL, so more than one does not speed a run up")

TABLE1_GEOMETRY = {"alpha": 0.9, "start": (1.5, 0.3), "T": 1.0}
TABLE2_GEOMETRY = {"alpha": 0.58, "start": (3.0, 0.4), "T": 1.0}

ESTIMATE_PRESETS = {
    "table1_stopped": dict(TABLE1_GEOMETRY, mode="stopped", func="radius_sq",
                           n=10000),
    "table1_coord1": dict(TABLE1_GEOMETRY, mode="stopped", func="coord_1",
                          n=10000),
    "table1_exit": dict(TABLE1_GEOMETRY, T=math.inf, mode="stopped",
                        func="radius_sq", n=50000),
    "table1_tau": dict(TABLE1_GEOMETRY, T=math.inf, mode="stopped",
                       func="elapsed_time", n=20000),
    "table1_reflected": dict(TABLE1_GEOMETRY, mode="reflected",
                             func="radius_sq", n=10000, eps=0.03),
    "table2_stopped": dict(TABLE2_GEOMETRY, mode="stopped",
                           func="sin_sq_theta", n=10000),
    "table2_reflected": dict(TABLE2_GEOMETRY, mode="reflected",
                             func="sin_sq_theta", n=5000, eps=0.03),
}

ITO_PRESETS = {
    "table3_stopped": dict(TABLE1_GEOMETRY, mode="euler_stopped",
                           func="radius_sq", n=500, steps=5000,
                           mu=(0.1, 0.2), kappa=(0.7, 0.5)),
    "table3_reflected": dict(TABLE1_GEOMETRY, mode="euler_reflected",
                             func="radius_sq", n=500, steps=5000,
                             mu=(0.1, 0.2), kappa=(0.7, 0.5), eps=0.01),
}


class UsageError(Exception):
    pass


def _fmt(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return "%.12g" % value
    return str(value)


def _row(*fields):
    return ",".join(_fmt(f) for f in fields)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated "
                                         f"numbers, got {text!r}")
    try:
        return (float(parts[0]), float(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r}")


def _horizon(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad time {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError("T must be positive")
    return value


def _float_list(text):
    try:
        values = [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty number list {text!r}")
    return values


# ---------------------------------------------------------------------------
# config file expansion
# ---------------------------------------------------------------------------

def _config_flags(path):
    """Turn key=value lines into a flag list. '#' starts a comment; truthy
    bare booleans become store_true flags."""
    flags = []
    try:
        fh = open(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    with fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line (want key=value): {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("_", "-")
            if value.lower() in ("true", "yes", "on"):
                flags.append("--" + key)
            elif value.lower() in ("false", "no", "off"):
                continue
            else:
                flags.extend(["--" + key, value])
    return flags


def _inject_config(argv):
    """Strip --config PATH from argv and splice the file's flags in right
    after the subcommand, so explicit flags override the file."""
    path = None
    rest = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            path = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
            continue
        rest.append(tok)
        i += 1
    if path is None:
        return rest
    if not rest:
        raise UsageError("--config requires a subcommand")
    return [rest[0]] + _config_flags(path) + rest[1:]


# ---------------------------------------------------------------------------
# shared flag groups and problem resolution
# ---------------------------------------------------------------------------

def _add_common(sub, sampling=True, drift=False, eps=True):
    sub.add_argument("--alpha", type=float, default=None,
                     help="wedge opening in radians (lower ray at angle 0)")
    sub.add_argument("--start", type=_pair, default=None, metavar="R,THETA",
                     help="start point, polar")
    sub.add_argument("--x", type=_pair, default=None, metavar="X,Y",
                     help="start point, cartesian")
    sub.add_argument("--T", "--t", dest="T", type=_horizon, default=None,
                     help="time horizon (accepts inf)")
    sub.add_argument("--out", default=None, metavar="FILE.CSV",
                     help="write CSV here instead of stdout")
    if sampling:
        sub.add_argument("--n", type=int, default=None,
                         help="number of samples")
        sub.add_argument("--seed", type=int, default=0, help="master seed")
        sub.add_argument("--fold-cap", type=int, default=None,
                         help="abort a path after this many folds")
    if sampling and eps:
        sub.add_argument("--eps", type=float, default=None,
                         help="corner threshold of the reflected modes "
                              "(0 disables the shortcut)")
    if drift:
        sub.add_argument("--drift", type=_pair, default=None, metavar="BX,BY",
                         help="constant drift, handled by reweighting")


def _add_correlated(sub):
    grp = sub.add_argument_group("correlated input (replaces --alpha)")
    grp.add_argument("--sigma1", type=float, default=None)
    grp.add_argument("--sigma2", type=float, default=None)
    grp.add_argument("--rho", type=float, default=None)
    grp.add_argument("--slope", type=float, default=None)
    grp.add_argument("--region", default=None,
                     choices=[case.value for case in RegionCase])


def _resolve_problem(args):
    """The geometry and start point every command reads from its flags:
    {'setup': CorrelatedSetup} or {'wedge', 'start'}."""
    corr = [getattr(args, name, None)
            for name in ("sigma1", "sigma2", "rho", "slope", "region")]
    if any(v is not None for v in corr):
        if any(v is None for v in corr):
            raise UsageError("correlated input needs all of --sigma1 --sigma2 "
                             "--rho --slope --region")
        if args.alpha is not None:
            raise UsageError("--alpha conflicts with correlated input; the "
                             "wedge is derived from the region")
        if args.x is None:
            raise UsageError("correlated input takes the start as --x x,y")
        setup = CorrelatedSetup(sigma1=corr[0], sigma2=corr[1], rho=corr[2],
                                slope=corr[3],
                                region_case=RegionCase(corr[4]),
                                x0=tuple(args.x))
        return {"setup": setup}
    if args.alpha is None:
        raise UsageError("--alpha is required (or give a correlated setup)")
    wedge = WedgeSpec(0.0, args.alpha)
    if args.start is not None:
        start = PolarPoint(args.start[0], args.start[1])
    elif args.x is not None:
        start = PolarPoint.from_cartesian(args.x[0], args.x[1])
    else:
        raise UsageError("a start point is required: --start r,theta or "
                         "--x x,y")
    try:
        start = wedge.place(start)
    except ValueError as exc:
        raise UsageError(f"start {exc}")
    return {"wedge": wedge, "start": start}


def _fill_preset(args, presets, mode_default):
    """Fill the flags left unset from the (at most one) chosen preset. Its
    wedge gives way to correlated input, and its start to --x. An --eps of
    the user's own with a stopped mode, which would ignore it, is refused."""
    eps_given = args.eps is not None
    chosen = [name for name in presets if getattr(args, name)]
    if len(chosen) > 1:
        raise UsageError("pick at most one preset")
    preset = dict(presets[chosen[0]]) if chosen else {}
    if getattr(args, "sigma1", None) is not None:
        preset.pop("alpha", None)
    if args.x is not None:
        preset.pop("start", None)
    for name, value in preset.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    mode = _pick(args, "mode", mode_default)
    if eps_given and Mode(mode) in (Mode.STOPPED, Mode.EULER_STOPPED):
        raise UsageError(f"--eps is the corner threshold of the reflected "
                         f"modes; mode {mode} has none")


def _pick(args, name, default):
    value = getattr(args, name, None)
    return default if value is None else value


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_density(args):
    geo = _resolve_problem(args)
    wedge, start = geo["wedge"], geo["start"]
    t = args.T if args.T is not None else 1.0
    if not math.isfinite(t):
        raise UsageError("density evaluation needs a finite T")
    grid = args.grid
    if grid < 1:
        raise UsageError("--grid must be at least 1")
    if args.rmax is not None and not args.rmax > 0:
        raise UsageError("--rmax must be positive")
    rmax = args.rmax if args.rmax is not None else start.r + 4.0 * math.sqrt(t)
    m = wedge.pi_over_m()
    killed = args.mode == "killed"
    lines = ["r,theta,value"]
    # cell midpoints, r outer, theta inner; values are densities w.r.t. area
    for i in range(grid):
        r = (i + 0.5) * rmax / grid
        for j in range(grid):
            theta = (j + 0.5) * args.alpha / grid
            target = PolarPoint(r, theta)
            if m is not None:
                if killed:
                    value = killed_density_images(m, start, target, t)
                else:
                    value = reflected_density_images(m, start, target, t)
            else:
                if killed:
                    value = killed_density_series(wedge, target, start, t)
                else:
                    value = reflected_density_series(wedge, target, start, t)
                value /= r
            lines.append(_row(r, theta, value))
    _emit(lines, args.out)
    return 0


def cmd_sample(args):
    config = _build_config(args, args.mode, "constant_1", n_default=10)
    paths = map_paths(config)
    lines = [SAMPLE_HEADER]
    for index, (x, y, elapsed, hit, folds, weight, fault) in enumerate(zip(*(
            column.tolist() for column in (
                paths.x, paths.y, paths.elapsed, paths.hit, paths.folds,
                paths.weight, paths.faulted)))):
        lines.append(_row(index, x, y, elapsed, int(hit), folds, weight,
                          int(fault)))
    _emit(lines, args.out)
    return 0


def _build_config(args, mode_default, func_default, n_default=10000, **extra):
    """The EstimatorConfig of every sampling command: the flags, any preset
    already filled in, then the defaults."""
    return EstimatorConfig(
        mode=Mode(_pick(args, "mode", mode_default)),
        func=TestFunction(_pick(args, "func", func_default)),
        horizon=_pick(args, "T", 1.0),
        n_samples=_pick(args, "n", n_default),
        seed=args.seed,
        drift=_pick(args, "drift", (0.0, 0.0)),
        epsilon=_pick(args, "eps", DEFAULT_EPSILON),
        fold_cap=_pick(args, "fold_cap", DEFAULT_FOLD_CAP),
        workers=_pick(args, "workers", 1),
        **_resolve_problem(args), **extra)


def _estimate_lines(config, report):
    wedge, start = run_frame(config)[:2]
    return [ESTIMATE_HEADER,
            _row(config.mode.value, config.func.value, wedge.opening,
                 start.r, start.theta, config.horizon, config.epsilon,
                 config.fold_cap, config.steps, report.n_samples, report.seed,
                 report.estimate, report.half_width_95, report.n_faults,
                 report.mean_folds, report.mean_weight, report.ess)]


def _estimate_and_report(args, mode_default, **extra):
    """The tail of `estimate` and `ito`: run, emit the row, and report the
    wall time and any faulted paths on stderr."""
    config = _build_config(args, mode_default, "radius_sq", **extra)
    report = estimate(config)
    _emit(_estimate_lines(config, report), args.out)
    print(f"wall time {report.wall_time_seconds:.2f} s", file=sys.stderr)
    if report.n_faults:
        print(f"warning: {report.n_faults} faulted paths excluded",
              file=sys.stderr)
    return 0


def cmd_estimate(args):
    _fill_preset(args, ESTIMATE_PRESETS, "stopped")
    return _estimate_and_report(args, "stopped")


def cmd_ito(args):
    _fill_preset(args, ITO_PRESETS, "euler_stopped")
    if args.steps is None:
        raise UsageError("--steps is required for the Euler runner")
    return _estimate_and_report(args, "euler_stopped", steps=args.steps,
                                mu=_pick(args, "mu", (0.0, 0.0)),
                                kappa=_pick(args, "kappa", (0.0, 0.0)))


def cmd_folds(args):
    config = _build_config(args, "reflected", "constant_1", n_default=1000)
    if args.eps_sweep is not None:
        lines = ["eps,mean_folds,n"]
        for eps, mean in eps_sweep(config, args.eps_sweep):
            lines.append(_row(eps, mean, config.n_samples))
        _emit(lines, args.out)
        return 0
    stats = folding_stats(config)
    lines = ["folds,count"]
    for folds in sorted(stats.counts):
        lines.append(_row(folds, stats.counts[folds]))
    lines.append(_row("overflow", stats.overflow))
    _emit(lines, args.out)
    print(f"mean folds {stats.mean:.4f} over {stats.n_samples} paths "
          f"(quantiles {stats.quantiles})", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="wedgebm",
        description="Exact simulation and closed-form densities for planar "
                    "Brownian motion stopped or reflected in a wedge.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("density", help="evaluate the transition density on "
                                        "a polar grid (CSV: r,theta,value)")
    _add_common(p, sampling=False)
    p.add_argument("--mode", choices=["killed", "reflected"],
                   default="reflected")
    p.add_argument("--grid", type=int, default=50,
                   help="grid points per axis (midpoint rule)")
    p.add_argument("--rmax", type=float, default=None,
                   help="radial extent (default |x0| + 4 sqrt(t))")
    p.set_defaults(handler=cmd_density)

    for mode in ("stopped", "reflected"):
        p = subs.add_parser("sample-" + mode,
                            help=f"draw {mode}-path endpoints (CSV per path)")
        _add_common(p, drift=True, eps=mode == "reflected")
        _add_correlated(p)
        p.set_defaults(handler=cmd_sample, mode=mode)

    p = subs.add_parser("estimate",
                        help="Monte Carlo estimate of E[f(endpoint)]")
    _add_common(p, drift=True)
    _add_correlated(p)
    p.add_argument("--mode", choices=["stopped", "reflected"], default=None)
    p.add_argument("--func", default=None,
                   choices=[f.value for f in TestFunction])
    p.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    for preset in ESTIMATE_PRESETS:
        p.add_argument("--" + preset.replace("_", "-"), dest=preset,
                       action="store_true",
                       help="preset reproducing one published row")
    p.set_defaults(handler=cmd_estimate)

    p = subs.add_parser("folds",
                        help="fold-count histogram or epsilon sweep for the "
                             "reflected sampler")
    _add_common(p)
    _add_correlated(p)
    p.add_argument("--eps-sweep", type=_float_list, default=None,
                   metavar="E1,E2,...",
                   help="emit (eps, mean folds) rows instead of a histogram")
    p.set_defaults(handler=cmd_folds)

    p = subs.add_parser("ito",
                        help="weak Euler runner for mean-reverting drift")
    _add_common(p)
    p.add_argument("--mode", choices=["euler_stopped", "euler_reflected"],
                   default=None)
    p.add_argument("--func", default=None,
                   choices=[f.value for f in TestFunction])
    p.add_argument("--workers", type=int, default=None, help=WORKERS_HELP)
    p.add_argument("--mu", type=_pair, default=None, metavar="M1,M2",
                   help="mean-reversion rates")
    p.add_argument("--kappa", type=_pair, default=None, metavar="K1,K2",
                   help="mean-reversion targets")
    p.add_argument("--steps", type=int, default=None,
                   help="number of Euler cells")
    for preset in ITO_PRESETS:
        p.add_argument("--" + preset.replace("_", "-"), dest=preset,
                       action="store_true",
                       help="preset reproducing one published row")
    p.set_defaults(handler=cmd_ito)

    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    """The parser every run_cli call reads its command line with. Parsing
    leaves a parser as it was, and one built per call left ~600 objects in
    reference cycles, which the garbage collector freed only much later."""
    return build_parser()


def run_cli(argv):
    try:
        argv = _inject_config(list(argv))
        parser = _parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if exc.code else 0
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, SeriesCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FaultFractionExceeded as exc:
        print(f"fault abort: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
