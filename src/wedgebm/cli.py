"""Command line interface.

Subcommands: density, sample-stopped, sample-reflected, estimate, folds, ito.
Output is CSV (stdout or --out); floats are printed with %.12g so a fixed
(config, seed) pair gives byte-identical files, independent of --workers.
Wall-clock timings go to stderr only, never into the CSV.

A plain-text key=value file can hold any long flag (--config file); flags
given on the command line override the file.
"""

import argparse
import math
import sys

from .densities import (killed_density_images, killed_density_series,
                        reflected_density_images, reflected_density_series)
from .geometry import (ANGLE_TOL, TWO_PI, CorrelatedSetup, PolarPoint,
                       RegionCase, WedgeSpec)
from .montecarlo import (EstimatorConfig, FaultFractionExceeded, Mode,
                         TestFunction, eps_sweep, estimate, folding_stats,
                         map_paths)
from .samplers import DEFAULT_EPSILON, DEFAULT_FOLD_CAP

ESTIMATE_HEADER = ("mode,func,alpha,start_r,start_theta,T,eps,fold_cap,steps,"
                   "n,seed,estimate,half_width,n_faults,mean_folds,"
                   "mean_weight,ess")
SAMPLE_HEADER = "index,x,y,elapsed,hit_boundary,folds,weight"
WORKERS_HELP = ("worker threads; the output does not depend on this. The "
                "threads share the GIL, so more than one is slower (two ran "
                "at 0.66x the speed of one on 2 cores)")

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
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}")


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

def _add_common(sub, sampling=True):
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
        sub.add_argument("--eps", type=float, default=None,
                         help="corner threshold (0 disables the shortcut)")
        sub.add_argument("--fold-cap", type=int, default=None,
                         help="abort a path after this many folds")
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


def _refuse_drift(args, reason):
    if args.drift is not None and args.drift != (0.0, 0.0):
        raise UsageError(f"{reason}; --drift is not supported here")


def _start_in_wedge(start, wedge):
    """The start point itself when it lies in the closed wedge, snapped onto
    a ray when its angle is within ANGLE_TOL of that ray modulo 2 pi (the
    samplers' own tolerance), otherwise a UsageError."""
    if wedge.contains(start, tol=0.0):
        return start
    for ray in (wedge.alpha_minus, wedge.alpha_plus):
        if abs((start.theta - ray + math.pi) % TWO_PI - math.pi) <= ANGLE_TOL:
            return PolarPoint(start.r, ray)
    raise UsageError(f"start angle {start.theta} outside "
                     f"[{wedge.alpha_minus}, {wedge.alpha_plus}]")


def _resolve_problem(args):
    """The geometry and start point every command reads from its flags:
    {'setup': CorrelatedSetup} or {'wedge', 'start', 'drift'}."""
    drift = args.drift if args.drift is not None else (0.0, 0.0)
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
                                x0=tuple(args.x), drift=tuple(drift))
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
    return {"wedge": wedge, "start": _start_in_wedge(start, wedge),
            "drift": tuple(drift)}


def _merge_preset(args, presets):
    """Fill unset geometry/run fields from the (at most one) chosen preset."""
    chosen = [name for name in presets if getattr(args, name, False)]
    if len(chosen) > 1:
        raise UsageError("pick at most one preset")
    eff = dict(presets[chosen[0]]) if chosen else {}
    merged = argparse.Namespace(**vars(args))
    if merged.alpha is None and getattr(merged, "sigma1", None) is None \
            and "alpha" in eff:
        merged.alpha = eff["alpha"]
    if merged.start is None and merged.x is None and "start" in eff:
        merged.start = eff["start"]
    return merged, eff


def _pick(args, eff, name, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    return eff.get(name, default)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_density(args):
    _refuse_drift(args, "the transition densities are driftless")
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


def _sample_common(args, reflected):
    config = _build_config(args, {}, "reflected" if reflected else "stopped",
                           "constant_1", n_default=10)

    def row(index, sample, fault, xy):
        fields = [index, xy[0], xy[1], sample.elapsed, int(sample.hit_boundary),
                  sample.folds, sample.weight]
        if reflected:
            fields.append(int(fault))
        return _row(*fields)

    header = SAMPLE_HEADER + ",fault" if reflected else SAMPLE_HEADER
    _emit([header] + map_paths(config, row), args.out)
    return 0


def cmd_sample_stopped(args):
    return _sample_common(args, reflected=False)


def cmd_sample_reflected(args):
    return _sample_common(args, reflected=True)


def _build_config(merged, eff, mode_default, func_default, n_default=10000,
                  extra=None):
    """The EstimatorConfig of every sampling command: flags first, then the
    preset `eff`, then the defaults."""
    geo = _resolve_problem(merged)
    mode = Mode(_pick(merged, eff, "mode", mode_default))
    func = TestFunction(_pick(merged, eff, "func", func_default))
    workers = getattr(merged, "workers", None)
    kwargs = {
        "mode": mode,
        "func": func,
        "horizon": _pick(merged, eff, "T", 1.0),
        "n_samples": _pick(merged, eff, "n", n_default),
        "seed": merged.seed,
        "epsilon": _pick(merged, eff, "eps", DEFAULT_EPSILON),
        "fold_cap": _pick(merged, eff, "fold_cap", DEFAULT_FOLD_CAP),
        "workers": 1 if workers is None else workers,
    }
    if "setup" in geo:
        kwargs["setup"] = geo["setup"]
    else:
        kwargs.update(geo)
    if extra:
        kwargs.update(extra)
    return EstimatorConfig(**kwargs)


def _estimate_lines(config, report):
    wedge, start, _drift, _prob = config.resolve()
    return [ESTIMATE_HEADER,
            _row(config.mode.value, config.func.value, wedge.opening,
                 start.r, start.theta, config.horizon, config.epsilon,
                 config.fold_cap, config.steps, report.n_samples, report.seed,
                 report.estimate, report.half_width_95, report.n_faults,
                 report.mean_folds, report.mean_weight, report.ess)]


def cmd_estimate(args):
    merged, eff = _merge_preset(args, ESTIMATE_PRESETS)
    config = _build_config(merged, eff, "stopped", "radius_sq")
    report = estimate(config)
    _emit(_estimate_lines(config, report), args.out)
    print(f"wall time {report.wall_time_seconds:.2f} s", file=sys.stderr)
    if report.n_faults:
        print(f"warning: {report.n_faults} faulted paths excluded",
              file=sys.stderr)
    return 0


def cmd_ito(args):
    merged, eff = _merge_preset(args, ITO_PRESETS)
    steps = _pick(merged, eff, "steps", None)
    if steps is None:
        raise UsageError("--steps is required for the Euler runner")
    _refuse_drift(merged, "the Euler runner takes drift through --mu/--kappa")
    extra = {
        "steps": steps,
        "mu": tuple(_pick(merged, eff, "mu", (0.0, 0.0))),
        "kappa": tuple(_pick(merged, eff, "kappa", (0.0, 0.0))),
    }
    config = _build_config(merged, eff, "euler_stopped", "radius_sq",
                           extra=extra)
    report = estimate(config)
    _emit(_estimate_lines(config, report), args.out)
    print(f"wall time {report.wall_time_seconds:.2f} s", file=sys.stderr)
    return 0


def cmd_folds(args):
    _refuse_drift(args, "fold diagnostics run the driftless sampler")
    config = _build_config(args, {}, "reflected", "constant_1", n_default=1000)
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

    p = subs.add_parser("sample-stopped",
                        help="draw stopped-path endpoints (CSV per path)")
    _add_common(p)
    _add_correlated(p)
    p.set_defaults(handler=cmd_sample_stopped)

    p = subs.add_parser("sample-reflected",
                        help="draw reflected-path endpoints (CSV per path)")
    _add_common(p)
    _add_correlated(p)
    p.set_defaults(handler=cmd_sample_reflected)

    p = subs.add_parser("estimate",
                        help="Monte Carlo estimate of E[f(endpoint)]")
    _add_common(p)
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


def run_cli(argv):
    try:
        argv = _inject_config(list(argv))
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code if exc.code else 0
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FaultFractionExceeded as exc:
        print(f"fault abort: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
