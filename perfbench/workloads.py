"""The benchmark's workloads: inputs made from a seed, one round of work,
the correctness gate and the end-to-end figures of a run.

A run repeats rounds until its time is up. Round k of seed s runs every
sampled row with row seed = acceptance seed + 1000 s + 10^9 k, so seed 0,
round 0 draws from the acceptance suite's own streams (at a smaller n).
Density grids use the `density` command's cell midpoints for seed 0 and a
point drawn uniformly inside each cell otherwise.
"""

import contextlib
import hashlib
import io
import math
import random
import statistics
import time
from array import array
from dataclasses import dataclass

# Library functions are looked up through their modules at call time, so
# the traced run's wrappers see the benchmark's own calls too.
from wedgebm import cli, densities
from wedgebm.bessel import SeriesCapExceeded
from wedgebm.geometry import PolarPoint, WedgeSpec

import calib

# An estimate fails the gate when it is further than this many standard
# errors (plus the reference's own uncertainty) from its reference value.
# At 4.5 a correct program fails a row about once in 150,000 runs, so
# the gate stays quiet over the benchmark's many seeds.
Z_GATE = 4.5


def speed_factor(op):
    """Scale from an operation's raw times to reference-speed times."""
    return calib.speed_factor(op["calib_s"])


def unscaled(op):
    """Scale that leaves raw times as measured (for the record)."""
    return 1.0


class OpFailed(Exception):
    """One operation raised or returned an error."""


@dataclass(frozen=True)
class Row:
    """One sampled row, run through the CLI.

    exact is the independent reference the gate checks, with ref_tol its
    own uncertainty; tabulated is the paper's (value, half-width), reported
    but not gated on (see README.md).
    """

    name: str
    argv: tuple
    n: int
    acc_seed: int
    exact: float = None
    ref_tol: float = 0.0
    tabulated: tuple = None


T1 = ("--alpha", "0.9", "--start", "1.5,0.3", "--T", "1")

# exact values from scripts/oracles/table_targets_reference.out
PUBLISHED_ROWS = (
    Row("table1_stopped", ("estimate", "--table1-stopped"), 600, 101,
        3.030957057, 0.0, (2.980, 0.049)),
    Row("table1_coord1", ("estimate", "--table1-coord1"), 600, 102,
        1.433004734, 0.0, (1.441, 0.012)),
    Row("table1_exit", ("estimate", "--table1-exit"), 1500, 103,
        3.457967552, 0.0, (3.489, 0.085)),
    Row("table1_tau", ("estimate", "--table1-tau"), 1500, 104,
        0.6039837762, 0.0, (0.590, 0.024)),
    Row("table1_reflected", ("estimate", "--table1-reflected"), 600, 201,
        4.25, 0.0, (4.313, 0.072)),
    Row("table2_stopped", ("estimate", "--table2-stopped"), 600, 202,
        0.1953364483, 0.0, (0.195, 0.003)),
    Row("table2_reflected", ("estimate", "--table2-reflected"), 600, 203,
        0.1189747047, 0.0, (0.117, 0.003)),
    # criterion 8: the Girsanov weights keep total mass 1
    Row("drift_reflected_mass",
        ("estimate",) + T1 + ("--mode", "reflected", "--func", "constant_1",
                              "--drift", "0.3,-0.2", "--eps", "0.03"),
        600, 802, 1.0),
)
# criterion 7: exact mode, capped; the histogram must overflow
FOLD_ROW = Row("exact_folds", ("folds",) + T1 + ("--eps", "0", "--fold-cap", "150"),
               1000, 702)
# The converged values 2.90 / 3.84 are known to about +-0.05 (README); the
# tabulated 0.600 / 0.709 are not reproducible and only reported. Every row
# runs at least two paths a round, so each round has a finite half-width;
# stopped paths are shorter and their lengths random, so that row runs more.
EULER_ROWS = (
    Row("table3_stopped", ("ito", "--table3-stopped"), 6, 301, 2.90, 0.05,
        (0.600, 0.005)),
    Row("table3_reflected", ("ito", "--table3-reflected"), 2, 302, 3.84, 0.05,
        (0.709, 0.009)),
)
EULER_PAPER_N = 500
EULER_STEPS = 5000  # the presets' grid


def row_seed(acc_seed, seed, round_index):
    return acc_seed + 1000 * seed + 10 ** 9 * round_index


def run_row(row, seed, round_index, tracer=None, workers=1):
    """Run one row through the CLI; returns (csv bytes, wall seconds)."""
    argv = list(row.argv) + ["--n", str(row.n), "--seed",
                             str(row_seed(row.acc_seed, seed, round_index))]
    if workers != 1:
        argv += ["--workers", str(workers)]
    run_cli = cli.run_cli if tracer is None else tracer.wrap("bench.cli", cli.run_cli)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    wall = time.perf_counter() - t0
    if code != 0:
        raise OpFailed(f"{row.name}: exit code {code}: {err.getvalue().strip()}")
    return out.getvalue().encode(), wall


def _estimate_fields(csv_bytes):
    header, line = csv_bytes.decode().strip().split("\n")
    return {k: v for k, v in zip(header.split(","), line.split(","))}


def digest(data):
    return hashlib.sha256(data).hexdigest()


def _pool(records):
    """Pooled estimate and standard error over rounds of one row."""
    n = sum(r["n_used"] for r in records)
    mean = sum(r["estimate"] * r["n_used"] for r in records) / n
    var_of_sum = sum((r["half_width"] / 1.96) ** 2 * r["n_used"] ** 2
                     for r in records)
    return mean, math.sqrt(var_of_sum) / n


def _gate(row, records):
    """Check a row's pooled estimate; returns (failure or None, report). A
    row whose standard error is not finite (a round of one path) fails."""
    mean, se = _pool(records)
    report = {"row": row.name, "n": sum(r["n_used"] for r in records),
              "estimate": mean, "se": se, "reference": row.exact}
    failure = None
    if not math.isfinite(se):
        failure = f"{row.name}: standard error {se} is not finite"
    elif not abs(mean - row.exact) <= Z_GATE * se + row.ref_tol:
        failure = (f"{row.name}: estimate {mean:.5f} +- {se:.5f} (1 s.e.) is "
                   f"more than {Z_GATE} s.e. from {row.exact}")
    if row.tabulated is not None:
        ref, ref_hw = row.tabulated
        report["tabulated"] = ref
        report["tabulated_gap_se"] = (mean - ref) / se
        report["tabulated_ci_overlap"] = abs(mean - ref) <= 1.96 * se + ref_hw
    return failure, report


class _Sampled:
    """Shared round/check logic of the two CLI-row workloads."""

    rows = ()
    unit = ""

    def build(self, seed):
        parser = cli.build_parser()
        for row in self.rows:
            parser.parse_args(list(row.argv) + ["--n", str(row.n), "--seed",
                                                str(row_seed(row.acc_seed, seed, 0))])
        return {"seed": seed}

    def round(self, inputs, k, tracer=None):
        ops = []
        before = calib.calibration_s()
        for row in self.rows:
            csv, wall = run_row(row, inputs["seed"], k, tracer)
            after = calib.calibration_s()
            ops.append(dict(self._record(row, inputs["seed"], k, csv, wall),
                            calib_s=(before + after) / 2.0))
            before = after
        return ops

    def _record(self, row, seed, k, csv, wall):
        fields = _estimate_fields(csv)
        n_faults = int(fields["n_faults"])
        n_used = row.n - n_faults
        return {"row": row.name, "seed": row_seed(row.acc_seed, seed, k),
                "round": k, "sha256": digest(csv), "wall_s": wall,
                "estimate": float(fields["estimate"]),
                "half_width": float(fields["half_width"]),
                "n_faults": n_faults, "n_used": n_used,
                "units": self._units(row, fields, n_used)}

    def check(self, rounds):
        failures, reports = [], []
        for row in self.rows:
            if row.exact is None:
                continue
            records = [op for ops in rounds for op in ops if op["row"] == row.name]
            failure, report = _gate(row, records)
            reports.append(report)
            if failure:
                failures.append(failure)
        for ops in rounds:
            failures += [f for op in ops for f in self._op_failures(op)]
        return failures, reports

    def operations(self, rounds):
        """One operation per CLI row run."""
        return sum(len(ops) for ops in rounds)

    def summary(self, rounds):
        return None

    def _op_failures(self, op):
        if op["n_faults"]:
            yield f"{op['row']} seed {op['seed']}: {op['n_faults']} faulted paths"

    def figures(self, rounds, scale=speed_factor):
        per_round_rate = [sum(op["units"] for op in ops) /
                          sum(scale(op) * op["wall_s"] for op in ops)
                          for ops in rounds]
        unit_us = [1e6 * scale(op) * op["wall_s"] / op["units"]
                   for ops in rounds for op in ops]
        return {"units_per_s": statistics.median(per_round_rate),
                "unit_us_p50": statistics.median(unit_us),
                "time_to_accuracy_s": self._time_to_accuracy(rounds, scale)}


class PublishedRows(_Sampled):
    name = "published_rows"
    rows = PUBLISHED_ROWS + (FOLD_ROW,)
    unit = "sample paths"
    workers_row = PUBLISHED_ROWS[4]  # table1_reflected

    def _units(self, row, fields, n_used):
        return row.n

    def _record(self, row, seed, k, csv, wall):
        if row is not FOLD_ROW:
            return super()._record(row, seed, k, csv, wall)
        lines = csv.decode().strip().split("\n")[1:]
        counts = dict(line.split(",") for line in lines)
        overflow = int(counts.pop("overflow"))
        return {"row": row.name, "seed": row_seed(row.acc_seed, seed, k),
                "round": k, "sha256": digest(csv), "wall_s": wall,
                "histogram_total": sum(int(c) for c in counts.values()),
                "overflow": overflow, "units": row.n}

    def _op_failures(self, op):
        if op["row"] != FOLD_ROW.name:
            yield from super()._op_failures(op)
        elif not (op["overflow"] > 0
                  and op["histogram_total"] + op["overflow"] == FOLD_ROW.n):
            yield (f"{FOLD_ROW.name} seed {op['seed']}: overflow {op['overflow']}, "
                   f"histogram total {op['histogram_total']} of {FOLD_ROW.n}")

    def _time_to_accuracy(self, rounds, scale):
        """Projected time for Tables 1-2 at the paper's CI half-widths: the
        sum over tabulated rows of wall * (hw / tabulated hw)^2, each row's
        term a median over rounds (the exit and tau rows have heavy tails,
        so a pooled variance would be dominated by single paths)."""
        total = 0.0
        for row in PUBLISHED_ROWS:
            if row.tabulated is None:
                continue
            total += statistics.median(
                scale(op) * op["wall_s"] * (op["half_width"] / row.tabulated[1]) ** 2
                for ops in rounds for op in ops if op["row"] == row.name)
        return total


class EulerRows(_Sampled):
    name = "euler_rows"
    rows = EULER_ROWS
    workers_row = EULER_ROWS[1]  # table3_reflected
    unit = "Euler sample paths on the 5000-step grid"

    def _units(self, row, fields, n_used):
        return n_used

    def figures(self, rounds, scale=speed_factor):
        """Grid cells per second of the reflected row over the run and the
        median over rounds of its us per path: its paths all run every
        cell, while a stopped path ends at its first boundary hit, so its
        length is random. The projected time for both rows at the paper's
        n = 500 takes each row's time per path as a median over rounds."""
        path_s = {row.name: [scale(op) * op["wall_s"] / op["n_used"]
                             for ops in rounds for op in ops
                             if op["row"] == row.name]
                  for row in self.rows}
        reflected = [op for ops in rounds for op in ops
                     if op["row"] == EULER_ROWS[1].name]
        return {"units_per_s": EULER_STEPS * sum(op["n_used"] for op in reflected) /
                               sum(scale(op) * op["wall_s"] for op in reflected),
                "unit_us_p50": 1e6 * statistics.median(path_s[EULER_ROWS[1].name]),
                "time_to_accuracy_s": EULER_PAPER_N * sum(
                    statistics.median(v) for v in path_s.values())}


# ---------------------------------------------------------------------------
# density grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    label: str
    wedge: WedgeSpec
    start: PolarPoint
    t: float
    killed: bool
    size: int


DENSITY_TIMES = (1.0, 0.1, 0.01)
# The pi/3 image grids are finer, so that two thirds of the evaluations are
# image sums: unit_us_p50 then follows the cheap image path, while the time
# of a round follows the series. The series checks the images on every
# other row and column of the finer grid.
SERIES_GRID = 10
IMAGE_GRID = 20
SMALL_T = 1e-4
# Series and image sums must agree to AGREE_REL relative, with an absolute
# slack of the series' certified accuracy: it truncates at 1e-12 of its
# leading term, about 1e-12 of the free kernel's peak 1/(2 pi t). At
# t = 0.01 that is what separates them where the density is 1e-6 of the
# peak, and where the series returns 0 and the images 1e-15.
AGREE_REL = 1e-8
AGREE_ABS = 1e-12


def _band(t):
    return "%g" % t


def _density_grids():
    wide = WedgeSpec(0.0, 0.9)
    wide_start = PolarPoint(1.5, 0.3)
    third = WedgeSpec(0.0, math.pi / 3.0)
    third_start = PolarPoint.from_cartesian(1.5, 0.3)
    grids = []
    for wedge, start, tag, size in ((wide, wide_start, "0.9", SERIES_GRID),
                                    (third, third_start, "pi/3", IMAGE_GRID)):
        for t in DENSITY_TIMES:
            for killed in (True, False):
                kind = "killed" if killed else "reflected"
                grids.append(Grid(f"{tag}/{kind}/t={_band(t)}", wedge, start, t,
                                  killed, size))
    return grids


def _grid_points(grid, rng):
    """The `density` command's polar cells as (row, column, point); rng None
    gives the midpoints."""
    rmax = grid.start.r + 4.0 * math.sqrt(grid.t)
    alpha = grid.wedge.opening
    n = grid.size
    pts = []
    for i in range(n):
        for j in range(n):
            u, v = (0.5, 0.5) if rng is None else (rng.random(), rng.random())
            pts.append((i, j, PolarPoint((i + u) * rmax / n, (j + v) * alpha / n)))
    return pts


def _fmt(value):
    return "%.12g" % value


def _series(grid, target):
    f = (densities.killed_density_series if grid.killed
         else densities.reflected_density_series)
    return f(grid.wedge, target, grid.start, grid.t) / target.r


def _label(tracer, band):
    """Start a new traced path for one evaluation, tagged with its band."""
    if tracer is not None:
        tracer.path += 1
        tracer.path_label[tracer.path] = band


def _images(grid, m, target):
    f = (densities.killed_density_images if grid.killed
         else densities.reflected_density_images)
    return f(m, grid.start, target, grid.t)


class DensityGrid:
    name = "density_grid"
    unit = "density evaluations"

    def build(self, seed):
        return {"seed": seed, "grids": _density_grids()}

    def round(self, inputs, k, tracer=None):
        seed = inputs["seed"]
        rng = None if seed == 0 else random.Random(f"density:{seed}:{k}")
        ops = []
        before = calib.calibration_s()
        for grid in inputs["grids"]:
            m = grid.wedge.pi_over_m()
            lines = ["r,theta,value"]
            lat_series, lat_images = array("d"), array("d")
            mismatches = nonfinite = 0
            t_grid = time.perf_counter()
            for i, j, target in _grid_points(grid, rng):
                series = None
                if m is None or (i % 2 == 0 and j % 2 == 0):
                    _label(tracer, _band(grid.t))
                    t0 = time.perf_counter()
                    series = _series(grid, target)
                    lat_series.append((time.perf_counter() - t0) * 1e6)
                    nonfinite += not math.isfinite(series)
                value = series
                if m is not None:
                    # the command's own path for pi/m openings
                    _label(tracer, "images")
                    t0 = time.perf_counter()
                    value = _images(grid, m, target)
                    lat_images.append((time.perf_counter() - t0) * 1e6)
                    nonfinite += not math.isfinite(value)
                    slack = AGREE_ABS / (2.0 * math.pi * grid.t)
                    if series is not None and \
                            not abs(value - series) <= AGREE_REL * abs(series) + slack:
                        mismatches += 1
                lines.append(f"{_fmt(target.r)},{_fmt(target.theta)},{_fmt(value)}")
            csv = ("\n".join(lines) + "\n").encode()
            wall = time.perf_counter() - t_grid
            after = calib.calibration_s()
            ops.append({"grid": grid.label, "round": k, "seed": seed,
                        "sha256": digest(csv), "wall_s": wall,
                        "band": _band(grid.t), "lat_series": lat_series,
                        "lat_images": lat_images,
                        "units": len(lat_series) + len(lat_images),
                        "calib_s": (before + after) / 2.0,
                        "mismatches": mismatches, "nonfinite": nonfinite})
            before = after
        return ops

    def small_t_probe(self, tracer):
        """All 18 series evaluations at t = 1e-4 around the 0.9 wedge's
        start, for the traced run only: they raise SeriesCapExceeded today
        (about 5 ms each). Returns the number that raised."""
        start = PolarPoint(1.5, 0.3)
        wedge = WedgeSpec(0.0, 0.9)
        step = 2.0 * math.sqrt(SMALL_T)
        caps = 0
        for dr in (-step, 0.0, step):
            for dth in (-step / start.r, 0.0, step / start.r):
                for killed in (True, False):
                    grid = Grid("small-t", wedge, start, SMALL_T, killed, 1)
                    _label(tracer, _band(SMALL_T))
                    try:
                        _series(grid, PolarPoint(start.r + dr, start.theta + dth))
                    except SeriesCapExceeded:
                        caps += 1
        return caps

    def operations(self, rounds):
        """One operation per density evaluation."""
        return sum(op["units"] for ops in rounds for op in ops)

    def summary(self, rounds):
        """Evaluation count and latency quantiles (raw us) per t band."""
        by_band = {}
        for ops in rounds:
            for op in ops:
                by_band.setdefault(op["band"], []).extend(op["lat_series"])
                by_band.setdefault("images", []).extend(op["lat_images"])
        return {band: {"count": len(lat), "p50_us": statistics.median(lat),
                       "p99_us": statistics.quantiles(lat, n=100)[98]}
                for band, lat in sorted(by_band.items())}

    def check(self, rounds):
        failures = []
        for ops in rounds:
            for op in ops:
                if op["mismatches"] or op["nonfinite"]:
                    failures.append(
                        f"{op['grid']} round {op['round']}: {op['mismatches']} "
                        f"series/image mismatches, {op['nonfinite']} non-finite")
        return failures, []

    def figures(self, rounds, scale=speed_factor):
        walls = [sum(scale(op) * op["wall_s"] for op in ops) for ops in rounds]
        lat = [scale(op) * x for ops in rounds for op in ops
               for x in op["lat_series"] + op["lat_images"]]
        return {"units_per_s": statistics.median(
                    sum(op["units"] for op in ops) / w for w, ops in zip(walls, rounds)),
                "unit_us_p50": statistics.median(lat),
                "time_to_accuracy_s": statistics.median(walls)}


WORKLOADS = {w.name: w for w in (PublishedRows(), EulerRows(), DensityGrid())}
