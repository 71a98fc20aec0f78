"""wedgebm benchmark: one workload per process, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed. The process is single-threaded: rows run
with one worker and the numeric libraries are held to one thread.

--trace 0 times the workload untraced and prints the end-to-end metrics.
--trace 1 first runs three rounds untraced, then wraps wedgebm's public
functions (see tracer.py), repeats rounds for the rest of the time and
prints the per-layer metrics; the traced round 0 must reproduce the
untraced round 0 byte for byte. Either way the outputs pass the correctness
gate of workloads.py, the last stdout line is one JSON object, a full
record (row digests with their seeds, gate reports, environment, the
figures before speed calibration) is written under .perfbench_out/, and
the exit code is 0 only if every check passed.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# before numpy is imported anywhere: one thread for the numeric libraries
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# untraced rounds a traced run measures first: round 0 must come out byte
# for byte the same traced, and their median cost per unit is the base of
# trace.overhead_frac
REFERENCE_ROUNDS = 3
WORKLOAD_NAMES = ("published_rows", "euler_rows", "density_grid")
SEED_MODULUS = 10 ** 6

E2E_METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "units_per_s": "1/s",
    "unit_us_p50": "us",
    "time_to_accuracy_s": "s",
}

# The setup a user pays once per process: import the package and build the
# workload's configuration. Timed in fresh interpreters, bracketed by speed
# calibrations like every other end-to-end time (see calib.py).
SETUP_SNIPPET = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import calib
before = calib.calibration_s()
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[{name!r}].build({seed!r})
setup = time.perf_counter() - t0
after = calib.calibration_s()
print(setup, setup * calib.speed_factor((before + after) / 2.0))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0,
                   help="input seed, any integer, taken modulo 10^6; "
                        "0 uses the acceptance suite's seeds")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measure for this long (at least one round runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # row seeds are acceptance seed + 1000 s + 10^9 k (workloads.py): s
    # below 10^6 keeps the rounds of a run on distinct streams
    args.seed %= SEED_MODULUS
    if not args.seconds >= 0:
        p.error("--seconds must be nonnegative")
    return args


def measure_setup(name, seed):
    """Median setup time over fresh interpreters: (raw, calibrated)."""
    code = SETUP_SNIPPET.format(src=str(SRC), bench=str(BENCH_DIR), name=name,
                                seed=seed)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed: {proc.stderr.strip()}")
        r, s = map(float, proc.stdout.split())
        raw.append(r)
        scaled.append(s)
    return statistics.median(raw), statistics.median(scaled)


def environment():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_rounds(workload, inputs, seconds, tracer=None):
    """Repeat rounds until `seconds` have passed (at least one)."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        rounds.append(workload.round(inputs, len(rounds), tracer))
        if time.perf_counter() - t_start >= seconds:
            return rounds


def digests(ops):
    return [op["sha256"] for op in ops]


def unit_time(ops):
    """A round's time per unit of work, at the reference speed (calib.py)."""
    import workloads as wl
    return (sum(wl.speed_factor(op) * op["wall_s"] for op in ops) /
            sum(op["units"] for op in ops))


def traced_run(workload, inputs, seconds):
    """Per-layer figures; returns (rounds, metrics, failures)."""
    from tracer import Tracer, layer_metrics
    import workloads as wl

    failures = []
    t_start = time.perf_counter()
    reference = [workload.round(inputs, k) for k in range(REFERENCE_ROUNDS)]
    tracer = Tracer()
    with tracer:
        # the untraced rounds count against the run's time
        rounds = run_rounds(workload, inputs,
                            seconds - (time.perf_counter() - t_start), tracer)
        probe = getattr(workload, "small_t_probe", None)
        small_t_caps = probe(tracer) if probe is not None else 0
    if not tracer.restored():
        failures.append("tracer left a wrapper installed")
    if digests(rounds[0]) != digests(reference[0]):
        failures.append("traced round 0 differs from the untraced round 0")
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (
        statistics.median(map(unit_time, rounds)) /
        statistics.median(map(unit_time, reference)) - 1.0)
    metrics["densities.small_t_cap_exceeded"] = small_t_caps
    lat = [x for ops in reference for op in ops
           for x in op.get("lat_series", ()) + op.get("lat_images", ())]
    metrics["densities.eval_us_p99"] = (statistics.quantiles(lat, n=100)[98]
                                       if len(lat) >= 100 else 0.0)
    speedup = 0.0
    row = getattr(workload, "workers_row", None)
    if row is not None:
        # one reflected row on one worker and on two: same CSV, speed-up
        csv1, wall1 = wl.run_row(row, inputs["seed"], 0)
        csv2, wall2 = wl.run_row(row, inputs["seed"], 0, workers=2)
        speedup = wall1 / wall2
        if csv1 != csv2:
            failures.append(f"{row.name}: two workers changed the CSV")
    metrics["montecarlo.workers2_speedup"] = speedup
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans_{workload.name}.npz")
    return rounds, metrics, failures


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "wedgebm" / "__init__.py").is_file():
        print(f"perfbench: no wedgebm sources under {SRC}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    raw_setup_s, setup_s = (measure_setup(args.workload, args.seed)
                            if args.trace == 0 else (None, None))

    import wedgebm
    import workloads as wl
    if Path(wedgebm.__file__).resolve().parent != SRC / "wedgebm":
        print(f"perfbench: imported wedgebm from {wedgebm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)

    failures = []
    try:
        if args.trace:
            rounds, metrics, failures = traced_run(workload, inputs, args.seconds)
        else:
            rounds = run_rounds(workload, inputs, args.seconds)
    except Exception:  # any failed operation ends the run as incorrect
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    gate_failures, reports = workload.check(rounds)
    failures += gate_failures
    if not args.trace:
        metrics = workload.figures(rounds)
        metrics["setup_s"] = setup_s
        raw_metrics = dict(workload.figures(rounds, scale=wl.unscaled),
                           setup_s=raw_setup_s)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024.0)
    attempted = workload.operations(rounds)
    failed = len(failures)

    if args.trace:
        from tracer import LAYER_METRICS
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
    else:
        units = E2E_METRICS
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    env = environment()
    env["trace_overhead_frac"] = metrics["trace.overhead_frac"] if args.trace else None
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "rounds": len(rounds),
              "raw_metrics": None if args.trace else raw_metrics,
              "work_unit": workload.unit,
              "rows": [{k: v for k, v in op.items() if not k.startswith("lat_")}
                       for ops in rounds for op in ops],
              "gate": reports, "failures": failures,
              "summary": workload.summary(rounds), "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, environment {json.dumps(record['environment'])}")
    for report in reports:
        print("gate " + json.dumps(report))
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"record written to {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
