"""In-memory tracing of wedgebm's public functions for the per-layer run.

`Tracer` replaces each traced function at every module attribute that binds
it -- the name a caller looks up at call time, so `wedgebm.montecarlo.
algorithm_reflected` and `wedgebm.drift.algorithm_reflected` are both
wrapped -- and each traced method at its class. Three kinds of wrapper:

* span: one record per call -- name, start, end, parent span, path id;
* timed: call count and total time, keyed by (name, enclosing span name),
  for small functions called many times per pass;
* counted: call count only, keyed the same way (the random draws).

Wrappers read arguments and results and nothing else, so a traced run
consumes exactly the draws of an untraced one. `uninstall` puts every
original object back; `restored()` checks that it did.
"""

import time
from array import array
from collections import defaultdict

import numpy as np

import wedgebm
from wedgebm import (bessel, cli, corner, densities, drift, geometry,
                     montecarlo, rng, samplers)
from wedgebm.samplers import FoldCapExceeded

MODULES = (wedgebm, cli, montecarlo, drift, samplers, corner, densities,
           bessel, geometry, rng)

SPAN_FUNCS = {
    "estimate": "montecarlo.estimate",
    "folding_stats": "montecarlo.folding_stats",
    "algorithm_stopped": "samplers.algorithm_stopped",
    "algorithm_reflected": "samplers.algorithm_reflected",
    "sample_exit_side": "samplers.exit_side",
    "sample_exit_radius": "samplers.exit_radius",
    "sample_exit_time": "samplers.exit_time",
    "sample_survivor": "samplers.survivor",
    "sample_reflected_from_origin": "samplers.reflected_from_origin",
    "sample_corner": "corner.sample",
    "stopped_with_drift": "drift.stopped_with_drift",
    "reflected_with_drift": "drift.reflected_with_drift",
    "euler_stopped": "drift.euler",
    "euler_reflected": "drift.euler",
    "girsanov_log_weight": "drift.girsanov",
    "girsanov_weight": "drift.girsanov",
    "killed_density_series": "densities.series",
    "reflected_density_series": "densities.series",
    "killed_density_images": "densities.images",
    "reflected_density_images": "densities.images",
    "series_tail_cutoff": "bessel.series_tail_cutoff",
}
TIMED_FUNCS = {
    "log_bessel_i": "bessel.log_bessel_i",
    "fold_into_wedge": "geometry.fold",
    "sample_reference_radius": "corner.reference_radius",
}
SPAN_METHODS = {
    (rng.RngStream, "__init__"): "rng.init",
    (rng.RngStream, "derive"): "rng.derive",
    (densities.ExitLawParams, "for_side"): "densities.exit_law_params",
}
TIMED_METHODS = {
    (geometry.WedgeSpec, "pi_over_m"): "geometry.pi_over_m",
}
COUNTED_METHODS = {
    (rng.RngStream, "uniform"): "rng.uniform",
    (rng.RngStream, "normal"): "rng.normal",
    (rng.RngStream, "exponential"): "rng.exponential",
}
PATH_SAMPLERS = ("samplers.algorithm_stopped", "samplers.algorithm_reflected")
SERIES_BANDS = ("1", "0.1", "0.01", "0.0001")

# name -> (unit, better, the end-to-end metric it should move and where)
LAYER_METRICS = {
    "rng.derive_us": ("us", "lower", "units_per_s on published_rows"),
    "rng.derive_calls": ("count", "lower", "units_per_s on published_rows"),
    "rng.draws_per_path": ("count", "lower", "units_per_s on published_rows"),
    "samplers.stopped_path_us": ("us", "lower", "units_per_s, time_to_accuracy_s on published_rows"),
    "samplers.reflected_path_us": ("us", "lower", "units_per_s, time_to_accuracy_s on published_rows"),
    "samplers.passes_per_path": ("count", "lower", "units_per_s, time_to_accuracy_s on published_rows"),
    "samplers.exit_side_us": ("us", "lower", "units_per_s on published_rows and euler_rows"),
    "samplers.exit_radius_us": ("us", "lower", "units_per_s on published_rows and euler_rows"),
    "samplers.exit_time_us": ("us", "lower", "units_per_s on published_rows and euler_rows"),
    "samplers.survivor_us": ("us", "lower", "units_per_s on published_rows far more than on euler_rows"),
    "samplers.exit_time_acceptance": ("fraction", "higher", "units_per_s on published_rows and euler_rows"),
    "samplers.survivor_acceptance": ("fraction", "higher", "units_per_s on published_rows far more than on euler_rows"),
    "corner.hit_fraction": ("fraction", "higher", "units_per_s on published_rows (reflected rows)"),
    "corner.sample_us": ("us", "lower", "units_per_s on published_rows (reflected rows)"),
    "corner.acceptance": ("fraction", "higher", "units_per_s on published_rows (reflected rows)"),
    "geometry.fold_calls_per_path": ("count", "lower", "units_per_s on published_rows and euler_rows"),
    "geometry.fold_us": ("us", "lower", "units_per_s on published_rows and euler_rows"),
    "geometry.pi_over_m_calls_per_path": ("count", "lower", "units_per_s on published_rows and euler_rows"),
    "densities.exit_law_params_us": ("us", "lower", "units_per_s on published_rows and euler_rows"),
    "densities.series_us_t1": ("us", "lower", "units_per_s, time_to_accuracy_s on density_grid"),
    "densities.series_us_t0.1": ("us", "lower", "units_per_s, time_to_accuracy_s on density_grid"),
    "densities.series_us_t0.01": ("us", "lower", "units_per_s, time_to_accuracy_s on density_grid"),
    "densities.series_us_t0.0001": ("us", "lower", "none yet: the t = 1e-4 band is probed in traced runs only"),
    "densities.images_us": ("us", "lower", "unit_us_p50 on density_grid"),
    "densities.eval_us_p99": ("us", "lower", "units_per_s, time_to_accuracy_s on density_grid"),
    "densities.small_t_cap_exceeded": ("count", "lower", "none yet: the t = 1e-4 band is probed in traced runs only"),
    "bessel.log_bessel_i_us": ("us", "lower", "units_per_s on density_grid"),
    "bessel.calls_per_series_eval": ("count", "lower", "units_per_s on density_grid"),
    "drift.cell_us": ("us", "lower", "units_per_s, time_to_accuracy_s on euler_rows"),
    "drift.subpath_us": ("us", "lower", "units_per_s, time_to_accuracy_s on euler_rows"),
    "drift.cells_per_path": ("count", "lower", "time_to_accuracy_s on euler_rows"),
    "drift.girsanov_us": ("us", "lower", "units_per_s on euler_rows"),
    "montecarlo.dispatch_us_per_path": ("us", "lower", "units_per_s on published_rows"),
    "montecarlo.fold_cap_faults": ("count", "lower", "none: a count of capped exact-mode paths, not an error"),
    "montecarlo.workers2_speedup": ("ratio", "higher", "none while runs use one worker"),
    "cli.overhead_s": ("s", "lower", "units_per_s on published_rows and euler_rows"),
    "trace.overhead_frac": ("fraction", "lower", "none: cost of the traced run itself"),
}


class Tracer:
    """Spans and counters for one traced run; use as a context manager."""

    def __init__(self):
        self.names = ["root"]
        self._ids = {"root": 0}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_path = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # folds of a path-sampler span (its result, or the partial state of
        # a fold-cap fault); NaN for every other span
        self.span_folds = array("d")
        self.faults = array("i")  # span indices that raised FoldCapExceeded
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        # path id stamped on each span: bumped by every RngStream.derive (one
        # per sampled path) and by the benchmark per density evaluation
        self.path = 0
        self.path_label = {}  # path id -> density t band
        self._stack = [-1]
        self._stack_names = [0]
        self._patches = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        nid = self.name_id(name)
        is_path = name in PATH_SAMPLERS
        new_path = name == "rng.derive"
        span_name, span_parent, span_path = (self.span_name, self.span_parent,
                                             self.span_path)
        span_start, span_end, span_folds = (self.span_start, self.span_end,
                                            self.span_folds)
        stack, stack_names, clock = self._stack, self._stack_names, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if new_path:
                tracer.path += 1
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_path.append(tracer.path)
            span_start.append(0.0)
            span_end.append(0.0)
            span_folds.append(np.nan)
            stack.append(idx)
            stack_names.append(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except FoldCapExceeded as exc:
                if is_path:
                    span_folds[idx] = exc.partial.folds
                    tracer.faults.append(idx)
                raise
            finally:
                span_end[idx] = clock()
                span_start[idx] = t0
                stack.pop()
                stack_names.pop()
            if is_path:
                span_folds[idx] = result.folds
            return result

        return wrapper

    def _timed(self, name, fn):
        nid = self.name_id(name)
        counts, times, stack_names = self.counts, self.times, self._stack_names
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (nid, stack_names[-1])
                times[key] += clock() - t0
                counts[key] += 1

        return wrapper

    def _counted(self, name, fn):
        nid = self.name_id(name)
        counts, stack_names = self.counts, self._stack_names

        def wrapper(*args, **kwargs):
            counts[nid, stack_names[-1]] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr, kind, name):
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(kind(name, original.__func__))
        else:
            replacement = kind(name, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self):
        for table, kind in ((SPAN_FUNCS, self._span), (TIMED_FUNCS, self._timed)):
            for attr, name in table.items():
                for module in MODULES:
                    if attr in vars(module):
                        self._patch(module, attr, kind, name)
        for table, kind in ((SPAN_METHODS, self._span),
                            (TIMED_METHODS, self._timed),
                            (COUNTED_METHODS, self._counted)):
            for (owner, attr), name in table.items():
                self._patch(owner, attr, kind, name)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self):
        """True when every wrapped attribute holds its original object."""
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def wrap(self, name, fn):
        """A span-recording wrapper for a call the benchmark itself makes."""
        return self._span(name, fn)

    def arrays(self):
        """Spans as numpy arrays, plus the name table."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.span_name, dtype=np.int64),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "path": np.array(self.span_path, dtype=np.int64),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
            "folds": np.array(self.span_folds, dtype=np.float64),
            "faults": np.array(self.faults, dtype=np.int64),
        }

    def write(self, path):
        np.savez_compressed(path, **self.arrays())


def _mean(values):
    return float(values.mean()) if values.size else 0.0


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer):
    """Per-layer figures from one traced run's spans and counters. A layer
    the workload never calls reports 0 for each of its figures."""
    a = tracer.arrays()
    name, parent, path = a["name"], a["parent"], a["path"]
    dur = (a["end"] - a["start"]) * 1e6  # microseconds
    ids = tracer._ids
    has_parent = parent >= 0
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], 0)
    self_us = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(name))

    def sel(*names):
        return np.isin(name, [ids.get(n, -1) for n in names])

    def under(*names):
        return np.isin(parent_name, [ids.get(n, -1) for n in names])

    def count(counter, *parents):
        nid = ids.get(counter, -1)
        pids = {ids.get(p, -1) for p in parents}
        return sum(v for (c, p), v in tracer.counts.items()
                   if c == nid and (not parents or p in pids))

    def per_call_us(counter):
        nid = ids.get(counter, -1)
        total = sum(v for (c, _p), v in tracer.times.items() if c == nid)
        return _ratio(total * 1e6, count(counter))

    derive = sel("rng.derive")
    paths = int(derive.sum())
    draws = sum(count(n) for n in ("rng.uniform", "rng.normal", "rng.exponential"))
    euler = sel("drift.euler")
    path_sampler = sel(*PATH_SAMPLERS)
    subpath = path_sampler & under("drift.euler")
    whole = path_sampler & ~subpath
    exit_time, survivor, corner_ = (sel("samplers.exit_time"),
                                    sel("samplers.survivor"), sel("corner.sample"))
    series = sel("densities.series")
    series_bands = np.array([tracer.path_label.get(int(p), "") for p in path[series]])
    mc = sel("montecarlo.estimate", "montecarlo.folding_stats")
    cli_ops = sel("bench.cli")
    faults = a["faults"]
    top_faults = int(np.isin(parent_name[faults], [ids.get("montecarlo.estimate", -1),
                                                   ids.get("montecarlo.folding_stats", -1)]
                             ).sum()) if faults.size else 0

    out = {
        "rng.derive_us": _mean(dur[derive]),
        "rng.derive_calls": paths,
        "rng.draws_per_path": _ratio(draws, paths),
        "samplers.stopped_path_us": _mean(dur[whole & sel(PATH_SAMPLERS[0])]),
        "samplers.reflected_path_us": _mean(dur[whole & sel(PATH_SAMPLERS[1])]),
        "samplers.passes_per_path": _mean(a["folds"][whole]),
        "samplers.exit_side_us": _mean(dur[sel("samplers.exit_side")]),
        "samplers.exit_radius_us": _mean(dur[sel("samplers.exit_radius")]),
        "samplers.exit_time_us": _mean(dur[exit_time]),
        "samplers.survivor_us": _mean(dur[survivor]),
        # one exponential draw per exit-time proposal, two normals per
        # survivor proposal
        "samplers.exit_time_acceptance": _ratio(
            exit_time.sum(), count("rng.exponential", "samplers.exit_time")),
        "samplers.survivor_acceptance": _ratio(
            2 * survivor.sum(), count("rng.normal", "samplers.survivor")),
        "corner.hit_fraction": _ratio(corner_.sum(), sel(PATH_SAMPLERS[1]).sum()),
        "corner.sample_us": _mean(dur[corner_]),
        "corner.acceptance": _ratio(
            corner_.sum(), count("corner.reference_radius", "corner.sample")),
        "geometry.fold_calls_per_path": _ratio(count("geometry.fold"), paths),
        "geometry.fold_us": per_call_us("geometry.fold"),
        "geometry.pi_over_m_calls_per_path": _ratio(count("geometry.pi_over_m"), paths),
        "densities.exit_law_params_us": _mean(dur[sel("densities.exit_law_params")]),
        "densities.images_us": _mean(dur[sel("densities.images")]),
        "bessel.log_bessel_i_us": per_call_us("bessel.log_bessel_i"),
        "bessel.calls_per_series_eval": _ratio(
            count("bessel.log_bessel_i", "densities.series", "bessel.series_tail_cutoff"),
            series.sum()),
        "drift.cell_us": _ratio(dur[euler].sum() - dur[subpath].sum(), subpath.sum()),
        "drift.subpath_us": _mean(dur[subpath]),
        "drift.cells_per_path": _ratio(subpath.sum(), euler.sum()),
        "drift.girsanov_us": _mean(dur[sel("drift.girsanov")]),
        "montecarlo.dispatch_us_per_path": _ratio(self_us[mc].sum(), paths),
        "montecarlo.fold_cap_faults": top_faults,
        "cli.overhead_s": _ratio(self_us[cli_ops].sum() / 1e6, cli_ops.sum()),
    }
    for band in SERIES_BANDS:
        out[f"densities.series_us_t{band}"] = _mean(dur[series][series_bands == band])
    return out
