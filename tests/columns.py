"""The path engines' column records read back as one object per path.

`lanes.stopped_paths`, `lanes.reflected_paths`, `drift.euler_paths` and
`montecarlo.map_paths` return a `PathColumns` record. The tests compare
paths one by one, against the scalar recursions and against digests
recorded from the `PathSample` objects the engines once made, so these
helpers rebuild those objects from the columns: a path with a NaN driving
endpoint (an Euler path, a fault) has driving_endpoint None.
"""

import math

from wedgebm.geometry import PolarPoint
from wedgebm.samplers import PathSample


def pairs(paths):
    """[(PathSample, faulted)] of the paths of a column record, in index
    order."""
    out = []
    for r, theta, elapsed, hit, folds, faulted, approx, weight, dx, dy in zip(
            *(column.tolist() for column in (
                paths.r, paths.theta, paths.elapsed, paths.hit, paths.folds,
                paths.faulted, paths.approx, paths.weight, *paths.driving))):
        driving = None if math.isnan(dx) else (dx, dy)
        out.append((PathSample(endpoint=PolarPoint(r, theta), elapsed=elapsed,
                               hit_boundary=hit, folds=folds, weight=weight,
                               approx_used=approx, driving_endpoint=driving),
                    faulted))
    return out


def samples(paths):
    """The PathSamples of a column record, in index order, none of them
    faulted."""
    rows = pairs(paths)
    assert not any(faulted for _sample, faulted in rows)
    return [sample for sample, _faulted in rows]


def sample_rows(paths):
    """[(vars(sample), faulted, (x, y))] of the paths of `map_paths`'
    columns, (x, y) the endpoint in the input frame."""
    return [(vars(sample), faulted, xy) for (sample, faulted), xy in
            zip(pairs(paths), zip(paths.x.tolist(), paths.y.tolist()))]
