import math
import re
import sys

import numpy as np
import pytest

from wedgebm import drift as drift_module
from wedgebm import samplers
from wedgebm.drift import (check_grid, euler_paths, girsanov_log_weight,
                           linear_field)
from wedgebm.geometry import (ANGLE_TOL, TWO_PI, PolarPoint, WedgeSpec,
                              mat_vec, standard_frame)
from wedgebm.montecarlo import EstimatorConfig, Mode, TestFunction, map_paths
from wedgebm.rng import RngStream
from wedgebm.samplers import (APEX_RADIUS_FLOOR, DEFAULT_EPSILON,
                              DEFAULT_FOLD_CAP, _image_sum_arrays, _pass_plan,
                              _plain_cells, _sure_survivors,
                              algorithm_reflected, algorithm_stopped)

from columns import pairs, sample_rows, samples

W09 = WedgeSpec(0.0, 0.9)
START = PolarPoint(1.5, 0.3)
QUARTER = WedgeSpec(0.0, math.pi / 2)


def drifted_paths(mode, start, drift, T, wedge, seed, n, **kwargs):
    """The samples of n exact paths under constant drift, path i drawn from
    RngStream(seed).derive(i) and weighted by its Girsanov factor."""
    config = EstimatorConfig(mode=mode, func=TestFunction.CONSTANT_1,
                             horizon=T, n_samples=n, seed=seed, wedge=wedge,
                             start=start, drift=drift, **kwargs)
    return samples(map_paths(config))


def euler_samples(field, start, steps, wedge, seed, n, reflected):
    """The samples of Euler paths 0 .. n - 1 of seed over [0, 1], none of
    them faulted."""
    return samples(euler_paths(field, start, 1.0, steps, wedge, seed,
                               range(n), reflected, DEFAULT_EPSILON,
                               DEFAULT_FOLD_CAP))


def test_girsanov_log_weight_by_hand():
    got = girsanov_log_weight((0.3, -0.2), (1.4, 1.7), 0.5, (1.0, 2.0))
    want = 0.3 * 0.4 + (-0.2) * (-0.3) - 0.5 * (0.09 + 0.04) * 0.5
    assert got == pytest.approx(want, rel=1e-15)


def test_zero_drift_weight_is_one():
    assert math.exp(girsanov_log_weight((0.0, 0.0), (5.0, -3.0), 2.0,
                                        (1.0, 2.0))) == 1.0
    for mode in (Mode.STOPPED, Mode.REFLECTED):
        samples = drifted_paths(mode, START, (0.0, 0.0), 1.0, W09, 90, 50)
        assert all(s.weight == 1.0 for s in samples)


def test_drifted_mass_is_one():
    # f = 1: the reweighted estimate must average to 1 for both samplers
    for mode in (Mode.STOPPED, Mode.REFLECTED):
        ws = [s.weight for s in
              drifted_paths(mode, START, (0.3, -0.2), 1.0, W09, 90, 3000)]
        mean = np.mean(ws)
        se = np.std(ws, ddof=1) / math.sqrt(len(ws))
        assert abs(mean - 1.0) <= 3.5 * se


def test_drifted_free_motion_recovers_gaussian_mean():
    # a wide wedge with a short horizon never touches the boundary, so the
    # weighted estimate must reproduce the drifted free endpoint mean
    wide = WedgeSpec(0.0, 6.2)
    start = PolarPoint(2.0, 3.1)
    T = 0.05
    vx, vy = [], []
    for s in drifted_paths(Mode.STOPPED, start, (0.4, -0.3), T, wide, 91, 3000):
        assert not s.hit_boundary
        x, y = s.cartesian_endpoint()
        vx.append(x * s.weight)
        vy.append(y * s.weight)
    x0, y0 = start.cartesian()
    for vals, want in ((vx, x0 + 0.4 * T), (vy, y0 - 0.3 * T)):
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(mean - want) <= 3.5 * se


def brute_quarter_stopped(x0, b, T, dt, n, seed):
    """Crude absorbed Euler walk in the quarter plane (numpy, clipped hits)."""
    gen = np.random.default_rng(seed)
    steps = int(round(T / dt))
    pos = np.tile(np.asarray(x0, float), (n, 1))
    alive = np.ones(n, bool)
    sd = math.sqrt(dt)
    bvec = np.asarray(b, float)
    for _ in range(steps):
        z = gen.standard_normal((n, 2))
        prop = pos + bvec * dt + sd * z
        prop[~alive] = pos[~alive]
        crossed = alive & ((prop[:, 0] < 0) | (prop[:, 1] < 0))
        prop[crossed] = np.maximum(prop[crossed], 0.0)
        pos = prop
        alive &= ~crossed
    return pos


def brute_quarter_reflected(x0, b, T, dt, n, seed):
    gen = np.random.default_rng(seed)
    steps = int(round(T / dt))
    pos = np.tile(np.asarray(x0, float), (n, 1))
    sd = math.sqrt(dt)
    bvec = np.asarray(b, float)
    for _ in range(steps):
        pos = pos + bvec * dt + sd * gen.standard_normal((n, 2))
        pos = np.abs(pos)
    return pos


def test_drifted_stopped_against_brute_force():
    start = PolarPoint(1.0, 0.6)
    vals = [s.cartesian_endpoint()[0] * s.weight for s in
            drifted_paths(Mode.STOPPED, start, (0.3, -0.2), 1.0, QUARTER, 92,
                          4000)]
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    brute = brute_quarter_stopped(start.cartesian(), (0.3, -0.2), 1.0,
                                  1.0 / 4000, 20000, 17)
    bvals = brute[:, 0]
    bse = bvals.std(ddof=1) / math.sqrt(len(bvals))
    # the crude walk overshoots the boundary by O(sqrt(dt)); allow for it
    assert abs(mean - bvals.mean()) <= 3.5 * (se + bse) + 0.03


def test_drifted_reflected_against_brute_force():
    start = PolarPoint(1.0, 0.6)
    vals = [s.endpoint.r ** 2 * s.weight for s in
            drifted_paths(Mode.REFLECTED, start, (0.3, -0.2), 1.0, QUARTER, 93,
                          4000)]
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    brute = brute_quarter_reflected(start.cartesian(), (0.3, -0.2), 1.0,
                                    1.0 / 4000, 20000, 18)
    bvals = (brute ** 2).sum(axis=1)
    bse = bvals.std(ddof=1) / math.sqrt(len(bvals))
    assert abs(mean - bvals.mean()) <= 3.5 * (se + bse) + 0.08


def test_reflected_corner_weight_is_mean_one():
    # r^2 / T = 0.2 < eps: every path ends in the corner draw of pass 1, so
    # the weight is the Girsanov factor of that draw's driving step alone.
    # A driving endpoint that ignores where the path sits gives
    # E[weight] = I_0(|b| r) e^{-b.x} = 0.78 here.
    start = PolarPoint(0.1, 0.45)
    ws = []
    for s in drifted_paths(Mode.REFLECTED, start, (3.0, 0.0), 0.05, W09, 94,
                           4000, epsilon=0.5):
        assert s.approx_used and s.folds == 1
        ws.append(s.weight)
    mean = np.mean(ws)
    se = np.std(ws, ddof=1) / math.sqrt(len(ws))
    assert abs(mean - 1.0) <= 4.0 * se


# ---------------------------------------------------------------------------
# weak Euler scheme with frozen coefficients
# ---------------------------------------------------------------------------

def test_time_grid_validation():
    # the grid is (horizon, steps): at least one cell and a finite horizon,
    # checked before any path is drawn, and the last cell ends exactly at
    # the horizon
    field = linear_field((0.0, 0.0), (0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
    for reflected in (False, True):
        for horizon, steps in ((1.0, 0), (math.inf, 4), (0.0, 4),
                               (math.nan, 4)):
            for indices in ([0], []):
                with pytest.raises(ValueError):
                    euler_paths(field, START, horizon, steps, W09, 1, indices,
                                reflected, DEFAULT_EPSILON, DEFAULT_FOLD_CAP)
    [(sample, faulted)] = pairs(euler_paths(field, START, 0.3, 7, W09, 1, [0],
                                            True, DEFAULT_EPSILON,
                                            DEFAULT_FOLD_CAP))
    assert sample.elapsed == 0.3 and not faulted


@pytest.mark.parametrize("horizon, steps", [
    (5e-324, 3), (1e-320, 100000), (1.0, math.inf), (1.0, 2 ** 60),
    (1e308, 3)])
def test_a_grid_whose_cells_round_to_length_0_is_refused(horizon, steps):
    # such a grid used to fail inside a cell, naming a horizon of 0.0 or
    # inf that was never given, and 2**60 cells ran for ever
    field = linear_field((0.0, 0.0), (0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match=re.escape(
            f"got T={horizon}, steps={steps}")):
        euler_paths(field, START, horizon, steps, W09, 1, [0], True,
                    DEFAULT_EPSILON, DEFAULT_FOLD_CAP)


@pytest.mark.parametrize("horizon, steps", [
    (1.0, 2 ** 51 - 1), (0.7, 2 ** 51 - 3), (3 * sys.float_info.min, 3),
    (sys.float_info.max / 5, 4), (5e-308, 2), (1.0, 1)])
def test_a_grid_that_check_grid_lets_through_has_distinct_points(horizon,
                                                                 steps):
    # the points horizon * k / steps, as the cells and blocks make them,
    # at both ends of the grid
    check_grid(horizon, steps)
    ends = (0, 1, 2, steps - 2, steps - 1)
    ks = sorted({k for k in ends if 0 <= k < steps})
    points = [horizon * k / steps for k in ks] + [horizon]
    assert all(a < b for a, b in zip(points, points[1:]))
    arrays = horizon * np.array(ks + [steps]) / steps
    assert arrays[:-1].tolist() == points[:-1] and np.isfinite(arrays).all()


def test_linear_field_values():
    field = linear_field((0.1, 0.2), (0.7, 0.5), ((1.0, 0.0), (0.0, 1.0)))
    bx, by = field.drift((1.7, 0.0))
    assert bx == pytest.approx(-0.1 * 1.0)
    assert by == pytest.approx(-0.2 * (-0.5))
    assert field.sigma == ((1.0, 0.0), (0.0, 1.0))


def test_cell_frame_identity():
    fwd, bwd, cell = standard_frame(((1.0, 0.0), (0.0, 1.0)), W09)
    assert cell.opening == pytest.approx(0.9, abs=1e-15)
    assert fwd == ((1.0, 0.0), (0.0, 1.0))
    assert bwd == ((1.0, 0.0), (0.0, 1.0))


def test_cell_frame_maps_rays_to_cell_edges():
    sigma = ((1.2, 0.4), (0.0, 0.8))
    fwd, bwd, cell = standard_frame(sigma, W09)
    for ang, want in ((0.0, 0.0), (0.9, cell.opening)):
        vx = math.cos(ang)
        vy = math.sin(ang)
        u = fwd[0][0] * vx + fwd[0][1] * vy
        v = fwd[1][0] * vx + fwd[1][1] * vy
        assert math.atan2(v, u) % (2 * math.pi) == pytest.approx(
            want, abs=1e-12)
    # bwd really inverts fwd
    x = fwd[0][0] * 0.3 + fwd[0][1] * 0.1
    y = fwd[1][0] * 0.3 + fwd[1][1] * 0.1
    assert (bwd[0][0] * x + bwd[0][1] * y,
            bwd[1][0] * x + bwd[1][1] * y) == pytest.approx((0.3, 0.1))


def test_cell_frame_rejects_singular_sigma():
    with pytest.raises(ValueError):
        standard_frame(((1.0, 2.0), (0.5, 1.0)), W09)


def test_euler_driftless_is_exact_any_step_count():
    # with b = 0 and sigma = I every cell runs the exact sampler on the
    # remaining wedge, so even a 3-cell grid reproduces the closed forms
    field = linear_field((0.0, 0.0), (0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
    stopped_diffs = []
    for s in euler_samples(field, START, 3, W09, 94, 3000, False):
        assert s.weight == 1.0
        stopped_diffs.append(s.endpoint.r ** 2 - 2.0 * s.elapsed)
    mean = np.mean(stopped_diffs)
    se = np.std(stopped_diffs, ddof=1) / math.sqrt(len(stopped_diffs))
    assert abs(mean - START.r ** 2) <= 3.5 * se

    refl = []
    for s in euler_samples(field, START, 3, W09, 95, 3000, True):
        assert s.elapsed == 1.0
        refl.append(s.endpoint.r ** 2)
    mean = np.mean(refl)
    se = np.std(refl, ddof=1) / math.sqrt(len(refl))
    assert abs(mean - (START.r ** 2 + 2.0)) <= 3.5 * se


def test_euler_scaled_diffusion_reflected():
    # sigma = c I is a deterministic time change: E[|X_T|^2] = r0^2 + 2 c^2 T
    c = 0.7
    field = linear_field((0.0, 0.0), (0.0, 0.0), ((c, 0.0), (0.0, c)))
    vals = [s.endpoint.r ** 2
            for s in euler_samples(field, START, 4, W09, 96, 3000, True)]
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - (START.r ** 2 + 2.0 * c * c)) <= 3.5 * se


def test_euler_general_sigma_preserves_martingale_mean():
    # X = x0 + sigma W stopped at the boundary is a vector martingale, so
    # E[X_{tau ^ T}] = x0 for any constant sigma; exercises the cell frames
    sigma = ((1.2, 0.4), (0.0, 0.8))
    field = linear_field((0.0, 0.0), (0.0, 0.0), sigma)
    xs, ys = [], []
    for s in euler_samples(field, START, 3, W09, 97, 4000, False):
        x, y = s.cartesian_endpoint()
        xs.append(x)
        ys.append(y)
    x0, y0 = START.cartesian()
    for vals, want in ((xs, x0), (ys, y0)):
        mean = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(mean - want) <= 3.5 * se


def test_euler_ou_against_brute_force():
    mu = (0.1, 0.2)
    kappa = (0.7, 0.5)
    field = linear_field(mu, kappa, ((1.0, 0.0), (0.0, 1.0)))
    start = PolarPoint(1.0, 0.6)
    vals = [(s.endpoint.r ** 2) * s.weight
            for s in euler_samples(field, start, 50, QUARTER, 98, 3000, False)]
    mean = np.mean(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))

    gen = np.random.default_rng(55)
    n, dt = 20000, 1.0 / 4000
    pos = np.tile(np.asarray(start.cartesian()), (n, 1))
    alive = np.ones(n, bool)
    mu_v = np.asarray(mu)
    ka_v = np.asarray(kappa)
    for _ in range(4000):
        step = -mu_v * (pos - ka_v) * dt + math.sqrt(dt) * \
            gen.standard_normal((n, 2))
        prop = np.where(alive[:, None], pos + step, pos)
        crossed = alive & ((prop[:, 0] < 0) | (prop[:, 1] < 0))
        prop[crossed] = np.maximum(prop[crossed], 0.0)
        pos = prop
        alive &= ~crossed
    bvals = (pos ** 2).sum(axis=1)
    bse = bvals.std(ddof=1) / math.sqrt(n)
    assert abs(mean - bvals.mean()) <= 3.5 * (se + bse) + 0.05


def test_euler_paths_build_one_frame_per_call(monkeypatch):
    # the frame of the field's constant sigma is built once per call,
    # whatever the paths and steps, and the plan of the cell wedge's passes
    # once per opening
    frames = []

    def counted_frame(sigma, wedge):
        frames.append(sigma)
        return standard_frame(sigma, wedge)

    monkeypatch.setattr(drift_module, "standard_frame", counted_frame)
    field = linear_field((0.1, 0.2), (0.7, 0.5), ((1.0, 0.0), (0.0, 1.0)))
    for paths in (1, 3):
        for steps in (50, 200):
            _pass_plan.cache_clear()
            frames.clear()
            euler_paths(field, START, 1.0, steps, W09, 2, range(paths), True,
                        0.01, DEFAULT_FOLD_CAP)
            assert frames == [field.sigma]
            assert _pass_plan.cache_info().misses == 1


# ---------------------------------------------------------------------------
# blocked Euler cells
# ---------------------------------------------------------------------------

def test_uniforms_are_successive_uniform_draws():
    # a block of Euler cells draws its triples in one call
    a, b = RngStream(8).derive(3), RngStream(8).derive(3)
    for k in (1, 7, 300):
        assert a.uniforms(k).tolist() == [b.uniform() for _ in range(k)]


def per_cell_plain(xs, ys, dt, u, alpha, reflected, epsilon):
    """The per-cell reference of `_plain_cells`: the arrays (plain, base)
    of every cell of the block, each cell's sums computed."""
    theta_cap = _pass_plan(alpha).theta_cap
    x0, y0, x1, y1 = xs[:-1], ys[:-1], xs[1:], ys[1:]
    r0 = np.hypot(x0, y0)
    th = np.arctan2(y0, x0) % TWO_PI
    turn = np.arctan2(x0 * y1 - y0 * x1, x0 * x1 + y0 * y1)
    base = th - theta_cap / 2.0
    if not reflected:
        base = np.minimum(np.maximum(base, 0.0), alpha - theta_cap)
    rel = th - base
    plain = ((np.abs(th - alpha / 2.0) < alpha / 2.0 - ANGLE_TOL)
             & (np.abs(rel + turn - theta_cap / 2.0) < theta_cap / 2.0)
             & (r0 > APEX_RADIUS_FLOOR))
    if reflected:
        plain &= ((np.abs(th + turn - alpha / 2.0) <= alpha / 2.0)
                  & (r0 * r0 / dt >= epsilon))
    signed, total = _image_sum_arrays(turn, rel, np.hypot(x1, y1), r0, dt,
                                      alpha)
    return plain & (u * total <= signed), base


def reference_run(xs, ys, dt, u, alpha, reflected, epsilon):
    """`_plain_cells`'s (run, base) from the per-cell reference."""
    plain, base = per_cell_plain(xs, ys, dt, u, alpha, reflected, epsilon)
    run = int(np.argmin(plain)) if not plain.all() else len(plain)
    return run, (float(base[run]) if run < len(plain) else None)


OPENINGS = [0.9, math.pi / 3, 4.0, 0.2]


@pytest.mark.parametrize("alpha", OPENINGS)
@pytest.mark.parametrize("reflected", [True, False])
def test_a_plain_cell_ends_where_its_replayed_recursion_does(alpha, reflected):
    # a cell the block kernel calls plain must be one the exact recursion,
    # run on the same triple, ends at the free endpoint after one kept
    # survivor trial; the starts, some on a ray, and the cell lengths are
    # spread so that both kinds of cell occur
    wedge = WedgeSpec(0.0, alpha)
    gen = np.random.default_rng(17)
    n = 300
    r = gen.uniform(0.01, 2.0, n)
    th = gen.uniform(0.0, alpha, n)
    th[:10] = 0.0
    dt = 10.0 ** gen.uniform(-4.0, -0.5, n)
    draws = drift_module._CellDraws(RngStream(7), n)
    triples = draws.block(0, n)
    kinds = set()
    for j in range(n):
        x0, y0 = r[j] * math.cos(th[j]), r[j] * math.sin(th[j])
        x1 = x0 + math.sqrt(dt[j]) * triples[j, 0]
        y1 = y0 + math.sqrt(dt[j]) * triples[j, 1]
        cell = (np.array([x0, x1]), np.array([y0, y1]), dt[j:j + 1],
                triples[j:j + 1, 2], alpha, reflected, 0.01)
        run, base = _plain_cells(*cell)
        # a plain cell's base is not returned: take the reference's
        [plain], [ref_base] = per_cell_plain(*cell)
        assert run == plain
        assert base == (None if plain else ref_base)
        draws.replay(j, ref_base)
        start = wedge.place(PolarPoint.from_cartesian(x0, y0))
        if reflected:
            sample = algorithm_reflected(start, dt[j], wedge, draws,
                                         epsilon=0.01)
        else:
            sample = algorithm_stopped(start, dt[j], wedge, draws)
        kinds.add(bool(plain))
        if plain:
            assert sample.folds == 1
            assert not (sample.hit_boundary or sample.approx_used)
            assert sample.cartesian_endpoint() == pytest.approx((x1, y1),
                                                                abs=1e-12)
    assert kinds == {True, False}


def random_block(gen, alpha, n):
    """(xs, ys, dt, u) of a block of n cells from a random start, each
    endpoint its start plus sqrt(dt) times two normals, with up to two
    points replaced by an apex, near-ray, on-ray, huge or NaN one."""
    dt = 10.0 ** gen.uniform(-7.0, -2.0, n)
    r, th = 10.0 ** gen.uniform(-2.0, 1.0), gen.uniform(0.0, alpha)
    steps = np.sqrt(dt)[:, None] * gen.standard_normal((n, 2))
    xy = np.cumsum(np.vstack(([r * math.cos(th), r * math.sin(th)], steps)),
                   axis=0)
    specials = [(0.0, 0.0), (1e-151, 0.5 * alpha), (1.0, 1e-9),
                (1.0, alpha - 1e-9), (2.0, 0.0), (1e160, 0.5 * alpha),
                (1e300, 0.3 * alpha), (math.nan, 0.5), (math.inf, 0.5)]
    for i in gen.integers(n + 1, size=gen.integers(3)):
        r, th = specials[gen.integers(len(specials))]
        xy[i] = (r * math.cos(th), r * math.sin(th))
    u = np.maximum(gen.uniform(size=n), 2.0 ** -54)
    return xy[:, 0], xy[:, 1], dt, u


@pytest.mark.parametrize("screened", [True, False])
@pytest.mark.parametrize("alpha", OPENINGS)
@pytest.mark.parametrize("reflected", [True, False])
def test_plain_run_matches_the_per_cell_reference(alpha, reflected, screened,
                                                  monkeypatch):
    # the run length and the base of the cell that ends it are the per-cell
    # reference's, on blocks of every length up to 256 with apex,
    # near-ray, overflowing and NaN cells among them, with the screen on,
    # or settling no cell, so that every placed cell has its sums made
    if not screened:
        monkeypatch.setattr(samplers, "_sure_survivors",
                            lambda turn, *_: np.zeros(turn.shape, dtype=bool))
    gen = np.random.default_rng(23)
    runs = []
    for _ in range(300):
        block = random_block(gen, alpha, int(gen.integers(1, 257)))
        with np.errstate(over="ignore", invalid="ignore"):
            got = _plain_cells(*block, alpha, reflected, 0.01)
            want = reference_run(*block, alpha, reflected, 0.01)
        assert repr(got) == repr(want)  # a NaN base too
        runs.append((got[0], len(block[2])))
    # empty, long and whole-block runs all occur
    assert any(run == 0 for run, _n in runs)
    assert any(100 <= run < n for run, n in runs)
    assert any(run == n > 100 for run, n in runs)


@pytest.mark.parametrize("alpha", OPENINGS)
def test_the_survivor_screen_passes_only_sure_cells(alpha):
    # every cell that `_sure_survivors` settles has survivor sums of exactly
    # 1.0, so that u * total <= signed for every u < 1; 25000 cells per
    # opening, from near-ray angles (1e-9) and radii up to 1e150 to cell
    # lengths down to 1e-12, and some cells where the sums' scale overflows
    # or has a zero cell length
    theta_cap = _pass_plan(alpha).theta_cap
    gen = np.random.default_rng(29)
    n = 25000
    rel = gen.uniform(0.0, theta_cap, n)
    rel[::4] = theta_cap / 2.0  # a reflected pass starts on the bisector
    end = gen.uniform(0.0, theta_cap, n)
    for angles in (rel, end):
        near = gen.uniform(size=n) < 0.1
        angles[near] = gen.choice([1e-9, theta_cap - 1e-9], near.sum())
    r0 = 10.0 ** gen.uniform(-3.0, 150.0, n)
    close = gen.uniform(size=n) < 0.8  # an endpoint near its start
    r = np.where(close, r0 * np.exp(gen.normal(0.0, 0.01, n)),
                 10.0 ** gen.uniform(-3.0, 150.0, n))
    r0[:1000] = r[:1000] = 10.0 ** gen.uniform(153.5, 154.5, 1000)
    r[1000:1100] = 1e308  # 4 r overflows
    dt = 10.0 ** gen.uniform(-12.0, 0.0, n)
    dt[1100:1200] = 0.0
    turn = end - rel
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sure = _sure_survivors(turn, rel, r, r0, dt, theta_cap)
        signed, total = _image_sum_arrays(turn[sure], rel[sure], r[sure],
                                          r0[sure], dt[sure], alpha)
    assert (signed == 1.0).all() and (total == 1.0).all()
    assert ((1.0 - 2.0 ** -53) * total <= signed).all()
    # the screen settles most cells, and no near-ray one
    assert 0.5 < sure.mean() < 1.0
    near_ray = np.minimum(np.minimum(rel, theta_cap - rel),
                          np.minimum(end, theta_cap - end)) < 1e-8
    assert near_ray.any() and not sure[near_ray].any()


SIG = ((1.1, 0.2), (-0.1, 0.9))
SCHEMES = ((True, 0.01), (False, DEFAULT_EPSILON))  # (reflected, epsilon)
FIELDS = {"tuple": linear_field((0.1, 0.2), (0.7, 0.5), SIG)}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_euler_paths_do_not_depend_on_the_block_length(name, monkeypatch):
    fallbacks = []

    def counted(sampler):
        def run(*args, **kwargs):
            fallbacks.append(1)
            return sampler(*args, **kwargs)
        return run

    monkeypatch.setattr(drift_module, "algorithm_reflected",
                        counted(algorithm_reflected))
    monkeypatch.setattr(drift_module, "algorithm_stopped",
                        counted(algorithm_stopped))
    runs = []
    for block in (1, 7, drift_module._BLOCK):
        monkeypatch.setattr(drift_module, "_BLOCK", block)
        runs.append([pairs(euler_paths(FIELDS[name], START, 1.0, 150, W09, 12,
                                       range(4), reflected, epsilon,
                                       DEFAULT_FOLD_CAP))
                     for reflected, epsilon in SCHEMES])
    assert runs[0] == runs[1] == runs[2]
    assert fallbacks


def test_euler_faults_do_not_depend_on_the_block_length(monkeypatch):
    config = EstimatorConfig(mode=Mode.EULER_STOPPED,
                             func=TestFunction.RADIUS_SQ, horizon=1.0,
                             n_samples=30, seed=3, wedge=W09, start=START,
                             steps=20, fold_cap=1, mu=(0.1, 0.2),
                             kappa=(0.7, 0.5))
    runs = []
    for block in (1, 7, drift_module._BLOCK):
        monkeypatch.setattr(drift_module, "_BLOCK", block)
        runs.append(sample_rows(map_paths(config)))
    assert runs[0] == runs[1] == runs[2]
    assert any(faulted for _sample, faulted, _xy in runs[0])


def test_a_faulted_euler_path_reports_the_path_state():
    # 6 of these 30 paths fault, each at the first cell whose recursion
    # needs a second pass; with fold cap 1 every earlier cell made one, so
    # a path that faults in cell k has k + 1 folds, its clock is in that
    # cell, its endpoint is in the input wedge, and its weight is that of
    # the path cut after k cells
    field = linear_field((0.1, 0.2), (0.7, 0.5), ((1.2, 0.4), (0.0, 0.8)))
    rows = pairs(euler_paths(field, START, 1.0, 20, W09, 3, range(30), False,
                             0.03, 1))
    faulted = [(i, sample) for i, (sample, fault) in enumerate(rows) if fault]
    assert len(faulted) == 6
    for i, sample in faulted:
        k = sample.folds - 1
        assert 0.05 * k <= sample.elapsed <= 0.05 * (k + 1)
        assert not sample.hit_boundary
        assert 0.0 <= sample.endpoint.theta <= 0.9
        if k == 0:
            assert sample.weight == 1.0
        else:
            [(cut, cut_fault)] = pairs(euler_paths(field, START, 0.05 * k, k,
                                                   W09, 3, [i], False, 0.03,
                                                   1))
            assert not cut_fault and cut.folds == k
            assert sample.weight == pytest.approx(cut.weight, rel=1e-12)
    assert any(sample.weight != 1.0 for _i, sample in faulted)


# ---------------------------------------------------------------------------
# runs of plain cells as arrays
# ---------------------------------------------------------------------------

def reference_log_weight(log_w, drifts, columns, cells, e):
    """`_run_log_weight` cell by cell, its reference: for each of cells
    0 .. e - 1, in cell order, its start mapped to the input frame by bwd,
    the drift -mu (x - kappa) there, that drift mapped to the cell frame by
    fwd, and the cell's `girsanov_log_weight`, added to log_w. A drift
    that is not finite raises at its cell."""
    mu, kappa = drifts.__self__.mu, drifts.__self__.kappa
    bwd, fwd = (matrix[..., 0].T.tolist() for matrix in columns)
    ends, dt = cells
    points, dt = ends.T.tolist(), dt.tolist()
    for i in range(e):
        x = mat_vec(bwd, points[i])
        b = mat_vec(fwd, (-mu[0] * (x[0] - kappa[0]),
                          -mu[1] * (x[1] - kappa[1])))
        if not (math.isfinite(b[0]) and math.isfinite(b[1])):
            raise ValueError(f"drift must be a finite 2-vector, got {b}")
        log_w += girsanov_log_weight(b, points[i + 1], dt[i], points[i])
    return log_w


def checked_runs(monkeypatch):
    """Check every call of `_run_log_weight` against `reference_log_weight`:
    the same float, by repr, or the same error. A list with each call's
    outcome, its log-weight or its error."""
    runs = []
    run_log_weight = drift_module._run_log_weight

    def outcome(function, args):
        try:
            return function(*args)
        except ValueError as err:
            return err

    def checked(*args):
        got = outcome(run_log_weight, args)
        assert repr(got) == repr(outcome(reference_log_weight, args))
        runs.append(got)
        if isinstance(got, ValueError):
            raise got
        return got

    monkeypatch.setattr(drift_module, "_run_log_weight", checked)
    return runs


def euler_path(field, seed, index, steps, reflected, epsilon,
               fold_cap=DEFAULT_FOLD_CAP):
    """(sample, faulted) of Euler path `index` of seed over [0, 1]."""
    [row] = pairs(euler_paths(field, START, 1.0, steps, W09, seed, [index],
                              reflected, epsilon, fold_cap))
    return row


@pytest.mark.parametrize("sigma", [((1.0, 0.0), (0.0, 1.0)), SIG])
@pytest.mark.parametrize("steps", [20, 500, 5000])
def test_array_runs_give_the_per_cell_paths(steps, sigma, monkeypatch):
    # every run of a linear field's paths gives the float of the cell by
    # cell reference
    field = linear_field((0.1, 0.2), (0.7, 0.5), sigma)
    runs = checked_runs(monkeypatch)
    for seed in range(3):
        for reflected, epsilon in SCHEMES:
            assert not euler_path(field, seed, 1, steps, reflected,
                                  epsilon)[1]
    assert runs


def test_array_runs_give_the_per_cell_faults(monkeypatch):
    field = linear_field((0.1, 0.2), (0.7, 0.5), SIG)
    runs = checked_runs(monkeypatch)
    faults = 0
    for seed in range(8):
        for reflected in (True, False):
            faults += euler_path(field, seed, 0, 100, reflected,
                                 DEFAULT_EPSILON, fold_cap=1)[1]
    assert runs and faults


def test_array_runs_raise_the_per_cell_drift_error(monkeypatch):
    # the drift overflows once x is more than 1.797 past kappa, here 0.097
    # right of the start: a cell inside a run of plain cells raises what
    # the cell by cell reference raises at that cell
    runs = checked_runs(monkeypatch)
    x0 = START.cartesian()[0]
    field = linear_field((1e308, 0.1), (x0 - 1.7, 0.5),
                         ((1.0, 0.0), (0.0, 1.0)))
    for reflected in (True, False):
        with pytest.raises(ValueError, match="must be a finite") as err:
            euler_path(field, 3, 0, 5000, reflected, DEFAULT_EPSILON)
        assert err.value is runs[-1]


def test_drift_is_evaluated_once_per_fallback_cell(monkeypatch):
    # the drift runs on a point at each fallback cell, on an array once a
    # run and at no single plain cell; the plain cells are the runs, and
    # with the fallbacks they make every cell of a reflected path
    calls = {"point": 0, "array": 0, "fallback": 0}
    runs = []

    def counted(function, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    drift = drift_module._LinearField.drift

    def counted_drift(field, x):
        calls["array" if isinstance(x, np.ndarray) else "point"] += 1
        return drift(field, x)

    for name in ("algorithm_stopped", "algorithm_reflected"):
        monkeypatch.setattr(drift_module, name,
                            counted(getattr(drift_module, name), "fallback"))
    monkeypatch.setattr(drift_module._LinearField, "drift", counted_drift)
    run_log_weight = drift_module._run_log_weight
    monkeypatch.setattr(drift_module, "_run_log_weight",
                        lambda *args: runs.append(args[-1])
                        or run_log_weight(*args))
    field = linear_field((0.1, 0.2), (0.7, 0.5), SIG)
    for steps in (20, 500):
        for reflected, epsilon in SCHEMES:
            for key in calls:
                calls[key] = 0
            runs.clear()
            sample, _fault = euler_path(field, 4, 2, steps, reflected, epsilon)
            assert calls["point"] == calls["fallback"] >= 1
            assert calls["array"] == len(runs) >= 1
            if not sample.hit_boundary:
                assert calls["fallback"] + sum(runs) == steps
