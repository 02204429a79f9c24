import numpy as np
import pytest

import qhdkit as qk
from qhdkit.objectives import Objective


def quad_1d():
    return Objective(dim=1,
                     eval_fn=lambda x: 0.5 * np.atleast_2d(x)[:, 0] ** 2,
                     grad_fn=lambda x: np.atleast_2d(x),
                     minimizer=np.zeros(1), f_min=0.0)


def test_nagd_quadratic_rate():
    # unconstrained run: the minimizer sits on the box corner, so projection
    # would pin iterates to exactly zero loss and leave nothing to fit
    f = quad_1d()
    trace = qk.nagd_run(f, np.array([1.0]), 0.01, 2000, project=False)
    k = np.arange(100, 2001)
    vals = trace.values[100:]
    pos = vals > 1e-300
    assert pos.sum() > 1000
    slope = np.polyfit(np.log(k[pos]), np.log(vals[pos]), 1)[0]
    assert slope <= -2.0 + 0.3


def test_nagd_zero_gradient_fixed_point():
    f = Objective(dim=2,
                  eval_fn=lambda x: np.ones(len(np.atleast_2d(x))),
                  grad_fn=lambda x: np.zeros_like(np.atleast_2d(x)))
    x0 = np.array([0.3, 0.6])
    trace = qk.nagd_run(f, x0, 0.1, 50)
    assert np.all(trace.points == x0)


def test_nagd_first_step_is_plain_gradient_descent():
    f = quad_1d()
    s = 0.05
    trace = qk.nagd_run(f, np.array([0.8]), s, 1)
    # momentum weight (k-1)/(k+2) vanishes at k = 1
    assert trace.points[1, 0] == pytest.approx(0.8 - s * 0.8)


def test_nagd_effective_times():
    f = quad_1d()
    trace = qk.nagd_run(f, np.array([0.5]), 0.01, 10)
    assert np.allclose(trace.effective_times, 0.01 * np.arange(11))


def test_nagd_strongly_convex_long_run():
    f = qk.get_objective("sum_squares")
    # rescaled curvature eigenvalues are 40 and 80, so s = 0.01 < 1/L
    trace = qk.nagd_run(f, np.array([0.9, 0.2]), 0.01, 10_000)
    assert trace.values[-1] <= 1e-4


def test_sgd_zero_noise_equals_gradient_descent():
    f = quad_1d()
    x0 = np.array([0.7])
    a = qk.sgd_run(f, x0, 0.01, 200, noise_sigma=0.0, seed=1)
    b = qk.sgd_run(f, x0, 0.01, 200, noise_sigma=0.0, seed=99)
    assert np.array_equal(a.points, b.points)
    x = x0.copy()
    for _ in range(3):
        x = np.clip(x - 0.01 * f.grad(x), 0.0, 1.0)
    assert np.array_equal(a.points[3], x)


def test_sgd_determinism_per_seed():
    f = qk.get_objective("levy")
    x0 = np.array([0.2, 0.8])
    a = qk.sgd_run(f, x0, 1e-3, 500, noise_sigma=1.0, seed=42)
    b = qk.sgd_run(f, x0, 1e-3, 500, noise_sigma=1.0, seed=42)
    assert np.array_equal(a.points, b.points)
    c = qk.sgd_run(f, x0, 1e-3, 500, noise_sigma=1.0, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_projection_keeps_iterates_in_box():
    f = qk.get_objective("levy")
    rng = np.random.default_rng(0)
    for seed in range(3):
        x0 = rng.uniform(0, 1, 2)
        tr = qk.sgd_run(f, x0, 1e-2, 300, noise_sigma=1.0, seed=seed)
        assert tr.points.min() >= 0.0 and tr.points.max() <= 1.0
        tn = qk.nagd_run(f, x0, 1e-2, 300)
        assert tn.points.min() >= 0.0 and tn.points.max() <= 1.0


def test_sgd_levy_ensemble_reaches_minimum():
    f = qk.get_objective("levy")
    rng = np.random.default_rng(3)
    trace = qk.sgd_run(f, rng.uniform(0, 1, (40, 2)), 1e-3, 2000,
                       noise_sigma=1.0, seed=100 + np.arange(40))
    frac, loss = qk.ensemble_stats(trace, f.minimizer, 0.1)
    assert frac[-1] > 0.0
    assert loss[0] > loss[-1]


def test_ensemble_stats_examples():
    f = quad_1d()

    def still(*x0s):
        pts = np.stack([np.tile(np.asarray(x0, dtype=float), (5, 1))
                        for x0 in x0s])
        return qk.IterateTrace(pts, np.arange(5.0),
                               np.stack([f(run) for run in pts]))

    x_star = np.array([0.5])
    all_in = still([0.5], [0.5])
    frac, _ = qk.ensemble_stats(all_in, x_star, 0.1)
    assert np.all(frac == 1.0)

    half = still([0.5], [0.9])
    frac, loss = qk.ensemble_stats(half, x_star, 0.1)
    assert np.all(frac == 0.5)
    assert np.allclose(loss, 0.5 * (f(np.array([0.5])) + f(np.array([0.9]))))


def test_sgd_trace_and_ensemble_stats_in_block_sized_memory(working_memory):
    # f on every iterate in one call and the success mask of the whole
    # batch used to take 122 MiB and 92 MiB above this 46 MiB trace
    f = qk.get_objective("levy")
    runs, steps = 200, 10_000
    x0 = np.random.default_rng(0).uniform(size=(runs, 2))
    made = []
    used = working_memory(lambda: made.append(qk.sgd_run(
        f, x0, 1e-3, steps, seed=np.arange(runs))))
    trace = made[0]
    extra = used - trace.points.nbytes - trace.values.nbytes
    assert extra <= 8 * 2 ** 20, f"sgd_run: {extra / 2 ** 20:.1f} MiB"
    used = working_memory(lambda: qk.ensemble_stats(trace, f.minimizer, 0.1))
    assert used <= 4 * 2 ** 20, f"ensemble_stats: {used / 2 ** 20:.1f} MiB"


def test_ensemble_stats_errors():
    empty = qk.IterateTrace(np.empty((0, 5, 1)), np.arange(5.0),
                            np.empty((0, 5)))
    with pytest.raises(ValueError, match="empty"):
        qk.ensemble_stats(empty, np.zeros(1), 0.1)
    # a one-run trace is not an ensemble
    one = qk.nagd_run(quad_1d(), np.array([0.5]), 0.1, 4)
    with pytest.raises(ValueError, match="runs"):
        qk.ensemble_stats(one, np.zeros(1), 0.1)


def _nagd_loop(f, x0, s, steps, project):
    # one run at a time, as the per-run implementation stepped it
    x = np.asarray(x0, dtype=float).copy()
    y = x.copy()
    pts = [x.copy()]
    for k in range(1, steps + 1):
        x_new = y - s * f.grad(y)
        if project:
            x_new = np.clip(x_new, 0.0, 1.0)
        y = x_new + (k - 1.0) / (k + 2.0) * (x_new - x)
        x = x_new
        pts.append(x.copy())
    return np.array(pts)


def _sgd_loop(f, x0, s, steps, sigma, seed, project):
    rng = np.random.default_rng(seed)
    x = np.asarray(x0, dtype=float).copy()
    pts = [x.copy()]
    for _ in range(steps):
        g = f.grad(x) + sigma * rng.standard_normal(x.size)
        x = x - s * g
        if project:
            x = np.clip(x, 0.0, 1.0)
        pts.append(x.copy())
    return np.array(pts)


@pytest.mark.parametrize("objective", ["levy", "qp"])
@pytest.mark.parametrize("project", [True, False])
def test_batch_matches_per_run_loop(objective, project):
    if objective == "levy":
        f, s = qk.get_objective("levy"), 1e-3
    else:
        f, s = qk.qp_objective(qk.generate_qp(4, 3, seed=8)), 1e-2
    # more than 8 runs, so that a pairwise sum over runs would show
    runs, steps = 24, 200
    rng = np.random.default_rng(21)
    x0 = rng.uniform(0.0, 1.0, size=(runs, f.dim))
    seeds = 40 + np.arange(runs)
    nagd = qk.nagd_run(f, x0, s, steps, project=project)
    sgd = qk.sgd_run(f, x0, s, steps, noise_sigma=0.5, seed=seeds,
                     project=project)
    for trace in (nagd, sgd):
        assert trace.points.shape == (runs, steps + 1, f.dim)
        assert trace.values.shape == (runs, steps + 1)
        assert trace.values.flags.c_contiguous
        assert np.array_equal(trace.effective_times, s * np.arange(steps + 1))
    refs = []
    for i in range(runs):
        ref = _nagd_loop(f, x0[i], s, steps, project)
        assert np.array_equal(nagd.points[i], ref)
        assert np.array_equal(nagd.values[i], f(ref))
        ref = _sgd_loop(f, x0[i], s, steps, 0.5, seeds[i], project)
        assert np.array_equal(sgd.points[i], ref)
        assert np.array_equal(sgd.values[i], f(ref))
        refs.append(ref)
    # the statistics of the per-run traces, stacked runs first
    x_star = np.full(f.dim, 0.5)
    frac, loss = qk.ensemble_stats(sgd, x_star, 0.3)
    dist = np.linalg.norm(np.stack(refs) - x_star, axis=-1)
    assert np.array_equal(frac, (dist < 0.3 * (1.0 - 1e-12)).mean(axis=0))
    assert np.array_equal(loss, np.stack([f(r) for r in refs]).mean(axis=0))
    # a (d,) start is the one-run case, with the run axis dropped
    one = qk.sgd_run(f, x0[3], s, steps, noise_sigma=0.5, seed=seeds[3],
                     project=project)
    assert one.points.shape == (steps + 1, f.dim)
    assert np.array_equal(one.points, sgd.points[3])
    assert np.array_equal(one.values, sgd.values[3])


@pytest.mark.parametrize("steps", [-1, 2.5, "10", True, None])
def test_runs_reject_bad_step_count(steps):
    # -1 used to fail on unequal trace lengths, 2.5 with a TypeError
    f = quad_1d()
    with pytest.raises(ValueError, match="steps"):
        qk.nagd_run(f, np.zeros(1), 0.1, steps)
    with pytest.raises(ValueError, match="steps"):
        qk.sgd_run(f, np.zeros(1), 0.1, steps)


def test_zero_steps_keep_the_start():
    f = quad_1d()
    trace = qk.nagd_run(f, np.array([[0.2], [0.7]]), 0.1, 0)
    assert np.array_equal(trace.points, [[[0.2]], [[0.7]]])
    assert np.array_equal(trace.effective_times, [0.0])


def test_batch_rejects_empty_batch_and_wrong_seed_count():
    f = quad_1d()
    with pytest.raises(ValueError, match="at least one run"):
        qk.nagd_run(f, np.empty((0, 1)), 0.1, 5)
    with pytest.raises(ValueError, match="at least one run"):
        qk.sgd_run(f, np.empty((0, 1)), 0.1, 5, seed=[])
    x0 = np.zeros((3, 1))
    for seed in (0, [1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="seed"):
            qk.sgd_run(f, x0, 0.1, 5, seed=seed)


def test_invalid_stepsizes():
    f = quad_1d()
    with pytest.raises(ValueError):
        qk.nagd_run(f, np.zeros(1), 0.0, 5)
    with pytest.raises(ValueError):
        qk.sgd_run(f, np.zeros(1), -0.1, 5)
    with pytest.raises(ValueError):
        qk.sgd_run(f, np.zeros(1), 0.1, 5, noise_sigma=-1.0)
