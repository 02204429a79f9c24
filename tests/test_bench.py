import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import qhdkit as qk
from qhdkit.bench import multistart_refine
from qhdkit.errors import ResourceError
from qhdkit.objectives import qp_objective


def test_generate_qp_determinism():
    a = qk.generate_qp(5, 5, seed=42)
    b = qk.generate_qp(5, 5, seed=42)
    assert np.array_equal(a.Q.toarray(), b.Q.toarray())
    assert np.array_equal(a.b, b.b)
    c = qk.generate_qp(5, 5, seed=43)
    assert not np.array_equal(a.Q.toarray(), c.Q.toarray())


def test_generate_qp_sparsity_and_range():
    qp = qk.generate_qp(50, 5, seed=0)
    counts = np.diff(qp.Q.indptr)
    assert counts.max() <= 5
    assert np.abs(qp.Q.toarray()).max() <= 1.0
    assert np.abs(qp.b).max() <= 1.0
    dense = qp.Q.toarray()
    assert np.array_equal(dense, dense.T)


def test_generate_qp_statistics():
    vals = []
    for seed in range(250):
        qp = qk.generate_qp(10, 5, seed=seed)
        vals.extend(qp.Q.data.tolist())
        vals.extend(qp.b.tolist())
    vals = np.asarray(vals)
    assert vals.size > 10_000
    assert abs(vals.mean()) < 0.02
    assert vals.min() >= -1.0 and vals.max() <= 1.0


def test_generate_qp_invalid_sparsity():
    with pytest.raises(ValueError):
        qk.generate_qp(5, 0, seed=1)
    with pytest.raises(ValueError):
        qk.generate_qp(5, 6, seed=1)


@pytest.mark.parametrize("call, name", [
    (lambda: qk.tcount(2.5, 5, 10, 3), "d"),
    (lambda: qk.tcount(-1, 5, 1000, 3), "d"),
    (lambda: qk.tcount(5, True, 1000, 3), "s"),
    (lambda: qk.tcount(5, 5, 0, 3), "R"),
    (lambda: qk.generate_qp(2.5, 1, 0), "d"),
    (lambda: qk.generate_qp(True, 1, 0), "d"),
    (lambda: qk.generate_qp(3, 1.5, 0), "s"),
    (lambda: qk.radix2_problem(qk.get_objective("levy"), 0), "bits_per_var"),
    (lambda: qk.sample_positions(
        qk.uniform_state(qk.Mesh(1, 4, qk.DIRICHLET)), 2.5, 0), "shots"),
], ids=["tcount-d-2.5", "tcount-d-negative", "tcount-s-bool", "tcount-R-0",
        "generate_qp-d-2.5", "generate_qp-d-bool", "generate_qp-s-1.5",
        "radix2_problem-bits-0", "sample_positions-shots-2.5"])
def test_counts_fail_early_naming_the_count(call, name):
    # a typed error naming the count, not a number, an instance or a
    # TypeError from inside numpy
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= "):
        call()


def test_bruteforce_value_is_qp_eval_grad_at_its_point():
    for seed in range(6):
        qp = qk.generate_qp(4, 3, seed)
        x, f = qk.grid_bruteforce_min(qp, 6)
        assert f == qk.qp_eval_grad(qp, x)[0]


def test_bruteforce_corner_cases():
    qp = qk.QpInstance(2, sp.identity(2, format="csr"),
                       np.array([-1.0, -1.0]))
    x, f = qk.grid_bruteforce_min(qp, 8)
    assert np.allclose(x, [1.0, 1.0])
    assert f == pytest.approx(-1.0)

    qp0 = qk.QpInstance(2, sp.identity(2, format="csr"), np.zeros(2))
    x0, f0 = qk.grid_bruteforce_min(qp0, 8)
    assert np.allclose(x0, [0.0, 0.0])
    assert f0 == pytest.approx(0.0)


def test_bruteforce_cap():
    qp = qk.generate_qp(8, 3, seed=0)
    with pytest.raises(ResourceError):
        qk.grid_bruteforce_min(qp, 10)


def test_oracle_grid_cap_shared_by_both_oracles(monkeypatch):
    # without a cap, dim 12 at r = 8 would build a 9^12 = 2.8e11-node grid
    def no_grid(self):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(qk.Mesh, "node_coords", no_grid)
    qp12 = qk.generate_qp(12, 3, seed=0)
    for oracle in (qk.grid_bruteforce_min, multistart_refine):
        with pytest.raises(ResourceError, match="exceeds the cap"):
            oracle(qp12, 8)
    monkeypatch.undo()

    # the cap is inclusive: 9^2 nodes pass at a cap of 81, 10^2 do not
    monkeypatch.setattr(qk.bench, "ORACLE_GRID_CAP", 81)
    qp2 = qk.generate_qp(2, 2, seed=3)
    for oracle in (qk.grid_bruteforce_min, multistart_refine):
        oracle(qp2, 8)
        with pytest.raises(ResourceError):
            oracle(qp2, 9)


def test_bruteforce_matches_multistart_refinement():
    qp = qk.generate_qp(2, 2, seed=3)
    _, f_grid = qk.grid_bruteforce_min(qp, 32)
    _, f_ref = multistart_refine(qp, 8)
    # the refined optimum can only undercut the grid optimum
    assert f_ref <= f_grid + 1e-12
    assert f_grid - f_ref < 1e-2


def test_local_refine_stationary_and_descent():
    qp = qk.QpInstance(2, sp.identity(2, format="csr"),
                       np.array([-0.6, -0.2]))
    # unconstrained stationary point (0.6, 0.2) is interior
    x = qk.local_refine(qp, np.array([0.6, 0.2]))
    assert np.allclose(x, [0.6, 0.2], atol=1e-8)

    clamped = qk.QpInstance(2, sp.identity(2, format="csr"),
                            np.array([-2.0, -2.0]))
    x2 = qk.local_refine(clamped, np.array([0.1, 0.9]))
    assert np.allclose(x2, [1.0, 1.0], atol=1e-8)


def test_local_refine_never_increases():
    rng = np.random.default_rng(4)
    for seed in range(5):
        qp = qk.generate_qp(4, 3, seed=seed)
        x0 = rng.uniform(0, 1, 4)
        f0 = qk.qp_eval_grad(qp, x0)[0]
        x1 = qk.local_refine(qp, x0)
        assert qk.qp_eval_grad(qp, x1)[0] <= f0 + 1e-12
        assert x1.min() >= 0.0 and x1.max() <= 1.0


def _refine_one(qp, x0, tol=1e-8, max_iter=500):
    """The one-point refinement loop the batch must reproduce; also says
    why the point stopped: "tol", "max_iter" or "step" (no step left)."""
    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    fx, g = qk.qp_eval_grad(qp, x)
    step = 1.0
    for _ in range(max_iter):
        pg = x - np.clip(x - g, 0.0, 1.0)
        if np.linalg.norm(pg) <= tol:
            return x, "tol"
        while step > 1e-14:
            cand = np.clip(x - step * g, 0.0, 1.0)
            f_cand, g_cand = qk.qp_eval_grad(qp, cand)
            if f_cand <= fx - 1e-4 * float(g @ (x - cand)):
                x, fx, g = cand, f_cand, g_cand
                step = min(step * 2.0, 1.0)
                break
            step *= 0.5
        else:
            return x, "step"
    return x, "max_iter"


def test_local_refine_batch_matches_per_point_loop():
    rng = np.random.default_rng(12)
    seen = set()
    # 1033 is ill-conditioned: a third of its grid starts run to max_iter;
    # scaled up, steps need backtracking, and at 1e8 rounding noise in f
    # swamps the decrease so that steps run out
    hard = qk.generate_qp(5, 5, seed=1033)

    def scaled(c):
        return qk.QpInstance(5, hard.Q * c, hard.b * c)

    cases = [(hard, 300, 500), (qk.generate_qp(5, 5, seed=1000), 300, 500),
             (qk.generate_qp(5, 5, seed=1001), 300, 500),
             (scaled(100.0), 30, 20), (scaled(1e8), 30, 500)]
    for qp, n, max_iter in cases:
        starts = rng.integers(0, 5, size=(n, 5)) / 4
        loop = [_refine_one(qp, x, max_iter=max_iter) for x in starts]
        seen |= {why for _, why in loop}
        assert np.array_equal(qk.local_refine(qp, starts, max_iter=max_iter),
                              np.array([x for x, _ in loop]))
        assert np.array_equal(
            qk.local_refine(qp, starts[0], max_iter=max_iter), loop[0][0])
    assert seen == {"tol", "max_iter", "step"}


@given(d=st.integers(1, 4), seed=st.integers(0, 2 ** 20),
       scale=st.sampled_from([1.0, 1e8]), n=st.integers(1, 6),
       tol=st.sampled_from([0.0, 1e-8, 1e-3]), max_iter=st.integers(0, 40),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_local_refine_batch_matches_loop_property(d, seed, scale, n, tol,
                                                  max_iter, data):
    base = qk.generate_qp(d, d, seed=seed)
    qp = qk.QpInstance(d, base.Q * scale, base.b * scale)
    # starts outside the box exercise the initial clip
    starts = np.array(data.draw(st.lists(
        st.floats(-0.5, 1.5), min_size=n * d, max_size=n * d))).reshape(n, d)
    expected = [_refine_one(qp, x, tol, max_iter)[0] for x in starts]
    assert np.array_equal(qk.local_refine(qp, starts, tol, max_iter),
                          np.array(expected))


@pytest.mark.parametrize("call", [
    lambda qp: qk.local_refine(qp, [0.5, 0.5], max_iter=2.5),
    lambda qp: qk.local_refine(qp, [0.5, 0.5], max_iter=-3),
    lambda qp: qk.local_refine(qp, [0.5, 0.5], max_iter=True),
    lambda qp: qk.local_refine(qp, [0.5, 0.5], tol=float("nan")),
    lambda qp: qk.local_refine(qp, [0.5, 0.5], tol=float("inf")),
    lambda qp: qk.local_refine(qp, [0.5, 0.5], tol=-1e-8),
    lambda qp: qk.local_refine(qp, np.full((1, 1, 2), 0.5)),
    lambda qp: multistart_refine(qp, 4, n_starts=0),
    lambda qp: multistart_refine(qp, 4, n_starts=2.5),
], ids=["max_iter-2.5", "max_iter-negative", "max_iter-bool", "tol-nan",
        "tol-inf", "tol-negative", "x0-3d", "n_starts-0", "n_starts-2.5"])
def test_refine_arguments_fail_before_any_evaluation(call, monkeypatch):
    def no_eval(*args):
        raise AssertionError("evaluated before the arguments were checked")

    monkeypatch.setattr(qk.bench, "qp_eval_grad", no_eval)
    monkeypatch.setattr(qk.bench, "qp_objective", no_eval)
    qp = qk.QpInstance(2, sp.identity(2, format="csr"), np.zeros(2))
    with pytest.raises(ValueError, match="max_iter|tol|starts|n_starts"):
        call(qp)


@pytest.mark.parametrize("qseed, name, tseed, p_s", [
    (1001, "relaxed_qhd", 8, 0.828), (1001, "uniform_grid", 78, 0.789),
    (1033, "relaxed_qhd", 40, 0.955), (1033, "uniform_grid", 110, 0.776)])
def test_solver_trials_pinned_p_s(qseed, name, tseed, p_s):
    # criterion-12 configuration; the values come from refining one trial
    # at a time, so a change in how the sums are ordered shows up here
    from qhdkit.bench import _solver_trials
    qp = qk.generate_qp(5, 5, seed=qseed)
    _, f_star = multistart_refine(qp, 8)
    got, _ = _solver_trials({"name": name, "resolution": 4, "refine": True},
                            qp, f_star, 1000, seed=tseed)
    assert got == p_s


@pytest.mark.parametrize("name", ["nagd", "sgd"])
def test_gradient_draws_skip_values(name, monkeypatch):
    # the draws keep only the final iterates, so they never evaluate f;
    # the points are those of the public runs from the same starts
    from qhdkit.bench import _SOLVERS
    qp = qk.generate_qp(4, 3, seed=5)
    draw, defaults = _SOLVERS[name]
    opts = {**defaults, "steps": 50}

    def no_value(x):
        raise AssertionError("the objective's value was evaluated")

    monkeypatch.setattr(qk.bench, "qp_objective",
                        lambda q: replace(qp_objective(q), eval_fn=no_value))
    points, t_f = draw(opts, qp, 7, np.random.default_rng(3))
    monkeypatch.undo()

    rng = np.random.default_rng(3)
    if name == "nagd":
        x0 = rng.uniform(0.0, 1.0, size=(7, qp.dim))
        ref = qk.nagd_run(qp_objective(qp), x0, opts["stepsize"], 50)
    else:
        x0, seeds = zip(*[(rng.uniform(0.0, 1.0, size=qp.dim),
                           int(rng.integers(2 ** 31))) for _ in range(7)])
        ref = qk.sgd_run(qp_objective(qp), np.array(x0), opts["stepsize"],
                         50, noise_sigma=opts["noise_sigma"], seed=seeds)
    assert points.tobytes() == ref.points[:, -1].tobytes()
    assert t_f == 50 * opts["stepsize"]


def test_tts_examples():
    assert qk.tts(1.0, 0.5) == 7.0
    assert qk.tts(1.0, 0.99) == 1.0
    assert qk.tts(2.5, 0.995) == 2.5
    assert qk.tts(3.0, 1.0) == 3.0
    assert math.isinf(qk.tts(1.0, 0.0))
    with pytest.raises(ValueError):
        qk.tts(0.0, 0.5)
    with pytest.raises(ValueError):
        qk.tts(1.0, 1.5)


@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
@settings(max_examples=50, deadline=None)
def test_tts_monotone_in_success_probability(p1, p2):
    lo, hi = sorted([p1, p2])
    assert qk.tts(1.0, hi) <= qk.tts(1.0, lo)


def test_success_gap():
    assert qk.success(1.0, 1.0)
    assert qk.success(1.0100, 1.0)
    assert not qk.success(1.011, 1.0)
    assert qk.success(-3.0, -3.005)


def test_tcount_golden_numbers():
    assert qk.tcount(50, 5, 1000, 3) == 549_000_000
    assert qk.tcount(75, 5, 1000, 3) == 823_500_000
    assert qk.tcount(1, 1, 1, 3) == 4900
    with pytest.raises(ValueError):
        qk.tcount(50, 5, 1000, 8)


def test_tcount_full_table():
    # every published cell reproduces from the formula (two low-precision
    # cells are displayed rounded to five significant digits)
    table = {
        (50, 3): 5.49e8, (60, 3): 6.588e8, (75, 3): 8.235e8,
        (50, 16): 7.8386e9, (60, 16): 9.4063e9, (75, 16): 1.1758e10,
        (50, 32): 2.672e10, (60, 32): 3.2064e10, (75, 32): 4.008e10,
    }
    for (d, q), shown in table.items():
        exact = qk.tcount(d, 5, 1000, q)
        assert abs(exact - shown) / shown < 5e-5, (d, q, exact)


def test_run_experiment_exact_oracle_and_determinism(tmp_path):
    config = qk.ExperimentConfig(
        dim=2, sparsity=2, n_instances=2, trials=50, master_seed=11,
        truth_resolution=8,
        solvers=[{"name": "exact_oracle", "t_f": 1.0},
                 {"name": "uniform_grid", "resolution": 8, "t_f": 1e-6}])
    reports = qk.run_experiment(config, tmp_path / "a")
    oracle = [r for r in reports if r.solver == "exact_oracle"]
    assert all(r.p_s == 1.0 and r.tts_seconds == r.t_f for r in oracle)

    qk.run_experiment(config, tmp_path / "b")
    csv_a = (tmp_path / "a" / "tts_summary.csv").read_bytes()
    csv_b = (tmp_path / "b" / "tts_summary.csv").read_bytes()
    assert csv_a == csv_b

    meta = json.loads((tmp_path / "a" / "run_meta.json").read_text())
    assert meta["config"]["master_seed"] == 11
    assert meta["errors"] == []


@pytest.mark.parametrize("solver, why", [
    ({"name": "relaxed_qhd", "resolutoin": 2}, "resolutoin"),
    ({"name": "uniform_grid", "T": 1.0}, "'T'"),
    ({"name": "exact_oracle", "stepsize": 1e-3}, "stepsize"),
    ({"name": "anneal"}, "unknown solver 'anneal'"),
    ({"resolution": 4}, "unknown solver None"),
    ({"name": "relaxed_qhd", "resolution": 2.5},
     "'relaxed_qhd': 'resolution' must be an integer >= 1"),
    ({"name": "relaxed_qhd", "resolution": 0}, "'relaxed_qhd': 'resolution'"),
    ({"name": "relaxed_qhd", "dt": -0.01}, "'relaxed_qhd': 'dt' must be finite"),
    ({"name": "relaxed_qhd", "T": math.inf}, "'relaxed_qhd': 'T'"),
    ({"name": "uniform_grid", "t_f": 0.0}, "'uniform_grid': 't_f'"),
    ({"name": "nagd", "steps": 0}, "'nagd': 'steps' must be an integer"),
    ({"name": "nagd", "steps": True}, "'nagd': 'steps'"),
    ({"name": "nagd", "stepsize": math.nan}, "'nagd': 'stepsize'"),
    ({"name": "sgd", "noise_sigma": -1.0},
     "'sgd': 'noise_sigma' must be finite and >= 0"),
    ({"name": "sgd", "noise_sigma": "1"}, "'sgd': 'noise_sigma'"),
    ({"name": "uniform_grid", "refine": "no"},
     "'uniform_grid': 'refine' must be a bool"),
    ({"name": "nagd", "refine": 1}, "'nagd': 'refine'"),
])
def test_run_experiment_rejects_bad_solver_before_any_instance(
        solver, why, tmp_path, monkeypatch):
    # a misspelled key used to take its default silently, an unknown name
    # became NaN rows and a RuntimeError after every instance had run, and a
    # fractional resolution was truncated
    def never(*args, **kwargs):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(qk.bench, "generate_qp", never)
    config = qk.ExperimentConfig(
        dim=2, sparsity=2, n_instances=2, trials=10,
        solvers=[{"name": "exact_oracle", "t_f": 1.0}, solver])
    with pytest.raises(ValueError, match=why):
        qk.run_experiment(config, tmp_path)
    assert not (tmp_path / "tts_summary.csv").exists()


@pytest.mark.parametrize("fields, why", [
    ({"trials": 2.5}, "'trials' must be an integer >= 1"),
    ({"trials": 0}, "'trials'"),
    ({"trials": True}, "'trials'"),
    ({"n_instances": 0}, "'n_instances' must be an integer >= 1"),
    ({"n_instances": -1}, "'n_instances'"),
    ({"truth_resolution": 2.5}, "'truth_resolution'"),
    ({"dim": 0}, "'dim' must be an integer >= 1"),
    ({"dim": True, "sparsity": 1}, "'dim'"),
    ({"sparsity": 3}, r"'sparsity' must be an integer in \[1, dim=2\]"),
    ({"sparsity": 0}, "'sparsity'"),
    ({"sparsity": 2.0}, "'sparsity'"),
    ({"master_seed": -1}, "'master_seed' must be an integer >= 0"),
    ({"master_seed": 1.5}, "'master_seed'"),
    ({"solvers": []}, "'solvers' must be a non-empty list"),
    ({"solvers": {"name": "exact_oracle"}}, "'solvers'"),
    ({"solvers": ["exact_oracle"]}, "'solvers'"),
])
def test_run_experiment_rejects_bad_config_before_any_instance(
        fields, why, tmp_path, monkeypatch):
    # a bad trial count used to fail per instance after the ground truth had
    # run, zero instances wrote a header-only CSV, and a fractional truth
    # resolution put grid nodes outside the box
    def never(*args, **kwargs):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(qk.bench, "generate_qp", never)
    config = qk.ExperimentConfig(
        **{"dim": 2, "sparsity": 2, "n_instances": 2, "trials": 10,
           "solvers": [{"name": "exact_oracle"}], **fields})
    with pytest.raises(ValueError, match=why):
        qk.run_experiment(config, tmp_path)
    assert not (tmp_path / "tts_summary.csv").exists()


def test_run_experiment_rejects_oversized_truth_grid_before_any_instance(
        tmp_path, monkeypatch):
    # (8 + 1)^12 nodes exceed ORACLE_GRID_CAP; the truth grid used to be
    # built per instance, outside the per-solver try
    def never(*args, **kwargs):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(qk.bench, "generate_qp", never)
    config = qk.ExperimentConfig(dim=12, sparsity=3, n_instances=2,
                                 trials=10, truth_resolution=8,
                                 solvers=[{"name": "exact_oracle"}])
    with pytest.raises(ResourceError, match="exceeds the cap"):
        qk.run_experiment(config, tmp_path)
    assert not (tmp_path / "tts_summary.csv").exists()


# every solver key with its default, as the README's solver table gives it
@pytest.mark.parametrize("name, key, default", [
    ("exact_oracle", "t_f", 1.0),
    ("uniform_grid", "resolution", 8),
    ("uniform_grid", "t_f", 1e-6),
    ("uniform_grid", "refine", False),
    ("relaxed_qhd", "resolution", 4),
    ("relaxed_qhd", "T", 10.0),
    ("relaxed_qhd", "dt", 1e-2),
    ("relaxed_qhd", "stepsize", 1e-3),
    ("nagd", "steps", 1000),
    ("nagd", "stepsize", 1e-3),
    ("sgd", "steps", 1000),
    ("sgd", "stepsize", 1e-3),
    ("sgd", "noise_sigma", 1.0),
])
def test_run_experiment_solver_defaults(name, key, default, tmp_path):
    # short runs where the key under test allows one; the relaxed grid's
    # splitting is so accurate that p_s moves with dt only on a long run at
    # r = 8, and with noise_sigma only once the steps move the points
    short = {"relaxed_qhd": {"resolution": 8}, "nagd": {"steps": 20},
             "sgd": {"steps": 100, "stepsize": 1e-2}}.get(name, {})
    short.pop(key, None)
    rows = []
    for out, solver in (("omitted", {"name": name, **short}),
                        ("written", {"name": name, **short, key: default})):
        config = qk.ExperimentConfig(dim=2, sparsity=2, n_instances=1,
                                     trials=1000, master_seed=3,
                                     truth_resolution=4, solvers=[solver])
        qk.run_experiment(config, tmp_path / out)
        rows.append((tmp_path / out / "tts_summary.csv").read_text())
    assert rows[0] == rows[1]


def test_run_experiment_classical_solvers_match_per_trial_loop(tmp_path):
    solvers = [{"name": "nagd", "steps": 40, "stepsize": 1e-2,
                "refine": False},
               {"name": "sgd", "steps": 40, "stepsize": 1e-2,
                "noise_sigma": 0.5, "refine": False},
               {"name": "nagd", "steps": 40, "stepsize": 1e-2,
                "refine": True},
               {"name": "sgd", "steps": 40, "stepsize": 1e-2,
                "refine": True}]
    config = qk.ExperimentConfig(dim=3, sparsity=3, n_instances=2, trials=12,
                                 master_seed=4, truth_resolution=4,
                                 solvers=solvers)
    qk.run_experiment(config, tmp_path)

    seeds = np.random.SeedSequence(4).generate_state(6)
    lines = ["instance,solver,tf_seconds,ps,tts_seconds"]
    for i in range(2):
        qp = qk.generate_qp(3, 3, int(seeds[i]))
        _, f_star = multistart_refine(qp, 4)
        f = qp_objective(qp)
        for k, solver in enumerate(solvers):
            rng = np.random.default_rng(int(seeds[2 + i]) + 7919 * k)
            hits = 0
            for _ in range(12):
                x0 = rng.uniform(0.0, 1.0, size=3)
                if solver["name"] == "nagd":
                    tr = qk.nagd_run(f, x0, 1e-2, 40)
                else:
                    tr = qk.sgd_run(f, x0, 1e-2, 40,
                                    noise_sigma=solver.get("noise_sigma", 1.0),
                                    seed=int(rng.integers(2 ** 31)))
                x = tr.points[-1]
                if solver["refine"]:
                    x = qk.local_refine(qp, x)
                hits += qk.success(qk.qp_eval_grad(qp, x)[0], f_star)
            p_s, t_f = hits / 12, 40 * 1e-2
            lines.append(f"{i},{solver['name']},{t_f!r},{p_s!r},"
                         f"{qk.tts(t_f, p_s)!r}")
    expected = ("\n".join(lines) + "\n").encode()
    assert (tmp_path / "tts_summary.csv").read_bytes() == expected


def test_run_experiment_uniform_grid_hit_rate(tmp_path):
    # uniform grid sampling without refinement reproduces the exhaustive
    # in-gap node fraction within binomial error
    config = qk.ExperimentConfig(
        dim=2, sparsity=2, n_instances=1, trials=10_000, master_seed=5,
        truth_resolution=8,
        solvers=[{"name": "uniform_grid", "resolution": 8, "refine": False,
                  "t_f": 1e-6}])
    reports = qk.run_experiment(config, tmp_path)
    qp = qk.generate_qp(2, 2, seed=int(
        np.random.SeedSequence(5).generate_state(4)[0]))
    _, f_star = multistart_refine(qp, 8)
    edge = np.arange(9) / 8
    pts = np.stack(np.meshgrid(edge, edge, indexing="ij"), -1).reshape(-1, 2)
    vals = qp_objective(qp)(pts)
    p_exact = float(np.mean(np.abs(vals - f_star) <= 0.01))
    sigma = np.sqrt(p_exact * (1 - p_exact) / 10_000) + 1e-9
    assert abs(reports[0].p_s - p_exact) < 5 * sigma


def test_refinement_dominance():
    # post-processing the same draws can only help, because local
    # refinement never increases the objective
    from qhdkit.bench import _solver_trials
    for seed in range(3):
        qp = qk.generate_qp(3, 3, seed=seed)
        _, f_star = multistart_refine(qp, 8)
        raw, _ = _solver_trials({"name": "uniform_grid", "resolution": 4,
                                 "refine": False}, qp, f_star, 400, seed=123)
        refined, _ = _solver_trials({"name": "uniform_grid", "resolution": 4,
                                     "refine": True}, qp, f_star, 400,
                                    seed=123)
        assert refined >= raw


def test_experiment_config_json():
    cfg = qk.ExperimentConfig.from_json(
        '{"dim": 3, "trials": 10, "solvers": [{"name": "exact_oracle"}]}')
    assert cfg.dim == 3 and cfg.trials == 10
    with pytest.raises(ValueError):
        qk.ExperimentConfig.from_json('{"bogus": 1}')
    # a method name is not a field; it used to shadow the method
    with pytest.raises(ValueError, match="from_json"):
        qk.ExperimentConfig.from_json('{"from_json": 1}')
    for doc in ('5', '"dim"', 'null'):
        with pytest.raises(ValueError, match="JSON object"):
            qk.ExperimentConfig.from_json(doc)
    with pytest.raises(ValueError):
        qk.ExperimentConfig.from_json('{"trials": 0}')
