"""Tests of the benchmark's own checks: each accepts a correct output and
rejects a deliberately perturbed one, and the face-enumeration oracle
agrees with brute force. Run with ``python3 -m pytest perfbench/tests``."""

import json
import math
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402


def random_qp(d, seed):
    rng = np.random.default_rng(seed)
    Q = rng.uniform(-1.0, 1.0, (d, d))
    return (Q + Q.T) / 2.0, rng.uniform(-1.0, 1.0, d)


@pytest.mark.parametrize("d,n", [(1, 4001), (2, 401), (3, 101)])
def test_face_minimum_matches_brute_force(d, n):
    edge = np.linspace(0.0, 1.0, n)
    pts = np.stack([a.ravel() for a in np.meshgrid(*[edge] * d,
                                                   indexing="ij")], 1)
    for seed in range(8):
        Q, b = random_qp(d, 100 * d + seed)
        x, f = checks.face_minimum(Q, b)
        grid = 0.5 * np.einsum("ni,ij,nj->n", pts, Q, pts) + pts @ b
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert f == pytest.approx(0.5 * x @ Q @ x + b @ x, abs=1e-14)
        # the oracle is exact; the grid misses an interior minimizer by at
        # most half a cell per axis, a second-order error in the value
        assert f <= grid.min() + 1e-12
        half_cell = 0.5 / (n - 1)
        assert grid.min() - f <= 0.5 * np.abs(Q).sum() * d * half_cell ** 2


def levy_inputs():
    return {"qhd_sp": np.array([0.1, 0.6, 0.9]),
            "qaa_sp": np.array([0.05, 0.1]),
            "mass_above": {0.5: 0.34, 10.0: 0.01},
            "residuals": [(0.5, 0, 1e-12), (10.0, 9, 3e-11)],
            "ensembles": {"nagd": (np.array([0.0, 0.4]),
                                   np.array([0.3, 0.01]))}}


def test_levy_check_rejects_lowered_success():
    assert checks.check_levy(**levy_inputs()) == []
    low = levy_inputs()
    low["qhd_sp"] = np.array([0.1, 0.6, 0.45])
    assert checks.check_levy(**low)
    below_qaa = levy_inputs()
    below_qaa["qaa_sp"] = np.array([0.05, 0.95])
    assert checks.check_levy(**below_qaa)


def test_levy_check_rejects_spectra_residuals_and_ensembles():
    cases = [("mass_above", {0.5: 0.01, 10.0: 0.02}),
             ("residuals", [(1.0, 3, 1e-6)]),
             ("ensembles", {"sgd": (np.array([0.0, 1.2]), np.zeros(2))}),
             ("ensembles", {"sgd": (np.zeros(2), np.array([0.1, -1e-3]))})]
    for key, value in cases:
        bad = levy_inputs()
        bad[key] = value
        assert checks.check_levy(**bad), key


def test_norm_check():
    assert checks.check_norms("x", [1.0, 1.0 + 1e-12]) == []
    assert checks.check_norms("x", [1.0, 1.0 + 1e-8])
    assert checks.check_norms("x", [1.0, math.nan])


def convex_inputs():
    beta = lambda t: 2.0 * np.log(t) - np.log(14.0)  # noqa: E731
    times = np.linspace(1.02, 1.2, 10)
    efs = 0.9 * 5.0 * np.exp(-beta(times))
    return {"ws": [5.0, 4.9, 4.8], "times": times, "efs": efs,
            "beta": beta}


def test_convex_check_rejects_increasing_W():
    assert checks.check_convex(**convex_inputs()) == []
    up = convex_inputs()
    up["ws"] = [5.0, 4.9, 4.9 + 2e-3 * 5.0]
    assert checks.check_convex(**up)
    over = convex_inputs()
    over["efs"] = over["efs"] * 1.2
    assert checks.check_convex(**over)


def qp_inputs():
    Q, b = random_qp(3, 7)
    _, f_star = checks.face_minimum(Q, b)
    tf_q, tf_u = checks.relaxed_tf(10.0, 4, 1e-3), 1e-6
    return [{"Q": Q, "b": b, "f_star": f_star,
             "solvers": {"relaxed_qhd": (tf_q, 0.9, 2.0 * tf_q),
                         "uniform_grid": (tf_u, 0.5, 7.0 * tf_u)}}]


def test_qp_check_rejects_tts_off_by_one_repeat():
    assert checks.check_qp(qp_inputs(), 10.0, 4, 1e-3, 1000) == []
    off = qp_inputs()
    tf_u, p_u, tts_u = off[0]["solvers"]["uniform_grid"]
    off[0]["solvers"]["uniform_grid"] = (tf_u, p_u, tts_u + tf_u)
    assert checks.check_qp(off, 10.0, 4, 1e-3, 1000)


def test_qp_check_rejects_truth_tf_and_ps_order():
    truth = qp_inputs()
    truth[0]["f_star"] += 1e-8
    assert checks.check_qp(truth, 10.0, 4, 1e-3, 1000)
    tf = qp_inputs()
    tf_q, p_q, _ = tf[0]["solvers"]["relaxed_qhd"]
    tf[0]["solvers"]["relaxed_qhd"] = (2 * tf_q, p_q, 4 * tf_q)
    assert checks.check_qp(tf, 10.0, 4, 1e-3, 1000)
    order = qp_inputs()
    tf_q = order[0]["solvers"]["relaxed_qhd"][0]
    order[0]["solvers"]["relaxed_qhd"] = (tf_q, 0.4, 10.0 * tf_q)
    assert checks.check_qp(order, 10.0, 4, 1e-3, 1000)


def pool(p_relaxed, p_uniform):
    inst = qp_inputs()[0]
    tf_q, tf_u = checks.relaxed_tf(10.0, 4, 1e-3), 1e-6
    return [dict(inst, solvers={
        "relaxed_qhd": (tf_q, pq, checks.expected_tts(tf_q, pq)),
        "uniform_grid": (tf_u, pu, checks.expected_tts(tf_u, pu))})
        for pq, pu in zip(p_relaxed, p_uniform)]


def test_qp_ps_order_is_tested_up_to_sampling_error():
    # two solvers whose success probabilities nearly agree: 1000 trials
    # each put their means 0.004 apart, well inside three standard errors
    near = pool([1.0, 1.0, 1.0, 0.484], [1.0, 0.981, 1.0, 0.52])
    assert checks.check_qp(near, 10.0, 4, 1e-3, 1000) == []
    # a real gap of 0.05 on every instance is several standard errors
    gap = pool([0.85, 0.9, 0.8, 0.45], [0.9, 0.95, 0.85, 0.5])
    assert checks.check_qp(gap, 10.0, 4, 1e-3, 1000)


def analog_inputs():
    Q, b = random_qp(2, 3)
    r = 3
    marg = [np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.4, 0.3, 0.2, 0.1])]
    return {"ising_marg": marg, "grid_marg": [m.copy() for m in marg],
            "energies": {"model": checks.hamming_energies(Q, b, r)},
            "Q": Q, "b": b, "r": r, "roundtrip_ok": True,
            "decoded": np.array([[0.0, 1.0], [1 / 3, 2 / 3]]),
            "counts": [600, 400], "shots": 1000}


def test_analog_check_rejects_moved_marginal():
    assert checks.check_analog(**analog_inputs()) == []
    moved = analog_inputs()
    moved["ising_marg"][1] = moved["ising_marg"][1] + np.array(
        [1e-5, 0.0, 0.0, 0.0])
    assert checks.check_analog(**moved)


def test_analog_check_rejects_energy_file_and_samples():
    energy = analog_inputs()
    energy["energies"]["model"] = energy["energies"]["model"] + 1e-10
    file = analog_inputs()
    file["roundtrip_ok"] = False
    outside = analog_inputs()
    outside["decoded"] = np.array([[0.0, 1.0 + 1e-9]])
    shots = analog_inputs()
    shots["counts"] = [600, 399]
    for bad in (energy, file, outside, shots):
        assert checks.check_analog(**bad)


def test_checks_accept_program_outputs():
    """The independent formulas agree with qhdkit on small inputs."""
    import qhdkit as qk
    from qhdkit.bench import _solver_trials, multistart_refine

    qp = qk.generate_qp(3, 3, seed=4)
    _, f_star = multistart_refine(qp, 8)
    solvers = {}
    for solver in ({"name": "relaxed_qhd", "resolution": 4, "T": 1.0,
                    "dt": 1e-2, "refine": True},
                   {"name": "uniform_grid", "resolution": 4,
                    "refine": True}):
        p_s, t_f = _solver_trials(solver, qp, f_star, 50, seed=1)
        solvers[solver["name"]] = (t_f, p_s, qk.tts(t_f, p_s))
    inst = {"Q": qp.Q.toarray(), "b": qp.b, "f_star": f_star,
            "solvers": solvers}
    fails = checks.check_qp([inst], 1.0, 4, 1e-3, 50)
    assert not [f for f in fails if "mean p_s" not in f]

    energies = qk.ising.ising_energies(qk.hamming_encode_qp(qp, 3))
    want = checks.hamming_energies(qp.Q.toarray(), qp.b, 3)
    assert np.max(np.abs(energies - want)) <= 1e-12

    pts = np.random.default_rng(0).uniform(0.0, 1.0, (50, 2))
    assert np.allclose(checks.levy_unit(pts), qk.get_objective("levy")(pts),
                       rtol=0, atol=1e-13)


def test_benchmark_json_matches_runner():
    import run
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == (
        run.per_layer_spec())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
