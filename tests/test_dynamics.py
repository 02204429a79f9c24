import concurrent.futures
import math
import multiprocessing
import os
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import qhdkit as qk
from qhdkit import dynamics
from qhdkit import mesh as mesh_mod
from qhdkit.dynamics import Radix2Problem, kinetic_eigenvalues
from qhdkit.errors import (EvaluationError, ResourceError,
                           ScheduleValidationError, StabilityError,
                           StepGridError)
from qhdkit.mesh import success_mask, within_radius
from qhdkit.objectives import Objective


def _flip_apply(psi_nd):
    """Sum over single-bit flips of a state shaped (2,)*n."""
    out = np.zeros_like(psi_nd)
    for ax in range(psi_nd.ndim):
        out += np.flip(psi_nd, axis=ax)
    return out


def test_nesterov_nonconvex_coefficients():
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=0.001)
    assert sched.kind == "two_param"
    assert sched.kinetic_coeff(1.0) == pytest.approx(2.0 / 1.001)
    assert sched.potential_coeff(1.0) == pytest.approx(2.0)
    for t in (0.0, 0.5, 2.0, 7.0):
        assert sched.kinetic_coeff(t) == pytest.approx(2.0 / (0.001 + t ** 3))
        assert sched.potential_coeff(t) == pytest.approx(2.0 * t ** 3)
    # the default stepsize is 1e-3
    default = qk.make_schedule("nesterov_nonconvex")
    assert default.kinetic_coeff(1.0) == sched.kinetic_coeff(1.0)


def test_linear_qaa_schedule():
    sched = qk.make_schedule("linear_qaa", horizon=10.0)
    assert sched.anneal_fraction(0.0) == 0.0
    assert sched.anneal_fraction(5.0) == pytest.approx(0.5)
    assert sched.anneal_fraction(10.0) == 1.0
    assert sched.kind == "piecewise_anneal"
    for t in (0.0, 2.5, 7.0, 10.0, 12.0):
        g = min(t / 10.0, 1.0)
        assert sched.kinetic_coeff(t) == pytest.approx(1.0 - g)
        assert sched.potential_coeff(t) == pytest.approx(g)


def test_custom_piecewise_knots():
    knots = [(0.0, 0.0), (400.0, 0.3), (640.0, 0.6), (800.0, 1.0)]
    sched = qk.make_schedule("custom_piecewise", knots=knots)
    assert sched.anneal_fraction(400.0) == pytest.approx(0.3)
    assert sched.anneal_fraction(520.0) == pytest.approx(0.45)
    assert sched.kind == "piecewise_anneal"
    for t, g in ((0.0, 0.0), (200.0, 0.15), (520.0, 0.45), (720.0, 0.8),
                 (800.0, 1.0), (900.0, 1.0)):
        assert sched.kinetic_coeff(t) == pytest.approx(1.0 - g)
        assert sched.potential_coeff(t) == pytest.approx(g)
    with pytest.raises(ValueError):
        qk.make_schedule("custom_piecewise",
                         knots=[(0.0, 0.0), (1.0, 0.5), (1.0, 1.0)])
    with pytest.raises(ValueError):
        qk.make_schedule("custom_piecewise",
                         knots=[(0.0, 0.1), (1.0, 1.0)])


def test_ideal_scaling_accepts_nesterov_three_param():
    sched = qk.make_schedule("nesterov_three_param")
    assert sched.kinetic_coeff(2.0) == pytest.approx((2.0 / 2.0) / 4.0)
    assert sched.potential_coeff(2.0) == pytest.approx((2.0 / 2.0) * 16.0)
    assert sched.kind == "three_param"
    for t in (0.5, 1.0, 3.0, 10.0):
        # alpha = log(2/t), beta = gamma = 2 log t
        assert sched.kinetic_coeff(t) == pytest.approx(2.0 / t ** 3)
        assert sched.potential_coeff(t) == pytest.approx(2.0 * t ** 3)
        assert sched.alpha(t) == pytest.approx(math.log(2.0 / t))
        assert sched.beta(t) == pytest.approx(2.0 * math.log(t))
        assert sched.gamma(t) == pytest.approx(2.0 * math.log(t))


def test_local_adiabatic_schedule():
    T = 8.0
    sched = qk.make_schedule("local_adiabatic", horizon=T)
    assert sched.kind == "piecewise_anneal"
    # g(t) = 1/2 + tan((2t/T - 1) theta) / (2 sqrt(N - 1)) with N = 2^12
    # and theta = arctan(sqrt(N - 1)), so g runs from 0 to 1 over [0, T]
    root = math.sqrt(2 ** 12 - 1)
    theta = math.atan(root)
    for t in (0.0, 1.0, 3.0, 4.0, 6.5, 8.0):
        g = 0.5 + math.tan((2.0 * t / T - 1.0) * theta) / (2.0 * root)
        assert sched.anneal_fraction(t) == pytest.approx(g, abs=1e-12)
        assert sched.kinetic_coeff(t) == pytest.approx(1.0 - g, abs=1e-12)
        assert sched.potential_coeff(t) == pytest.approx(g, abs=1e-12)
    assert sched.anneal_fraction(0.0) == pytest.approx(0.0, abs=1e-12)
    assert sched.anneal_fraction(T / 2) == pytest.approx(0.5)
    assert sched.anneal_fraction(T) == pytest.approx(1.0)


def test_raw_schedules_keep_their_coefficients():
    kin, pot = (lambda t: 3.0 / t), (lambda t: t ** 2)
    sched = qk.make_schedule("raw", kinetic=kin, potential=pot)
    assert sched.kind == "two_param"
    assert sched.kinetic_coeff is kin and sched.potential_coeff is pot
    alpha, beta = (lambda t: np.log(2.0 / t)), (lambda t: 2.0 * np.log(t))
    sched = qk.make_schedule("three_param_raw", alpha=alpha, beta=beta,
                             gamma=beta)
    assert sched.kind == "three_param"
    assert (sched.alpha, sched.beta, sched.gamma) == (alpha, beta, beta)
    for t in (0.5, 2.0):
        assert sched.kinetic_coeff(t) == pytest.approx(2.0 / t ** 3)
        assert sched.potential_coeff(t) == pytest.approx(2.0 * t ** 3)


@pytest.mark.parametrize("kind, params, key", [
    ("nesterov_nonconvex", {"stepsze": 0.01}, "stepsze"),
    ("nesterov_three_param", {"horizon": 1.0}, "horizon"),
    ("local_adiabatic", {"horizon": 1.0, "levels": 16}, "levels"),
    ("linear_qaa", {}, "horizon"),
    ("local_adiabatic", {}, "horizon"),
    ("custom_piecewise", {}, "knots"),
    ("raw", {"kinetic": lambda t: 1.0}, "potential"),
    ("bogus", {}, "bogus"),
])
def test_make_schedule_rejects_unknown_and_missing_keys(kind, params, key):
    with pytest.raises(ValueError, match=key):
        qk.make_schedule(kind, **params)


@pytest.mark.parametrize("horizon", [0.0, -5.0, math.inf])
@pytest.mark.parametrize("kind", ["linear_qaa", "local_adiabatic"])
def test_annealing_schedules_reject_nonpositive_horizon(kind, horizon):
    with pytest.raises(ValueError, match="horizon"):
        qk.make_schedule(kind, horizon=horizon)


def test_ideal_scaling_rejects_fast_beta():
    # beta = 3 gamma = 6 log t has beta' = 6/t > exp(alpha) = 2/t
    with pytest.raises(ScheduleValidationError):
        qk.make_schedule("three_param_raw",
                         alpha=lambda t: np.log(2.0 / t),
                         beta=lambda t: 6.0 * np.log(t),
                         gamma=lambda t: 2.0 * np.log(t))


def test_ideal_scaling_rejects_wrong_gamma():
    with pytest.raises(ScheduleValidationError):
        qk.make_schedule("three_param_raw",
                         alpha=lambda t: np.log(2.0 / t),
                         beta=lambda t: 2.0 * np.log(t),
                         gamma=lambda t: 3.0 * np.log(t))


def test_kinetic_eigenvalues_layout():
    mesh = qk.Mesh(1, 8, qk.PERIODIC)
    eigs = kinetic_eigenvalues(mesh)
    k = np.array([0, 1, 2, 3, -4, -3, -2, -1], dtype=float)
    assert np.allclose(eigs, 0.5 * (2 * np.pi * k) ** 2)


def test_qhd_free_evolution_preserves_uniform_density():
    mesh = qk.Mesh(2, 16, qk.PERIODIC)
    zero = Objective(dim=2,
                     eval_fn=lambda x: np.zeros(len(np.atleast_2d(x))))
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    traj = qk.qhd_evolve(mesh, zero, sched, 1.0, 1e-2)
    final = traj.final_state
    assert np.max(np.abs(final.density() - 1.0 / mesh.size)) < 1e-10


def test_qhd_rejects_dirichlet_mesh():
    mesh = qk.Mesh(1, 8, qk.DIRICHLET)
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    with pytest.raises(ValueError):
        qk.qhd_evolve(mesh, qk.get_objective("levy"), sched, 1.0, 1e-2)


def test_qhd_norm_preservation():
    mesh = qk.Mesh(2, 32, qk.PERIODIC)
    f = qk.get_objective("levy")
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    traj = qk.qhd_evolve(mesh, f, sched, 10.0, 1e-3)
    drift = np.abs(traj.observables["norm"] - 1.0)
    assert drift.max() <= 1e-8  # 10^4 exact phase multiplications


def test_qhd_snapshot_grid_validation():
    mesh = qk.Mesh(1, 8, qk.PERIODIC)
    f = qk.get_objective("levy", rescaled=False)
    f1 = Objective(dim=1, eval_fn=lambda x: np.atleast_2d(x)[:, 0] ** 2)
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    with pytest.raises(ValueError):
        qk.qhd_evolve(mesh, f1, sched, 1.0, 1e-2, snapshot_times=[0.555])


def _reference_split_steps(mesh, fvals, sched, t0, n_steps, dt, psi):
    """States after each step of the textbook split step: a full-grid
    potential phase, then a full-grid kinetic phase between fftn and ifftn,
    coefficients sampled at the end of each step."""
    kin = kinetic_eigenvalues(mesh)
    fvals = fvals.reshape(mesh.shape)
    psi = psi.reshape(mesh.shape)
    states = []
    for j in range(n_steps):
        te = t0 + (j + 1) * dt
        psi = np.exp(-1j * dt * sched.potential_coeff(te) * fvals) * psi
        psi = np.fft.ifftn(np.exp(-1j * dt * sched.kinetic_coeff(te) * kin)
                           * np.fft.fftn(psi))
        states.append(psi.reshape(-1))
    return states


def _random_state(mesh, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=mesh.size) + 1j * rng.normal(size=mesh.size)
    return qk.WaveFunction(mesh, amp / np.linalg.norm(amp))


@pytest.mark.parametrize("dim, n", [(1, 32), (2, 16), (3, 8)])
def test_qhd_evolve_matches_reference_split_step(dim, n):
    mesh = qk.Mesh(dim, n, qk.PERIODIC)
    x_star = np.full(dim, 0.3)
    f = Objective(dim=dim, minimizer=x_star, eval_fn=lambda x: 40.0 * np.sum(
        (np.atleast_2d(x) - 0.3) ** 2, axis=1) + np.cos(9.0 * x[:, 0]))
    sched = qk.make_schedule("nesterov_three_param")
    t0, dt, n_steps, stride = 0.5, 1e-2, 30, 4
    psi0 = _random_state(mesh, seed=dim)
    traj = qk.qhd_evolve(mesh, f, sched, t0 + n_steps * dt, dt, psi0,
                         snapshot_times=[0.6, 0.7], t0=t0,
                         success_radius=0.2, observable_stride=stride)

    fvals = qk.discretize_objective(mesh, f).values
    smask = success_mask(mesh, x_star, 0.2)
    ref = _reference_split_steps(mesh, fvals, sched, t0, n_steps, dt,
                                 psi0.amplitudes)
    steps = [s for s in range(1, n_steps + 1)
             if s % stride == 0 or s == n_steps]
    np.testing.assert_allclose(traj.times, [t0 + s * dt for s in steps])
    prob = np.array([np.abs(ref[s - 1]) ** 2 for s in steps])
    norm = prob.sum(axis=1)
    np.testing.assert_allclose(traj.observables["norm"], norm,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.observables["Ef"],
                               prob @ fvals / norm, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(traj.observables["success_prob"],
                               prob[:, smask].sum(axis=1) / norm,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(traj.snapshot_times, [0.6, 0.7, 0.8])
    for snap, s in zip(traj.snapshots, (10, 20, 30)):
        want = ref[s - 1] / np.linalg.norm(ref[s - 1])
        np.testing.assert_allclose(snap.amplitudes, want, rtol=0, atol=1e-12)


def test_qhd_evolve_leaves_psi0_and_snapshots_alone():
    mesh = qk.Mesh(2, 16, qk.PERIODIC)
    f = qk.get_objective("levy")
    sched = qk.make_schedule("nesterov_three_param")
    psi0 = _random_state(mesh, seed=7)
    before = psi0.amplitudes.copy()
    traj = qk.qhd_evolve(mesh, f, sched, 1.3, 1e-2, psi0,
                         snapshot_times=[1.1, 1.2], t0=1.0)
    assert np.array_equal(psi0.amplitudes, before)

    # each snapshot holds the state at its own time, not a view of the
    # state the later in-place steps go on to overwrite
    ref = _reference_split_steps(mesh, qk.discretize_objective(mesh, f).values,
                                 sched, 1.0, 30, 1e-2, before)
    for snap, s in zip(traj.snapshots, (10, 20, 30)):
        np.testing.assert_allclose(snap.amplitudes, ref[s - 1], rtol=0,
                                   atol=1e-12)
    amps = [snap.amplitudes for snap in traj.snapshots]
    assert not np.allclose(amps[0], amps[1])
    assert not any(np.shares_memory(a, b) for i, a in enumerate(amps)
                   for b in amps[i + 1:])


def _state_sizes_used(what, working_memory):
    """Working memory of one 256² `what` call, in state sizes."""
    mesh = qk.Mesh(2, 256, qk.PERIODIC)
    f = qk.get_objective("levy")
    fop = qk.discretize_objective(mesh, f)
    sched = qk.make_schedule("nesterov_three_param")
    psi = qk.gaussian_state(mesh, [0.4, 0.6], 0.01)
    call = {
        "qhd_evolve": lambda: qk.qhd_evolve(
            mesh, fop, sched, 1.03, 1e-2, t0=1.0, x_star=f.minimizer,
            observable_stride=1),
        "lyapunov_W": lambda: qk.lyapunov_W(psi, sched, 1.0, fop,
                                            f.minimizer),
        "gaussian_state": lambda: qk.gaussian_state(mesh, [0.4, 0.6], 0.01),
        "WaveFunction": lambda: qk.WaveFunction(mesh, psi.amplitudes),
    }[what]
    return working_memory(call) / psi.amplitudes.nbytes


@pytest.mark.parametrize("what, bound", [
    ("qhd_evolve", 3.0), ("lyapunov_W", 2.5), ("gaussian_state", 2.5)])
def test_working_memory_in_state_sizes(what, bound, working_memory):
    # beyond the caller's arrays a split step needs the state and one phase
    # buffer, and an observation one float density; whole-grid coordinate
    # tables and copies of the state are what these bounds keep out
    used = _state_sizes_used(what, working_memory)
    assert used <= bound, f"{what} used {used:.2f} states of working memory"


@pytest.mark.parametrize("what, bound", [
    ("qhd_evolve", 2.0), ("lyapunov_W", 1.0)])
def test_block_buffers_keep_working_memory_below_state_sizes(
        what, bound, working_memory):
    # a split step makes its potential phase in block-sized buffers and the
    # monitor forms J psi on blocks of lines into one float density, so
    # neither holds a full-grid complex phase or momentum buffer
    used = _state_sizes_used(what, working_memory)
    assert used <= bound, f"{what} used {used:.2f} states of working memory"


@pytest.mark.parametrize("what, bound", [
    ("qhd_evolve", 1.4), ("WaveFunction", 0.1), ("gaussian_state", 1.25)])
def test_block_sums_keep_working_memory_near_the_state(what, bound,
                                                       working_memory):
    # observations, normalizations and norm checks sum |psi|^2 one block at
    # a time, and gaussian_state makes its density in the real part of its
    # result, so none of them holds a full-grid float density
    used = _state_sizes_used(what, working_memory)
    assert used <= bound, f"{what} used {used:.2f} states of working memory"


def _whole_density_observables(psi, fvals, smask):
    """Norm, success mass, E[f] and normalized state by the recorder's
    earlier formulas, each from one whole-grid density."""
    prob = np.abs(psi.reshape(-1)) ** 2
    nrm = float(prob.sum())
    return (nrm, float(np.sum(prob[smask.reshape(-1)])) / nrm,
            float(np.sum(prob * fvals.reshape(-1))) / nrm,
            psi.reshape(-1) / np.sqrt(np.sum(prob)))


@pytest.mark.parametrize("shape", [(4097,), (5000,), (64, 64), (100, 100),
                                   (130, 130), (20, 20, 20)])
def test_recorder_block_sums_keep_whole_density_bits(shape):
    rng = np.random.default_rng(sum(shape))
    scale = 10.0 ** rng.uniform(-3, 3, shape)
    psi = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    fvals = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
    one = np.zeros(shape, dtype=bool)
    one.flat[rng.integers(psi.size)] = True
    for smask in (one, np.zeros(shape, dtype=bool), rng.random(shape) < 0.1):
        rec = dynamics._Recorder(0.0, 2.0, 1.0, fvals, smask,
                                 snapshot_times=[1.0])
        rec.record(1, psi)
        traj = rec.finish(psi.copy())
        nrm, sp, ef, unit = _whole_density_observables(psi, fvals, smask)
        assert traj.observables["norm"].tolist() == [nrm]
        assert traj.observables["success_prob"].tolist() == [sp]
        assert traj.observables["Ef"].tolist() == [ef]
        assert np.array_equal(traj.snapshots[0], unit)
        assert np.array_equal(traj.snapshots[1], unit)


def test_qhd_observables_on_two_slabs_keep_whole_density_bits(monkeypatch):
    # 512^2 on two slabs: 64 leaves of 4096 nodes per sum; success regions
    # of one node and of none
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    mesh = qk.Mesh(2, 512, qk.PERIODIC)
    assert dynamics._slab_count(mesh) == 2
    fop = qk.discretize_objective(mesh, lambda x: 40.0 * np.sum(
        (x - 0.3) ** 2, axis=1) + np.cos(9.0 * x[:, 0]))
    sched = qk.make_schedule("nesterov_three_param")
    psi0 = _random_state(mesh, seed=512)
    ref = _fftn_split_steps(mesh, fop.values, sched, 1.0, 2, 1e-3,
                            psi0.amplitudes)
    node = mesh.node_coords()[100 * 512 + 200]
    for x_star, nodes in ((node, 1), (node + 0.5 / 512, 0)):
        traj = qk.qhd_evolve(mesh, fop, sched, 1.002, 1e-3, psi0,
                             snapshot_times=[1.001], t0=1.0, x_star=x_star,
                             success_radius=0.25 / 512)
        smask = success_mask(mesh, x_star, 0.25 / 512)
        assert np.count_nonzero(smask) == nodes
        for s in (1, 2):
            nrm, sp, ef, unit = _whole_density_observables(
                ref[s - 1], fop.values, smask)
            assert traj.observables["norm"][s - 1] == nrm
            assert traj.observables["success_prob"][s - 1] == sp
            assert traj.observables["Ef"][s - 1] == ef
            assert np.array_equal(traj.snapshots[s - 1].amplitudes, unit)


def _fftn_split_steps(mesh, fvals, sched, t0, n_steps, dt, psi):
    """States after each step of the whole-grid in-place loop: cos/sin
    potential phase as the second operand, fftn, the per-axis kinetic
    phases from axis 0 on, ifftn; the slab stages must keep its bits."""
    fvals = fvals.reshape(mesh.shape)
    psi = psi.reshape(mesh.shape).copy()
    kin_axis = np.fft.fftfreq(mesh.nodes_per_edge, d=1.0 / mesh.nodes_per_edge)
    kin_axis = 0.5 * (2.0 * np.pi * kin_axis) ** 2
    angle = np.empty(mesh.shape)
    phase = np.empty(mesh.shape, dtype=complex)
    states = []
    for j in range(n_steps):
        te = t0 + (j + 1) * dt
        np.multiply(-dt * sched.potential_coeff(te), fvals, out=angle)
        np.cos(angle, out=phase.real)
        np.sin(angle, out=phase.imag)
        psi *= phase
        np.fft.fftn(psi, out=psi)
        kin_phase = np.exp(-1j * dt * sched.kinetic_coeff(te) * kin_axis)
        for ax in range(mesh.dim):
            psi *= kin_phase.reshape([-1 if a == ax else 1
                                      for a in range(mesh.dim)])
        np.fft.ifftn(psi, out=psi)
        states.append(psi.reshape(-1).copy())
    return states


@pytest.mark.parametrize("dim, n", [(2, 22), (3, 10)])
def test_qhd_slab_path_matches_one_slab_bitwise(dim, n, monkeypatch):
    mesh = qk.Mesh(dim, n, qk.PERIODIC)
    x_star = np.full(dim, 0.3)
    f = Objective(dim=dim, minimizer=x_star, eval_fn=lambda x: 40.0 * np.sum(
        (np.atleast_2d(x) - 0.3) ** 2, axis=1) + np.cos(9.0 * x[:, 0]))
    sched = qk.make_schedule("nesterov_three_param")
    psi0 = _random_state(mesh, seed=dim)
    before = psi0.amplitudes.copy()

    def run():
        return qk.qhd_evolve(mesh, f, sched, 0.8, 1e-2, psi0,
                             snapshot_times=[0.6, 0.7], t0=0.5,
                             success_radius=0.2, observable_stride=3)

    assert dynamics._slab_count(mesh) == 1
    one = run()
    ref = _fftn_split_steps(mesh, qk.discretize_objective(mesh, f).values,
                            sched, 0.5, 30, 1e-2, before)
    for snap, s in zip(one.snapshots, (10, 20, 30)):
        want = ref[s - 1] / np.sqrt(np.sum(np.abs(ref[s - 1]) ** 2))
        assert np.array_equal(snap.amplitudes, want)
    # four uneven slabs (22 rows: 5, 6, 5, 6; 10 rows: 2, 3, 2, 3) on a
    # fresh pool of three workers, more threads than this host may have,
    # switching threads as often as the interpreter allows
    monkeypatch.setattr(dynamics, "SLAB_NODES", 1)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 4)
    assert dynamics._slab_count(mesh) == 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sliced = run()
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(psi0.amplitudes, before)
    assert np.array_equal(sliced.snapshot_times, one.snapshot_times)
    assert len(sliced.snapshots) == len(one.snapshots) == 3
    for a, b in zip(sliced.snapshots, one.snapshots):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.array_equal(sliced.times, one.times)
    for key in ("Ef", "success_prob", "norm"):
        assert np.array_equal(sliced.observables[key], one.observables[key])


@pytest.mark.parametrize("dim, n, block, slabs", [
    (1, 50, 7, 1),          # 8 blocks of 6 or 7 nodes
    (1, 4097, 4096, 1),     # 2048 and 2049 nodes, not 4096 and a lone node
    (2, 22, 22, 1),         # single rows
    (2, 22, 70, 1),         # 8 blocks of 2 or 3 rows
    (3, 10, 100, 1),        # single rows of a 3-D grid
    (3, 10, 350, 1),        # 2, 3, 2, 3 rows
    (2, 22, 70, 2),         # two slabs of 11 rows, each 2, 3, 3, 3
    (3, 10, 100, 2),        # two slabs of 5 single rows
])
def test_qhd_phase_row_blocks_match_whole_grid_bitwise(dim, n, block, slabs,
                                                       monkeypatch):
    # the potential phase made block by block, some blocks single rows and
    # some ending unevenly, keeps the bits of the whole-grid phase
    mesh = qk.Mesh(dim, n, qk.PERIODIC)
    x_star = np.full(dim, 0.3)
    fop = qk.discretize_objective(mesh, lambda x: 40.0 * np.sum(
        (x - 0.3) ** 2, axis=1) + np.cos(9.0 * x[:, 0]))
    sched = qk.make_schedule("nesterov_three_param")
    psi0 = _random_state(mesh, seed=dim)

    def run():
        return qk.qhd_evolve(mesh, fop, sched, 0.8, 1e-2, psi0,
                             snapshot_times=[0.6, 0.7], t0=0.5, x_star=x_star,
                             success_radius=0.2, observable_stride=3)

    whole = run()
    monkeypatch.setattr(qk.mesh, "GRID_BLOCK", block)
    if slabs > 1:
        monkeypatch.setattr(dynamics, "SLAB_NODES", 1)
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: slabs)
    assert dynamics._slab_count(mesh) == slabs
    blocked = run()
    ref = _fftn_split_steps(mesh, fop.values, sched, 0.5, 30, 1e-2,
                            psi0.amplitudes)
    for snap, s in zip(blocked.snapshots, (10, 20, 30)):
        want = ref[s - 1] / np.sqrt(np.sum(np.abs(ref[s - 1]) ** 2))
        assert np.array_equal(snap.amplitudes, want)
    for key in ("Ef", "success_prob", "norm"):
        assert np.array_equal(blocked.observables[key], whole.observables[key])


def test_qhd_small_and_1d_grids_never_reach_the_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was made")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 4)
    # the slab rule: min(usable CPUs, nodes // 2^17), at least 1, on d >= 2
    assert dynamics.SLAB_NODES == 2 ** 17
    for dim, n, slabs in [(2, 362, 1), (2, 363, 1), (2, 512, 2),
                          (2, 1024, 4), (3, 64, 2), (1, 2 ** 20, 1)]:
        assert dynamics._slab_count(qk.Mesh(dim, n, qk.PERIODIC)) == slabs
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    assert dynamics._slab_count(qk.Mesh(2, 1024, qk.PERIODIC)) == 1
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 4)

    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    # 362^2 = 131 044 nodes, just below 2^17, and a 2^18-node line
    for mesh in (qk.Mesh(2, 362, qk.PERIODIC), qk.Mesh(1, 2 ** 18,
                                                          qk.PERIODIC)):
        f = Objective(dim=mesh.dim, eval_fn=lambda x: np.sum(
            (np.atleast_2d(x) - 0.5) ** 2, axis=1))
        traj = qk.qhd_evolve(mesh, f, sched, 1.02, 1e-2, t0=1.0)
        assert abs(traj.observables["norm"][-1] - 1.0) < 1e-12


def test_qhd_slab_pool_threads_end_with_the_call(monkeypatch):
    monkeypatch.setattr(dynamics, "SLAB_NODES", 1)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    mesh = qk.Mesh(2, 16, qk.PERIODIC)
    f = qk.get_objective("levy")

    def pool_threads():
        return [t.name for t in threading.enumerate()
                if t.name.startswith("qhdkit-slab")]

    qk.qhd_evolve(mesh, f, qk.make_schedule("nesterov_nonconvex"), 1.05,
                  1e-2, t0=1.0)
    assert pool_threads() == []

    def potential(t):
        if t > 1.025:
            raise RuntimeError("schedule failed")
        return t

    failing = qk.make_schedule("raw", kinetic=lambda t: 1.0,
                               potential=potential)
    with pytest.raises(RuntimeError, match="schedule failed"):
        qk.qhd_evolve(mesh, f, failing, 1.05, 1e-2, t0=1.0)
    assert pool_threads() == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_qhd_slab_pool_is_remade_in_a_forked_child(monkeypatch):
    # a forked child has none of the parent's threads; its call must make
    # its own pool and not wait on threads it lacks
    monkeypatch.setattr(dynamics, "SLAB_NODES", 1)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    mesh = qk.Mesh(2, 16, qk.PERIODIC)
    f, sched = qk.get_objective("levy"), qk.make_schedule("nesterov_nonconvex")

    def run():
        qk.qhd_evolve(mesh, f, sched, 1.05, 1e-2, t0=1.0)

    run()
    with warnings.catch_warnings():
        # Python >= 3.12 warns on any fork of a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        child = multiprocessing.get_context("fork").Process(target=run)
        child.start()
    child.join(60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join(10)
    assert not hung
    assert child.exitcode == 0


def _run_engine(engine, T, dt, **kw):
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    if engine == "qhd":
        f1 = Objective(dim=1, eval_fn=lambda x: np.atleast_2d(x)[:, 0] ** 2)
        return qk.qhd_evolve(qk.Mesh(1, 8, qk.PERIODIC), f1, sched, T, dt,
                             **kw)
    if engine == "relaxed":
        qp = qk.QpInstance(1, sp.csr_matrix(np.array([[1.0]])), np.zeros(1))
        return qk.relaxed_qhd_evolve(qp, 2, sched, T, dt, **kw)
    if engine == "qaa":
        return qk.qaa_evolve(np.arange(4.0),
                             qk.make_schedule("linear_qaa", horizon=T),
                             T, dt, **kw)
    model = qk.IsingModel(n=2, h=np.ones(2), J={}, offset=0.0)
    return qk.simulate_ising_dense(model, (lambda t: 1.0, lambda t: 1.0),
                                   T, dt, **kw)


@pytest.mark.parametrize("engine", ["qhd", "relaxed", "qaa", "dense"])
def test_engines_reject_fractional_step_count(engine):
    # 1.0 / 0.03 steps: the horizon would otherwise be silently moved to 0.99
    with pytest.raises(StepGridError):
        _run_engine(engine, 1.0, 0.03)
    _run_engine(engine, 0.9, 0.03)   # a whole number of steps runs


@pytest.mark.parametrize("engine", ["qhd", "relaxed", "qaa", "dense"])
@pytest.mark.parametrize("T, dt, name", [(math.inf, 0.1, "T - t0"),
                                         (1.0, math.nan, "dt")],
                         ids=["T-inf", "dt-nan"])
def test_engines_reject_non_finite_horizon_or_step(engine, T, dt, name):
    # T = inf used to end in an OverflowError from the step count and
    # dt = nan in numpy's "cannot convert float NaN to integer"; the QAA
    # schedule takes T as its horizon and names that first
    with pytest.raises(ValueError,
                       match=rf"^({name}|horizon) must be finite and > 0, "):
        _run_engine(engine, T, dt)


@pytest.mark.parametrize("engine", ["qhd", "relaxed", "qaa"])
def test_final_step_recorded_whatever_the_stride(engine):
    traj = _run_engine(engine, 0.1, 1e-2, observable_stride=4)
    np.testing.assert_allclose(traj.times, [0.04, 0.08, 0.1])
    assert len(traj.observables["norm"]) == 3
    assert traj.snapshot_times[-1] == pytest.approx(0.1)


@pytest.mark.parametrize("engine", ["qhd", "relaxed", "qaa"])
@pytest.mark.parametrize("stride", [0, -3, 2.5, True])
def test_engines_reject_bad_stride(engine, stride):
    # 0 used to raise ZeroDivisionError after the first step, -3 recorded
    # every third step and 2.5 every fifth
    with pytest.raises(ValueError, match="observable stride"):
        _run_engine(engine, 0.1, 1e-2, observable_stride=stride)


def test_quadratic_closed_form_rate():
    # width dynamics of the damped quadratic evolution admit an independent
    # Riccati oracle: y' = -2i (t^3 y^2 - t^{-3}), sigma^2 = 1/(2 Re(1/y)),
    # E[f] = sigma^2 / 2 for f = x^2/2
    L, N, t0, T, dt = 16.0, 512, 1.0, 6.0, 1e-3

    def fx(pts):
        x = L * (pts[:, 0] - 0.5)
        return 0.5 * x ** 2

    f = Objective(dim=1, eval_fn=fx, minimizer=np.array([0.5]), f_min=0.0)
    mesh = qk.Mesh(1, N, qk.PERIODIC)
    sched = qk.make_schedule("raw", kinetic=lambda t: (2.0 / t ** 3) / L ** 2,
                             potential=lambda t: 2.0 * t ** 3)
    psi0 = qk.gaussian_state(mesh, [0.5], 1.0 / L ** 2)
    traj = qk.qhd_evolve(mesh, f, sched, T, dt, psi0=psi0, t0=t0,
                         observable_stride=20)

    def rhs(t, yv):
        y = yv[0] + 1j * yv[1]
        dy = -2j * (t ** 3 * y ** 2 - t ** -3)
        return [dy.real, dy.imag]

    sol = solve_ivp(rhs, (t0, T), [2.0, 0.0], rtol=1e-11, atol=1e-13,
                    dense_output=True)
    ts = traj.times
    yy = sol.sol(ts)
    y = yy[0] + 1j * yy[1]
    ef_oracle = (1.0 / (2.0 * np.real(1.0 / y))) / 2.0
    rel = np.abs(traj.observables["Ef"] - ef_oracle) / ef_oracle
    assert np.median(rel) < 0.05


def test_radix2_problem_examples():
    f1 = Objective(dim=1, eval_fn=lambda x: np.atleast_2d(x)[:, 0])
    prob = qk.radix2_problem(f1, 1)
    assert np.allclose(prob.diag, [0.0, 0.5])
    assert prob.decode("0") == pytest.approx(0.0)
    assert prob.decode("1") == pytest.approx(0.5)

    levy = qk.get_objective("levy")
    prob7 = qk.radix2_problem(levy, 7)
    assert prob7.diag.size == 2 ** 14
    # first variable owns the most significant block
    idx = (3 << 7) | 5
    assert np.allclose(prob7.points[idx], [3 / 128, 5 / 128])
    assert prob7.diag[idx] == pytest.approx(levy(np.array([3 / 128, 5 / 128])))


def test_radix2_encoding_creates_spurious_minima():
    # a convex parabola picks up extra hypercube-local minima under the
    # binary-fraction encoding
    f = Objective(dim=1,
                  eval_fn=lambda x: (np.atleast_2d(x)[:, 0] - 0.51) ** 2)
    prob = qk.radix2_problem(f, 4)
    n_local = 0
    for b in range(16):
        neighbors = [b ^ (1 << q) for q in range(4)]
        if all(prob.diag[b] < prob.diag[m] for m in neighbors):
            n_local += 1
    assert n_local >= 2


def test_qaa_zero_diagonal_stays_uniform():
    diag = np.zeros(2 ** 6)
    sched = qk.make_schedule("linear_qaa", horizon=2.0)
    traj = qk.qaa_evolve(diag, sched, 2.0, 1e-3)
    psi = traj.final_state
    dens = np.abs(psi) ** 2
    assert np.max(np.abs(dens - 1.0 / dens.size)) < 1e-8


def test_qaa_two_level_adiabatic_limit():
    # n = 1, H1 = diag(0, 1): slow linear anneal concentrates on bit 0;
    # cross-checked against a dense integration oracle
    diag = np.array([0.0, 1.0])
    T = 50.0
    sched = qk.make_schedule("linear_qaa", horizon=T)
    traj = qk.qaa_evolve(diag, sched, T, 1e-3)
    psi = traj.final_state
    p0 = abs(psi[0]) ** 2
    assert p0 > 0.95

    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h1 = np.diag(diag)

    def rhs(t, yv):
        psi_c = yv[:2] + 1j * yv[2:]
        g = t / T
        h = -(1 - g) * sx + g * h1
        dpsi = -1j * (h @ psi_c)
        return np.concatenate([dpsi.real, dpsi.imag])

    y0 = np.concatenate([np.full(2, 1 / np.sqrt(2)), np.zeros(2)])
    sol = solve_ivp(rhs, (0, T), y0, rtol=1e-10, atol=1e-12)
    psi_oracle = sol.y[:2, -1] + 1j * sol.y[2:, -1]
    assert abs(p0 - abs(psi_oracle[0]) ** 2) < 1e-4


def test_qaa_leapfrog_reversibility():
    f = qk.get_objective("levy")
    prob = qk.radix2_problem(f, 3)
    n = 6
    shape = (2,) * n
    diag_nd = prob.diag.reshape(shape)
    T, dt = 1.0, 1e-3
    g = lambda t: t / T

    def h_apply(v, t):
        return -(1 - g(t)) * _flip_apply(v) + g(t) * diag_nd * v

    rng = np.random.default_rng(0)
    R0 = rng.standard_normal(shape)
    R0 /= np.linalg.norm(R0)
    I0 = -0.5 * dt * h_apply(R0, 0.0)
    R, I = R0.copy(), I0.copy()
    n_steps = int(T / dt)
    for k in range(n_steps):
        R = R + dt * h_apply(I, (k + 0.5) * dt)
        I = I - dt * h_apply(R, (k + 1) * dt)
    # reverse: negate the step and walk the time grid backwards
    for k in range(n_steps - 1, -1, -1):
        I = I + dt * h_apply(R, (k + 1) * dt)
        R = R - dt * h_apply(I, (k + 0.5) * dt)
    assert np.max(np.abs(R - R0)) < 1e-8
    assert np.max(np.abs(I - I0)) < 1e-8


def test_qaa_stability_error_on_large_dt():
    diag = np.linspace(0.0, 5.0, 2 ** 4)
    sched = qk.make_schedule("linear_qaa", horizon=1.0)
    with pytest.raises(StabilityError):
        qk.qaa_evolve(diag, sched, 1.0, 0.5)


def _never(t):
    raise AssertionError("the schedule was called")


_NEVER = qk.Schedule(kinetic_coeff=_never, potential_coeff=_never,
                     anneal_fraction=_never)


def test_qaa_success_mask_in_row_blocks_keeps_whole_batch_bits(monkeypatch):
    masks = []

    class Spy(dynamics._Recorder):
        def __init__(self, t0, T, dt, fvals, smask=None, **kw):
            masks.append(smask)
            super().__init__(t0, T, dt, fvals, smask, **kw)

    monkeypatch.setattr(dynamics, "_Recorder", Spy)
    # 1024 points in ten blocks of 100 and one of 24
    monkeypatch.setattr(mesh_mod, "GRID_BLOCK", 100)
    f = qk.get_objective("levy")
    prob = qk.radix2_problem(f, 5)
    qk.qaa_evolve(prob.diag, qk.make_schedule("linear_qaa", horizon=0.1),
                  0.1, 1e-2, points=prob.points, x_star=f.minimizer,
                  radius=0.3)
    want = within_radius(prob.points, f.minimizer, 0.3)
    assert 0 < np.count_nonzero(want) < want.size
    assert masks[0].dtype == bool and np.array_equal(masks[0], want)


def test_qaa_success_mask_works_in_block_sized_memory(working_memory):
    # one whole-batch within_radius over the 2^20 points (16 MiB) took
    # +48 MiB; a dt far past the stability limit stops the call right
    # after its recorder, success mask included, is built
    f = qk.get_objective("levy")
    prob = qk.radix2_problem(f, 10)

    def call():
        with pytest.raises(StabilityError):
            qk.qaa_evolve(prob.diag, _NEVER, 1.0, 1.0, points=prob.points,
                          x_star=f.minimizer, radius=0.1)

    used = working_memory(call)
    assert used <= prob.points.nbytes / 4, f"{used / 2 ** 20:.1f} MiB"


def _leapfrog_qaa(diag, T, dt):
    """The staggered leapfrog that integrated QAA before the Strang loop,
    kept as an independent oracle: R and I advance half a step apart under
    H(t) = -(1 - t/T) sum sigma_x + (t/T) diag, and I is pulled back to T."""
    n = int(np.log2(diag.size))
    diag_nd = diag.reshape((2,) * n)

    def h_apply(v, t):
        g = t / T
        return -(1 - g) * _flip_apply(v) + g * diag_nd * v

    R = np.full(diag_nd.shape, 1.0 / np.sqrt(diag.size))
    I = -0.5 * dt * h_apply(R, 0.0)
    n_steps = int(round(T / dt))
    for k in range(n_steps):
        R = R + dt * h_apply(I, (k + 0.5) * dt)
        I = I - dt * h_apply(R, (k + 1) * dt)
    psi = (R + 1j * (I + 0.5 * dt * h_apply(R, T))).reshape(-1)
    return psi / np.linalg.norm(psi)


def test_qaa_matches_leapfrog_oracle():
    # both integrators are second order: a tenth of dt, a hundredth of the gap
    diag = qk.radix2_problem(qk.get_objective("levy"), 3).diag
    T = 1.0
    sched = qk.make_schedule("linear_qaa", horizon=T)
    for dt, tol in ((1e-3, 1e-6), (1e-4, 1e-8)):
        got = qk.qaa_evolve(diag, sched, T, dt).final_state
        gap = np.max(np.abs(got - _leapfrog_qaa(diag, T, dt)))
        assert gap < tol, (dt, gap)


def test_qaa_matches_dense_strang_product():
    # each step is expm(-i dt/2 g D) expm(i dt (1 - g) Sx) expm(-i dt/2 g D)
    # with g at the step midpoint, Sx the dense sum of sigma_x over 4 qubits
    n, T, dt = 4, 1.0, 0.05
    diag = np.random.default_rng(7).uniform(-1.0, 2.0, 2 ** n)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    Sx = sum(np.kron(np.kron(np.eye(2 ** q), sx), np.eye(2 ** (n - q - 1)))
             for q in range(n))
    D = np.diag(diag)
    psi = np.full(2 ** n, 0.25, dtype=complex)
    for k in range(20):
        g = (k + 0.5) * dt / T
        half = expm(-0.5j * dt * g * D)
        psi = half @ (expm(1j * dt * (1 - g) * Sx) @ (half @ psi))
    traj = qk.qaa_evolve(diag, qk.make_schedule("linear_qaa", horizon=T), T,
                         dt)
    assert np.max(np.abs(traj.final_state - psi)) < 1e-12
    assert np.max(np.abs(traj.observables["norm"] - 1.0)) < 1e-12


def test_qaa_step_guard_boundary():
    # 2n = 8 > ptp(diag) = 5, so the guard allows dt up to pi/8 = 0.3927
    diag = np.linspace(0.0, 5.0, 2 ** 4)
    for shifted in (diag, diag + 100.0):   # a shift is a global phase
        traj = qk.qaa_evolve(shifted, qk.make_schedule("linear_qaa",
                                                       horizon=0.39),
                             0.39, 0.39)
        assert abs(traj.observables["norm"][-1] - 1.0) < 1e-12
    with pytest.raises(StabilityError, match="reduce dt"):
        qk.qaa_evolve(diag, _NEVER, 0.4, 0.4)
    # ptp(diag) = 20 > 2n: the bound is pi/20 = 0.157
    wide = np.linspace(0.0, 20.0, 2 ** 4)
    qk.qaa_evolve(wide, qk.make_schedule("linear_qaa", horizon=0.15), 0.15,
                  0.15)
    with pytest.raises(StabilityError):
        qk.qaa_evolve(wide, _NEVER, 0.16, 0.16)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qaa_rejects_non_finite_diag_before_any_step(bad):
    # a NaN used to surface after the first step as a StabilityError that
    # advised a smaller dt
    diag = np.linspace(0.0, 5.0, 2 ** 4)
    diag[5] = diag[11] = bad
    with pytest.raises(EvaluationError) as err:
        qk.qaa_evolve(diag, _NEVER, 1.0, 1e-3, observable_stride=100)
    assert err.value.index == 5


@pytest.mark.parametrize("size", [0, 1, 3, 6])
def test_qaa_rejects_bad_diag_length(size):
    # 0 used to fail as an OverflowError from log2, 1 ran a 0-qubit evolution
    with pytest.raises(ValueError, match="power of two"):
        qk.qaa_evolve(np.zeros(size), _NEVER, 1.0, 0.1)


def test_dense_caps_raise_resource_error():
    # a broadcast view holds 2^25 entries without allocating them
    with pytest.raises(ResourceError, match="25 bits"):
        qk.qaa_evolve(np.broadcast_to(0.0, 2 ** 25), _NEVER, 1.0, 0.1)
    f = Objective(dim=5, eval_fn=lambda x: np.atleast_2d(x)[:, 0])
    with pytest.raises(ResourceError, match="25 bits"):
        qk.radix2_problem(f, 5)


def test_dilate_identity():
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    d = qk.dilate_schedule(sched, lambda t: t, lambda t: 1.0)
    for t in (0.5, 1.0, 3.0):
        assert d.kinetic_coeff(t) == pytest.approx(sched.kinetic_coeff(t))
        assert d.potential_coeff(t) == pytest.approx(sched.potential_coeff(t))


def test_dilate_coefficient_doubling():
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    d = qk.dilate_schedule(sched, lambda t: 2.0 * t, lambda t: 2.0)
    for t in (0.25, 1.0, 2.0):
        assert d.kinetic_coeff(t) == pytest.approx(
            2.0 * sched.kinetic_coeff(2.0 * t))
        assert d.potential_coeff(t) == pytest.approx(
            2.0 * sched.potential_coeff(2.0 * t))


def test_dilate_three_param_preserves_ideal_scaling():
    sched = qk.make_schedule("nesterov_three_param")
    d = qk.dilate_schedule(sched, lambda t: 2.0 * t, lambda t: 2.0,
                           sample_times=np.linspace(0.5, 5.0, 20))
    assert d.kind == "three_param"
    for t in (0.5, 1.0, 2.0):
        assert d.kinetic_coeff(t) == pytest.approx(
            2.0 * sched.kinetic_coeff(2.0 * t))


def test_dilate_rejects_decreasing_tau():
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    with pytest.raises(ValueError):
        qk.dilate_schedule(sched, lambda t: -t, lambda t: -1.0)


def test_dilate_rejects_annealing_schedule():
    for sched in (qk.make_schedule("linear_qaa", horizon=10.0),
                  qk.make_schedule("local_adiabatic", horizon=10.0)):
        with pytest.raises(ValueError, match="descent schedules"):
            qk.dilate_schedule(sched, lambda t: 2.0 * t, lambda t: 2.0)


def test_dilated_run_matches_original_density():
    mesh = qk.Mesh(1, 64, qk.PERIODIC)
    f = Objective(dim=1,
                  eval_fn=lambda x: (np.atleast_2d(x)[:, 0] - 0.3) ** 2,
                  minimizer=np.array([0.3]), f_min=0.0)
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    T, dt = 4.0, 1e-3
    base = qk.qhd_evolve(mesh, f, sched, T, dt)
    dil = qk.dilate_schedule(sched, lambda t: 2.0 * t, lambda t: 2.0)
    half = qk.qhd_evolve(mesh, f, dil, T / 2.0, dt / 2.0)
    diff = np.max(np.abs(base.final_state.density()
                         - half.final_state.density()))
    assert diff < 1e-6


def test_nonuniform_dilation_within_integrator_tolerance():
    # tau(t) = t^2 / T maps [t0, T] onto itself nonlinearly; per-step grids
    # no longer coincide, so agreement is at the integrator's accuracy level
    mesh = qk.Mesh(1, 64, qk.PERIODIC)
    f = Objective(dim=1,
                  eval_fn=lambda x: (np.atleast_2d(x)[:, 0] - 0.5) ** 2,
                  minimizer=np.array([0.5]), f_min=0.0)
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    T, t0 = 4.0, 1.0
    base = qk.qhd_evolve(mesh, f, sched, T, 2e-4, t0=t0)
    tau = lambda t: t ** 2 / T
    tau_dot = lambda t: 2.0 * t / T
    dil = qk.dilate_schedule(sched, tau, tau_dot)
    mapped = qk.qhd_evolve(mesh, f, dil, T, 2e-4, t0=np.sqrt(t0 * T))
    diff = np.max(np.abs(base.final_state.density()
                         - mapped.final_state.density()))
    assert diff < 1e-3


def test_trajectory_snapshot_lookup():
    mesh = qk.Mesh(1, 16, qk.PERIODIC)
    f = Objective(dim=1, eval_fn=lambda x: np.atleast_2d(x)[:, 0] ** 2)
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    traj = qk.qhd_evolve(mesh, f, sched, 1.0, 1e-2, snapshot_times=[0.5, 1.0])
    assert traj.snapshot_at(0.5).mesh == mesh
    with pytest.raises(KeyError):
        traj.snapshot_at(0.77)
