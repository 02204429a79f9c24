import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import qhdkit as qk
from qhdkit.dynamics import _Recorder
from qhdkit.errors import DomainError, ResourceError
from qhdkit.ising import (STRANG_BLOCK_CAP, _strang_evolve, binomial_state,
                          bit_table, block_weights, format_model,
                          ising_energies, ising_to_qubo, parse_model,
                          qubo_energies, qubo_to_ising, schedule_envelope)
from qhdkit.objectives import QpInstance, qp_objective


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
# relaxed adjacency and Hamming isometry
# ---------------------------------------------------------------------------

def test_relaxed_adjacency_is_exact_restriction():
    # the per-axis coupling is defined as the exact Hamming-subspace
    # restriction of the transverse-field sum over r qubits divided by
    # sqrt(r); the identity must hold with zero defect
    for r in (1, 2, 3, 4):
        V = qk.hamming_isometry(r, 1)
        rest = V.T @ (dense_sx(r) / np.sqrt(r)) @ V
        A = qk.relaxed_adjacency(r, 1).toarray()
        assert np.max(np.abs(A - rest)) < 1e-13


def test_relaxed_adjacency_entries_and_symmetry():
    r = 4
    A = qk.relaxed_adjacency(r, 1).toarray()
    j = np.arange(r)
    assert np.allclose(np.diag(A, 1), np.sqrt((j + 1) * (r - j) / r))
    assert np.array_equal(A, A.T)
    A2 = qk.relaxed_adjacency(2, 2).toarray()
    assert np.array_equal(A2, A2.T)
    assert A2.shape == (9, 9)


def test_hamming_isometry_columns():
    V = qk.hamming_isometry(2, 1)
    # weight-1 column is (|01> + |10>)/sqrt(2); basis index 1 is "01"
    col = V[:, 1]
    expected = np.zeros(4)
    expected[1] = expected[2] = 1.0 / np.sqrt(2.0)
    assert np.allclose(col, expected)
    assert np.allclose(V.T @ V, np.eye(3), atol=1e-14)


def test_hamming_isometry_sz_restriction():
    for r in (2, 3, 5):
        V = qk.hamming_isometry(r, 1)
        z = 1.0 - 2.0 * bit_table(r)
        Sz = np.diag(z.sum(axis=1))
        rest = V.T @ Sz @ V
        expected = np.diag([r - 2 * j for j in range(r + 1)])
        assert np.max(np.abs(rest - expected)) < 1e-13


def test_sx_restriction_entries_lemma():
    for n in (2, 4, 6, 8, 10):
        V = qk.hamming_isometry(n, 1)
        rest = V.T @ dense_sx(n) @ V
        j = np.arange(n)
        assert np.max(np.abs(np.diag(rest, 1)
                             - np.sqrt((j + 1) * (n - j)))) < 1e-12


def test_isometry_cap():
    with pytest.raises(ResourceError):
        qk.hamming_isometry(15, 1)


def test_uniform_superposition_binomial_coefficients():
    for n in (3, 6, 10):
        V = qk.hamming_isometry(n, 1)
        plus = np.full(2 ** n, 2.0 ** (-n / 2.0))
        coeffs = V.T @ plus
        expected = np.sqrt(np.array([math.comb(n, j)
                                     for j in range(n + 1)]) / 2.0 ** n)
        assert np.max(np.abs(coeffs - expected)) < 1e-14
        # and nothing leaks outside the encoded subspace
        assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-14


def test_binomial_state_matches_isometry_image():
    r, d = 3, 2
    V = qk.hamming_isometry(r, d)
    phi = binomial_state(r, d).amplitudes.real
    plus = np.full(2 ** (d * r), 2.0 ** (-(d * r) / 2.0))
    assert np.max(np.abs(V @ phi - plus)) < 1e-14


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

def test_hamming_encode_half_square():
    qp = QpInstance(1, sp.csr_matrix(np.array([[1.0]])), np.zeros(1))
    model = qk.hamming_encode_qp(qp, 2)
    assert np.allclose(model.h, [-0.125, -0.125])
    assert model.J == {(1, 0): pytest.approx(1.0 / 16.0)}
    assert model.offset == pytest.approx(3.0 / 16.0)


def test_hamming_encode_zero():
    qp = QpInstance(2, sp.csr_matrix((2, 2)), np.zeros(2))
    model = qk.hamming_encode_qp(qp, 3)
    assert np.all(model.h == 0.0)
    assert model.J == {}
    assert model.offset == 0.0


def test_hamming_encode_restriction_random(subtests=None):
    for d, r, seed in [(1, 4, 0), (2, 3, 1), (3, 2, 2)]:
        qp = random_qp(d, seed)
        model = qk.hamming_encode_qp(qp, r)
        V = qk.hamming_isometry(r, d)
        HP = np.diag(ising_energies(model))
        mesh = qk.Mesh(d, r, qk.DIRICHLET)
        target = np.diag(qp_objective(qp)(mesh.node_coords()))
        report = qk.verify_subspace_encoding(HP, V, target, 1e-12)
        assert report["passed"], report


def test_verify_subspace_encoding_negative_control():
    rng = np.random.default_rng(7)
    n = 3
    H = rng.standard_normal((2 ** n, 2 ** n))
    H = H + H.T
    V = qk.hamming_isometry(n, 1)
    report = qk.verify_subspace_encoding(H, V, V.T @ H @ V, 1e-12)
    assert report["leakage"] > 1e-6
    assert not report["passed"]


def test_precision_layouts():
    ham = qk.PrecisionLayout.hamming(2, 8)
    assert np.allclose(ham.precision, 1.0 / 8.0)
    rad = qk.PrecisionLayout.radix2(2, 4)
    assert np.allclose(rad.precision, [1 / 8, 1 / 8, 1 / 4, 1 / 2])
    assert qk.PrecisionLayout.radix2(1, 1).precision[0] == 1.0
    with pytest.raises(ValueError):
        qk.PrecisionLayout(1, 2, np.array([0.3, 0.3]), "hamming")


# each of these used to fail late or not at all: a ZeroDivisionError, numpy's
# "negative dimensions", a wrong-length precision vector, a 1-bit or a
# 0-variable layout, a TypeError, one variable block counted for True, a
# 1x1 isometry for r = 0
@pytest.mark.parametrize("build, field", [
    (lambda: qk.PrecisionLayout.hamming(3, 0), "r"),
    (lambda: qk.PrecisionLayout.hamming(3, -1), "r"),
    (lambda: qk.PrecisionLayout.hamming(0, 4), "dim"),
    (lambda: qk.PrecisionLayout.hamming(3, 2.0), "r"),
    (lambda: qk.PrecisionLayout.radix2(3, 0), "bits"),
    (lambda: qk.PrecisionLayout.radix2(3, True), "bits"),
    (lambda: qk.PrecisionLayout.radix2(-1, 4), "dim"),
    (lambda: qk.PrecisionLayout(2, True, np.array([1.0]), "hamming"),
     "bits_per_var"),
    (lambda: qk.PrecisionLayout(False, 1, np.array([1.0]), "radix2"), "dim"),
    (lambda: qk.hamming_encode_qp(random_qp(2, 3), 2.5), "r"),
    (lambda: qk.hamming_encode_qp(random_qp(2, 3), 0), "r"),
    (lambda: block_weights(12, True), "dim"),
    (lambda: block_weights(12, 0), "dim"),
    (lambda: qk.hamming_isometry(0, 3), "r"),
    (lambda: qk.hamming_isometry(2.5, 2), "r"),
    (lambda: qk.hamming_isometry(2, True), "d"),
])
def test_encoding_rejects_bad_sizes_naming_the_field(build, field):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1"):
        build()


# relaxed_adjacency used to return a 4x4 coupling for r = 2.5 and the r = 1
# one for True, and to fail inside kron_sum on d = 0 or 1.5; binomial_state
# named Mesh's fields instead of r and d
@pytest.mark.parametrize("build", [qk.relaxed_adjacency, binomial_state])
@pytest.mark.parametrize("r, d, field", [(2.5, 1, "r"), (True, 2, "r"),
                                         (2, 0, "d"), (2, 1.5, "d")])
def test_relaxed_grid_builders_reject_bad_sizes_naming_r_or_d(build, r, d,
                                                              field):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1"):
        build(r, d)


def test_qp_to_qubo_linear_only():
    qp = QpInstance(1, sp.csr_matrix((1, 1)), np.array([1.0]))
    qubo = qk.qp_to_qubo(qp, qk.PrecisionLayout.hamming(1, 2))
    assert np.allclose(qubo.linear, [0.5, 0.5])
    assert qubo.quadratic == {}
    assert qubo.offset == 0.0


def test_qp_to_qubo_pairs_in_double_loop_order():
    for d, s, seed in [(3, 3, 1), (5, 3, 2), (6, 4, 3)]:
        qp = qk.generate_qp(d, s, seed)
        for layout in (qk.PrecisionLayout.hamming(d, 3),
                       qk.PrecisionLayout.radix2(d, 4)):
            P = np.kron(np.eye(d), layout.precision[None, :])
            M = P.T @ qp.Q.toarray() @ P
            want = [((u, v), float(M[u, v])) for u in range(layout.n)
                    for v in range(u + 1, layout.n) if M[u, v] != 0.0]
            got = list(qk.qp_to_qubo(qp, layout).quadratic.items())
            assert got == want
            assert all(type(x) is int for key, _ in got for x in key)
            assert all(type(v) is float for _, v in got)


def test_qp_to_qubo_energy_equals_objective():
    for d, b, seed, layout_kind in [(2, 3, 3, "hamming"), (2, 4, 4, "radix2")]:
        qp = random_qp(d, seed)
        layout = (qk.PrecisionLayout.hamming(d, b) if layout_kind == "hamming"
                  else qk.PrecisionLayout.radix2(d, b))
        qubo = qk.qp_to_qubo(qp, layout)
        bits = bit_table(layout.n).astype(float)
        P = np.kron(np.eye(d), layout.precision[None, :])
        pts = bits @ P.T
        f = qp_objective(qp)(pts)
        assert np.max(np.abs(qubo_energies(qubo) - f)) < 1e-12


def test_hamming_qubo_route_matches_ising_route():
    # one machine, bit for bit: hamming_encode_qp is the Hamming QUBO
    # substituted to spins, over the shapes criterion 8 covers (d r <= 10);
    # a separate closed-form encoder differed in the last bits
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64).tolist()

    for d in range(1, 11):
        for r in range(1, 10 // d + 1):
            for seed in range(3):
                qp = random_qp(d, 100 * d + 10 * r + seed)
                direct = qk.hamming_encode_qp(qp, r)
                via_qubo = qubo_to_ising(
                    qk.qp_to_qubo(qp, qk.PrecisionLayout.hamming(d, r)))
                assert bits(direct.h) == bits(via_qubo.h), (d, r, seed)
                assert list(direct.J) == list(via_qubo.J), (d, r, seed)
                assert (bits(list(direct.J.values()))
                        == bits(list(via_qubo.J.values()))), (d, r, seed)
                assert (bits([direct.offset])
                        == bits([via_qubo.offset])), (d, r, seed)


def test_qubo_ising_convert_examples():
    zero = qk.QuboModel(n=2, linear=np.zeros(2), quadratic={}, offset=0.0)
    ising = qk.qubo_ising_convert(zero)
    assert np.all(ising.h == 0.0) and ising.J == {} and ising.offset == 0.0

    single = qk.QuboModel(n=1, linear=np.array([1.0]), quadratic={},
                          offset=0.0)
    conv = qubo_to_ising(single)
    assert conv.h[0] == pytest.approx(-0.5)
    assert conv.offset == pytest.approx(0.5)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_qubo_ising_roundtrip_and_energy_parity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    lin = rng.uniform(-2, 2, n)
    quad = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.uniform() < 0.5:
                quad[(u, v)] = float(rng.uniform(-2, 2))
    qubo = qk.QuboModel(n=n, linear=lin, quadratic=quad,
                        offset=float(rng.uniform(-1, 1)))
    back = ising_to_qubo(qubo_to_ising(qubo))
    assert np.max(np.abs(back.linear - qubo.linear)) < 1e-14
    assert back.offset == pytest.approx(qubo.offset, abs=1e-14)
    for key, v in qubo.quadratic.items():
        assert back.quadratic[key] == pytest.approx(v, abs=1e-14)
    # energy parity over all assignments
    eq = qubo_energies(qubo)
    ei = ising_energies(qubo_to_ising(qubo))
    assert np.max(np.abs(eq - ei)) < 1e-12


def test_hamming_ground_state_decodes_to_grid_minimizer():
    for d, r, seed in [(2, 3, 21), (3, 4, 22), (2, 6, 23)]:
        qp = random_qp(d, seed)
        model = qk.hamming_encode_qp(qp, r)
        energies = ising_energies(model)
        b_star = int(np.argmin(energies))
        weights = block_weights(d * r, d)[b_star]
        decoded = weights / r
        mesh = qk.Mesh(d, r, qk.DIRICHLET)
        fvals = qp_objective(qp)(mesh.node_coords())
        assert energies[b_star] == pytest.approx(fvals.min(), abs=1e-10)
        assert qp_objective(qp)(decoded) == pytest.approx(fvals.min(),
                                                          abs=1e-10)


def test_decode_samples():
    ham = qk.PrecisionLayout.hamming(1, 8)
    assert qk.decode_samples(["10110100"], ham)[0, 0] == pytest.approx(0.5)
    rad = qk.PrecisionLayout.radix2(1, 4)
    assert qk.decode_samples(["1001"], rad)[0, 0] == pytest.approx(0.625)
    two = qk.PrecisionLayout.hamming(2, 2)
    assert np.allclose(qk.decode_samples(["0000"], two), [[0.0, 0.0]])
    with pytest.raises(ValueError):
        qk.decode_samples(["101"], rad)


@pytest.mark.parametrize("bad", ["0021", "01a1", "0 11", "-101", "01\u00e91"])
def test_decode_samples_rejects_non_binary_characters(bad):
    # '0021' used to decode silently to 0.75
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        qk.decode_samples(["0110", bad, "1111"],
                          qk.PrecisionLayout.hamming(1, 4))


def test_anneal_rescale_calibration():
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=0.004)
    assert sched.kinetic_coeff(0.0) == pytest.approx(500.0)
    env = qk.anneal_rescale(sched, 8, (9.63e9, 800e-6))
    assert env.time_dilation == pytest.approx(8.51e5, rel=1e-3)
    assert env.effective_time == pytest.approx(681.0, rel=1e-3)
    # doubling the field scale doubles the dilation and the effective time
    env2 = qk.anneal_rescale(sched, 8, (2 * 9.63e9, 800e-6))
    assert env2.time_dilation == pytest.approx(2 * env.time_dilation)
    assert env2.effective_time == pytest.approx(2 * env.effective_time)
    # envelope values follow the schedule through the dilated clock
    t_phys = 1e-4
    lam = env.time_dilation
    assert env.a_over_h(t_phys) == pytest.approx(
        lam * 8 ** 1.5 * sched.kinetic_coeff(lam * t_phys))
    assert env.b_over_h(t_phys) == pytest.approx(
        2 * lam * sched.potential_coeff(lam * t_phys))


def test_anneal_rescale_rejects_schedule_singular_at_zero():
    singular = [qk.make_schedule("nesterov_three_param")] + [
        qk.make_schedule("raw", kinetic=lambda t, v=v: v,
                         potential=lambda t: 1.0)
        for v in (np.inf, np.nan, 0.0)]
    for sched in singular:
        with pytest.raises(DomainError):
            qk.anneal_rescale(sched, 4, (9.63e9, 1e-6))


def test_unit_dilation_envelope_is_the_schedule_scaled():
    # anneal-sim without --physical drives the machine at lambda = 1
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    env = schedule_envelope(sched, 4, 1.0, 2.0)
    assert env.effective_time == 2.0
    t = np.random.default_rng(0).uniform(0.0, 10.0, 10 ** 5)
    assert np.array_equal(env.a_over_h(t), 4 ** 1.5 * sched.kinetic_coeff(t))
    assert np.array_equal(env.b_over_h(t), 2.0 * sched.potential_coeff(t))


# ---------------------------------------------------------------------------
# evolutions
# ---------------------------------------------------------------------------

def test_relaxed_evolution_norm_and_binomial_free_case():
    qp = QpInstance(1, sp.csr_matrix((1, 1)), np.zeros(1))
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    traj = qk.relaxed_qhd_evolve(qp, 4, sched, 2.0, 1e-3)
    assert np.max(np.abs(traj.observables["norm"] - 1.0)) < 1e-10


def test_relaxed_evolution_descends_and_matches_dense_oracle():
    # d = 1, r = 2: three grid levels integrated directly as a dense ODE
    qp = QpInstance(1, sp.csr_matrix(np.array([[1.0]])), np.zeros(1))
    r, T, dt = 2, 10.0, 1e-3
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    traj = qk.relaxed_qhd_evolve(qp, r, sched, T, dt)
    efs = traj.observables["Ef"]
    assert efs[-1] < efs[0]

    A = qk.relaxed_adjacency(r, 1).toarray()
    fvals = np.array([0.0, 0.125, 0.5])
    kin, pot = sched.kinetic_coeff, sched.potential_coeff

    def rhs(t, yv):
        psi = yv[:3] + 1j * yv[3:]
        H = -(kin(t) * r ** 2 / 2.0) * A + pot(t) * np.diag(fvals)
        d = -1j * (H @ psi)
        return np.concatenate([d.real, d.imag])

    phi0 = binomial_state(r, 1).amplitudes.real
    sol = solve_ivp(rhs, (0.0, T), np.concatenate([phi0, np.zeros(3)]),
                    rtol=1e-10, atol=1e-12)
    psi_o = sol.y[:3, -1] + 1j * sol.y[3:, -1]
    ef_oracle = float(np.sum(fvals * np.abs(psi_o) ** 2))
    assert efs[-1] == pytest.approx(ef_oracle, abs=2e-4)


@pytest.mark.parametrize("t_snap", [0.0, 0.555, 1.5])
def test_relaxed_evolution_rejects_snapshot_off_the_step_grid(t_snap):
    # at t0, between steps and past T: none of these is a recorded state
    qp = QpInstance(1, sp.csr_matrix(np.array([[1.0]])), np.zeros(1))
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    with pytest.raises(ValueError, match="step grid"):
        qk.relaxed_qhd_evolve(qp, 2, sched, 1.0, 1e-2,
                              snapshot_times=[t_snap])


def test_relaxed_grid_cap():
    qp = random_qp(5, 1)
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    with pytest.raises(ResourceError):
        qk.relaxed_qhd_evolve(qp, 12, sched, 1.0, 1e-2)  # 13^5 > cap


def test_dense_machine_free_field_keeps_binomial_marginals():
    # h = J = 0: the state stays a product of transverse-field eigenstates,
    # so block-weight marginals remain binomial at all times
    model = qk.IsingModel(n=4, h=np.zeros(4), J={}, offset=0.0)
    env = (lambda t: 1.3, lambda t: 0.7)
    _, marg = qk.simulate_ising_dense(model, env, 2.0, 1e-3, n_vars=2)
    expected = np.array([math.comb(2, j) for j in range(3)]) / 4.0
    for m in marg:
        assert np.max(np.abs(m - expected)) < 1e-9


def test_dense_machine_diagonal_only_preserves_density():
    model = qk.IsingModel(n=1, h=np.array([1.0]), J={}, offset=0.0)
    env = (lambda t: 0.0, lambda t: 2.0)
    state, marg = qk.simulate_ising_dense(model, env, 1.0, 1e-3)
    assert abs(abs(state[0]) ** 2 - 0.5) < 1e-12
    assert np.allclose(marg[0], [0.5, 0.5])


def _random_ising(n, seed):
    rng = np.random.default_rng(seed)
    J = {(j, k): float(rng.uniform(-1, 1))
         for j in range(n) for k in range(j)}
    return qk.IsingModel(n=n, h=rng.uniform(-1, 1, n), J=J, offset=0.3)


def test_dense_machine_matches_full_hamiltonian_ode():
    # the machine's own oracle: the full 2^n Hamiltonian
    # -(A/2) sum sigma_x + (B/2) diag(E) integrated as a dense ODE
    n, T, dt = 3, 2.0, 1e-3
    model = _random_ising(n, 41)
    a_fn, b_fn = (lambda t: 1.5 * np.cos(t)), (lambda t: 0.5 + t ** 2)
    state, _ = qk.simulate_ising_dense(model, (a_fn, b_fn), T, dt)
    sx = dense_sx(n)
    diag = np.diag(ising_energies(model, include_offset=False))

    def rhs(t, yv):
        psi = yv[:2 ** n] + 1j * yv[2 ** n:]
        d = -1j * ((-(a_fn(t) / 2.0) * sx + (b_fn(t) / 2.0) * diag) @ psi)
        return np.concatenate([d.real, d.imag])

    y0 = np.concatenate([np.full(2 ** n, 2.0 ** (-n / 2.0)),
                         np.zeros(2 ** n)])
    sol = solve_ivp(rhs, (0.0, T), y0, rtol=1e-10, atol=1e-12)
    psi_o = sol.y[:2 ** n, -1] + 1j * sol.y[2 ** n:, -1]
    assert np.max(np.abs(np.abs(state) ** 2 - np.abs(psi_o) ** 2)) < 1e-6


def test_dense_machine_matches_per_qubit_rotation_sweep():
    # the machine's earlier integrator, kept here as its reference: a
    # half diagonal phase, a rotation of each qubit in turn, a half phase
    n, T, dt = 4, 0.3, 1e-3
    model = _random_ising(n, 42)
    a_fn, b_fn = (lambda t: 2.0 - t), (lambda t: 1.0 + 3.0 * t)
    state, marg = qk.simulate_ising_dense(model, (a_fn, b_fn), T, dt,
                                          n_vars=2)
    diag = ising_energies(model, include_offset=False).reshape((2,) * n)
    psi = np.full((2,) * n, 2.0 ** (-n / 2.0), dtype=complex)
    for step in range(300):
        tm = (step + 0.5) * dt
        half = np.exp(-0.5j * dt * (b_fn(tm) / 2.0) * diag)
        psi = half * psi
        c, s = np.cos(dt * a_fn(tm) / 2.0), 1j * np.sin(dt * a_fn(tm) / 2.0)
        for q in range(n):
            moved = np.moveaxis(psi, q, 0)
            v0, v1 = moved[0].copy(), moved[1]
            moved[0] = c * v0 + s * v1
            moved[1] = s * v0 + c * v1
        psi = half * psi
    ref = psi.reshape(-1)
    assert np.max(np.abs(state - ref)) < 1e-12
    prob = np.abs(ref) ** 2
    weights = block_weights(n, 2)
    for k in range(2):
        expected = np.bincount(weights[:, k], weights=prob, minlength=3)
        assert np.max(np.abs(marg[k] - expected)) < 1e-12


def test_relaxed_evolution_matches_two_tensordot_step():
    # the relaxed engine's earlier step, kept here as its reference: the
    # kinetic phase applied in the coupling's eigenbasis, axis by axis
    qp = random_qp(2, 43)
    r, t0, T, dt = 3, 0.5, 1.0, 1e-3
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    traj = qk.relaxed_qhd_evolve(qp, r, sched, T, dt, t0=t0,
                                 snapshot_times=[0.6, 0.75])
    mesh = qk.Mesh(2, r, qk.DIRICHLET)
    fvals = qp_objective(qp)(mesh.node_coords()).reshape(mesh.shape)
    evals, evecs = np.linalg.eigh(qk.relaxed_adjacency(r, 1).toarray())
    psi = binomial_state(r, 2).amplitudes.reshape(mesh.shape)
    efs, snaps = [], {}
    for j in range(500):
        tm = t0 + (j + 0.5) * dt
        half_pot = np.exp(-0.5j * dt * sched.potential_coeff(tm) * fvals)
        kin_phase = np.exp(1j * dt * sched.kinetic_coeff(tm)
                           * (r ** 2 / 2.0) * evals)
        psi = half_pot * psi
        for ax in range(2):
            psi = np.moveaxis(
                np.tensordot(evecs * kin_phase, np.tensordot(
                    evecs.T, psi, axes=(1, ax)), axes=(1, 0)), 0, ax)
        psi = half_pot * psi
        prob = np.abs(psi) ** 2
        efs.append(np.sum(prob * fvals) / np.sum(prob))
        snaps[j + 1] = (psi / np.sqrt(np.sum(prob))).reshape(-1)
    assert np.max(np.abs(traj.observables["Ef"] - efs)) < 1e-12
    np.testing.assert_allclose(traj.snapshot_times, [0.6, 0.75, 1.0])
    for t, step in ((0.6, 100), (0.75, 250), (1.0, 500)):
        got = traj.snapshot_at(t).amplitudes
        assert np.max(np.abs(got - snaps[step])) < 1e-12, t


# ragged last blocks at r = 1 (g = 4), r = 2 and r = 3 (g = 2); g = 1 above
@pytest.mark.parametrize("r, d", [(1, 5), (1, 6), (1, 7), (2, 3), (3, 3),
                                  (4, 3), (5, 2)])
def test_strang_blocks_match_per_axis_contraction(r, d):
    # the loop's earlier step, kept here as its reference: an exp potential
    # phase and one tensordot of the per-axis unitary per axis
    fvals = np.random.default_rng(10 * r + d).uniform(-1, 1, (r + 1,) * d)
    kin, pot = (lambda t: 2.0 + np.sin(t)), (lambda t: 1.0 + 3.0 * t)
    dt, steps = 1e-3, 200
    got = _strang_evolve(fvals, r, kin, pot,
                         _Recorder(0.0, steps * dt, dt, fvals))
    lam, vecs = np.linalg.eigh(qk.relaxed_adjacency(r, 1).toarray())
    psi = binomial_state(r, d).amplitudes.reshape(fvals.shape)
    for j in range(steps):
        tm = (j + 0.5) * dt
        half_pot = np.exp(-0.5j * dt * pot(tm) * fvals)
        kin_u = (vecs * np.exp(1j * dt * kin(tm) * lam)) @ vecs.T
        kin_u = 1.5 * kin_u - 0.5 * kin_u @ (kin_u.conj().T @ kin_u)
        psi = half_pot * psi
        for _ in range(d):
            psi = np.tensordot(psi, kin_u, axes=(0, 1))
        psi = half_pot * psi
    assert got.shape == psi.shape
    assert np.max(np.abs(got - psi)) < 1e-12
    if (r + 1) ** 2 > STRANG_BLOCK_CAP:     # g = 1: the same bits
        assert np.array_equal(got, psi)


def _per_step_strang(fvals, r, kin, pot, rec):
    # the loop before it phased each level once and built its kinetic
    # unitaries per chunk of steps, kept here as its bit-for-bit reference
    n, d = r + 1, fvals.ndim
    g = 1
    while g < d and n ** (g + 1) <= STRANG_BLOCK_CAP:
        g += 1
    blocks = [g] * (d // g) + ([d % g] if d % g else [])
    lam, vecs = np.linalg.eigh(qk.relaxed_adjacency(r, 1).toarray())
    t0, dt = rec.t0, rec.dt
    psi = binomial_state(r, d).amplitudes.reshape(fvals.shape)
    angle = np.empty(fvals.shape)
    half_pot = np.empty(fvals.shape, dtype=complex)
    for j in range(rec.n_steps):
        tm = t0 + (j + 0.5) * dt
        np.multiply(-0.5 * dt * pot(tm), fvals, out=angle)
        np.cos(angle, out=half_pot.real)
        np.sin(angle, out=half_pot.imag)
        kin_u = (vecs * np.exp(1j * dt * kin(tm) * lam)) @ vecs.T
        kin_u = 1.5 * kin_u - 0.5 * kin_u @ (kin_u.conj().T @ kin_u)
        powers = [kin_u]
        for _ in range(g - 1):
            w = powers[-1]
            powers.append((w[:, None, :, None] * kin_u[None, :, None, :])
                          .reshape(w.shape[0] * n, -1))
        np.multiply(half_pot, psi, out=psi)
        for s in blocks:
            psi = psi.reshape(n ** s, -1).T @ powers[s - 1].T
        psi = psi.reshape(fvals.shape)
        np.multiply(half_pot, psi, out=psi)
        rec.record(j + 1, psi)
    return psi


def _strang_run(loop, fvals, r, kin, pot, steps, t0=0.25, dt=1e-3):
    smask = fvals <= np.median(fvals)
    rec = _Recorder(t0, t0 + steps * dt, dt, fvals, smask, stride=7)
    psi = loop(fvals, r, kin, pot, rec)
    return psi, rec.finish(psi)


# ragged last blocks at r = 1 (g = 4), r = 2 and r = 3 (g = 2); g = 1 above;
# 64 is a whole chunk of steps, 1, 63, 65 and 130 are not
@pytest.mark.parametrize("r, d", [(1, 5), (1, 7), (1, 12), (2, 3), (3, 3),
                                  (4, 3), (5, 2)])
@pytest.mark.parametrize("levels", ["degenerate", "distinct"])
def test_strang_loop_keeps_the_per_step_bits(r, d, levels):
    fvals = np.random.default_rng(10 * r + d).uniform(-1, 1, (r + 1,) * d)
    if levels == "degenerate":
        fvals = np.round(fvals, 1)
        assert np.unique(fvals).size < fvals.size
    else:
        assert np.unique(fvals).size == fvals.size
    kin, pot = (lambda t: 2.0 + np.sin(t)), (lambda t: 1.0 + 3.0 * t)
    for steps in (1, 63, 64, 65, 130):
        got, got_traj = _strang_run(_strang_evolve, fvals, r, kin, pot, steps)
        want, want_traj = _strang_run(_per_step_strang, fvals, r, kin, pot,
                                      steps)
        assert np.array_equal(got, want), steps
        assert np.array_equal(got_traj.times, want_traj.times)
        for name, trace in want_traj.observables.items():
            assert np.array_equal(got_traj.observables[name], trace,
                                  equal_nan=True), (steps, name)


def test_strang_loop_samples_no_coefficient_past_the_last_midpoint():
    # 65 steps end one step into the second chunk; a chunk built whole
    # would ask for the coefficients at 63 midpoints beyond T
    t0, dt, steps = 0.25, 1e-3, 65
    T = t0 + steps * dt

    def inside(fn):
        def coeff(t):
            if not t0 < t < T:
                raise AssertionError(f"coefficient sampled at t={t}")
            return fn(t)
        return coeff

    kin, pot = (lambda t: 2.0 + np.sin(t)), (lambda t: 1.0 + 3.0 * t)
    fvals = np.round(np.random.default_rng(7).uniform(-1, 1, (2,) * 6), 1)
    got, _ = _strang_run(_strang_evolve, fvals, 1, inside(kin), inside(pot),
                         steps)
    want, _ = _strang_run(_per_step_strang, fvals, 1, kin, pot, steps)
    assert np.array_equal(got, want)


def test_strang_loop_keeps_the_norm_over_many_steps():
    # a kinetic unitary whose eigenvectors are orthogonal only to an ulp
    # grows or shrinks the norm by about 1e-15 every step, always the same
    # way. The envelopes vary in time: with constant ones every step would
    # repeat one rounding of the exact unitary, which drifts too.
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    traj = qk.relaxed_qhd_evolve(random_qp(2, 44), 3, sched, 5.0, 1e-3)
    assert np.max(np.abs(traj.observables["norm"] - 1.0)) < 1e-12
    state, _ = qk.simulate_ising_dense(
        _random_ising(4, 45), (lambda t: 2.0 + np.sin(t), lambda t: 1.0 + t),
        5.0, 1e-3)
    assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("n_vars", [0, -2, 5])
def test_dense_machine_rejects_bad_n_vars_before_any_step(n_vars):
    # n_vars = 5 on 12 qubits used to fail only after the whole evolution,
    # and n_vars = 0 with a ZeroDivisionError
    def never(t):
        raise AssertionError("the evolution started")

    model = qk.IsingModel(n=12, h=np.ones(12), J={}, offset=0.0)
    with pytest.raises(ValueError, match="variable blocks"):
        qk.simulate_ising_dense(model, (never, never), 0.5, 1e-3,
                                n_vars=n_vars)


def test_dense_machine_rejects_envelope_of_another_duration():
    # the run used to stop at the t_f argument and ignore the envelope's
    def never(t):
        raise AssertionError("the evolution started")

    env = qk.AnnealEnvelope(time_dilation=1.0, t_f=5.0, a_over_h=never,
                            b_over_h=never)
    model = qk.IsingModel(n=2, h=np.ones(2), J={}, offset=0.0)
    with pytest.raises(ValueError, match=r"^t_f = 1\.0 but env\.t_f = 5\.0$"):
        qk.simulate_ising_dense(model, env, 1.0, 1e-2)


def test_dense_machine_cap():
    model = qk.IsingModel(n=15, h=np.zeros(15), J={}, offset=0.0)
    with pytest.raises(ResourceError):
        qk.simulate_ising_dense(model, (lambda t: 1.0, lambda t: 1.0),
                                1.0, 1e-2)


def test_analog_equivalence_small():
    # encoded machine evolution reproduces the relaxed grid marginals
    qp = random_qp(2, 5)
    r, T, dt = 2, 3.0, 1e-3
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    traj = qk.relaxed_qhd_evolve(qp, r, sched, T, dt)
    dens = traj.final_state.density().reshape((r + 1,) * 2)
    model = qk.hamming_encode_qp(qp, r)
    env = (lambda t: r ** 1.5 * sched.kinetic_coeff(t),
           lambda t: 2.0 * sched.potential_coeff(t))
    _, marg = qk.simulate_ising_dense(model, env, T, dt, n_vars=2)
    for k in range(2):
        grid_marg = dens.sum(axis=1 - k)
        assert np.max(np.abs(grid_marg - marg[k])) < 1e-6


def test_analog_equivalence_across_shapes():
    # the per-step correspondence is exact, so a short horizon already
    # certifies the encoding across grid shapes up to 8 qubits
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    T, dt = 1.0, 1e-2
    for d, r, n_qp in [(1, 1, 3), (1, 2, 3), (2, 2, 3), (3, 2, 3),
                       (2, 4, 3), (1, 8, 3), (4, 2, 2)]:
        env = (lambda t, r=r: r ** 1.5 * sched.kinetic_coeff(t),
               lambda t: 2.0 * sched.potential_coeff(t))
        for i in range(n_qp):
            qp = random_qp(d, seed=900 + 17 * d + 3 * r + i)
            traj = qk.relaxed_qhd_evolve(qp, r, sched, T, dt)
            dens = traj.final_state.density().reshape((r + 1,) * d)
            model = qk.hamming_encode_qp(qp, r)
            _, marg = qk.simulate_ising_dense(model, env, T, dt, n_vars=d)
            for k in range(d):
                axes = tuple(a for a in range(d) if a != k)
                grid_marg = dens.sum(axis=axes) if axes else dens
                assert np.max(np.abs(grid_marg - marg[k])) < 1e-6, (d, r, i)


# ---------------------------------------------------------------------------
# coefficient files
# ---------------------------------------------------------------------------

def test_model_file_roundtrip():
    qp = random_qp(2, 31)
    layout = qk.PrecisionLayout.hamming(2, 4)
    qubo = qk.qp_to_qubo(qp, layout)
    text = format_model(qubo, layout)
    assert text.startswith("# qubo n=8 offset=0.0\n")
    assert text.endswith("\n") and "\r" not in text
    back, back_layout = parse_model(text)
    assert isinstance(back, qk.QuboModel)
    assert np.array_equal(back.linear, qubo.linear)
    assert back.quadratic == qubo.quadratic
    assert back_layout.encoding == "hamming"
    assert back_layout.bits_per_var == 4

    ising = qubo_to_ising(qubo)
    text2 = format_model(ising)
    back2, _ = parse_model(text2)
    assert isinstance(back2, qk.IsingModel)
    assert np.array_equal(back2.h, ising.h)
    assert back2.J == ising.J
    assert back2.offset == ising.offset


@pytest.mark.parametrize("text, why", [
    ("0 1 0.5\n# qubo n=2 offset=0.0\n", "before the model header"),
    ("1 1 0.5\n# qubo n=2 offset=0.0\n", "before the model header"),
    ("# qubo n=2 offset=0.0\n0 2 0.5\n", "outside"),
    ("# ising n=2 offset=0.0\n2 2 0.5\n", "outside"),
    ("# ising n=2 offset=0.0\n-1 1 0.5\n", "outside"),
    ("# qubo n=3 offset=0.0\n0 1 0.5\n0 1 0.7\n", "duplicate"),
    ("# qubo n=3 offset=0.0\n0 1 0.5\n1 0 0.7\n", "duplicate"),
    ("# ising n=3 offset=0.0\n2 2 0.5\n2 2 0.5\n", "duplicate"),
    ("# qubo n=2 offset=0.0\n0 0 1.5\n# qubo n=2 offset=0.0\n", "second"),
    ("# qubo n=2 offset=0.0\n# layout encoding=bogus vars=1 bits=2\n",
     "encoding"),
    ("# qubo n=4 offset=0.0\n# layout encoding=hamming vars=3 bits=5\n",
     "does not match n=4"),
    ("# layout encoding=radix2 vars=1 bits=3\n# ising n=4 offset=0.0\n"
     "0 0 1.0\n", "does not match n=4"),
    ("# qubo offset=0.0\n", r"line '# qubo offset=0.0': no n= field"),
    ("# ising n=2.5 offset=0.0\n", r"line '# ising n=2.5 offset=0.0': "),
    ("# qubo n=0 offset=0.0\n", r"line '# qubo n=0 offset=0.0': n must be"),
    ("# qubo n=2\n# layout vars=1 bits=2\n", "no encoding= field"),
    ("# qubo n=2\n# layout encoding=hamming bits=2\n", "no vars= field"),
    ("# qubo n=2\n# layout encoding=hamming vars=1\n", "no bits= field"),
    ("# qubo n=2 offset\n", r"line '# qubo n=2 offset': field 'offset' is "
     "not key=value"),
    ("# qubo n=2\n# layout encoding=hamming vars 1 bits=2\n",
     "field 'vars' is not key=value"),
    ("# qubo n=2\n0 1\n", r"line '0 1': expected three fields .* got 2"),
    ("# qubo n=2\n0 1 0.5 7\n", r"line '0 1 0.5 7': expected three fields"),
    ("# qubo n=2\n0 x 0.5\n", r"line '0 x 0.5': "),
    ("# qubo n=2\n# layout encoding=hamming vars=1 bits=2\n"
     "# layout encoding=radix2 vars=2 bits=1\n", "second layout line"),
])
def test_parse_model_rejects_malformed_input(text, why):
    with pytest.raises(ValueError, match=why):
        parse_model(text)


def test_model_key_validation():
    with pytest.raises(ValueError):
        qk.IsingModel(n=3, h=np.zeros(3), J={(0, 1): 1.0})
    with pytest.raises(ValueError):
        qk.QuboModel(n=3, linear=np.zeros(3), quadratic={(1, 0): 1.0})
    # the first bad key in dict order is the one named
    with pytest.raises(ValueError, match=r"key \(0, 2\) is not lower-tri"):
        qk.IsingModel(n=3, h=np.zeros(3),
                      J={(1, 0): 1.0, (0, 2): 1.0, (0, 1): 1.0})
    with pytest.raises(ValueError, match=r"key \(2, 3\) is not upper-tri"):
        qk.QuboModel(n=3, linear=np.zeros(3),
                     quadratic={(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(ValueError, match="coefficients must be finite"):
        qk.QuboModel(n=3, linear=np.zeros(3),
                     quadratic={(0, 1): 1.0, (1, 2): np.nan})


@pytest.mark.parametrize("build, why", [
    (lambda: qk.IsingModel(n=True, h=[0.0], J={}),
     r"^n must be an integer >= 1, got True$"),
    (lambda: qk.IsingModel(n=2, h=np.zeros(2), J={(1.0, 0.0): 1.0}),
     "integer pairs"),
    (lambda: qk.QuboModel(n=2, linear=np.zeros(2),
                          quadratic={(0.0, 1.0): 1.0}), "integer pairs"),
    (lambda: qk.QuboModel(n=3, linear=np.zeros(3),
                          quadratic={(0, 1): 1.0, (1.0, 2): 1.0}),
     "integer pairs"),
    (lambda: qk.QuboModel(n=2, linear=np.zeros(2), quadratic={0: 1.0}),
     "integer pairs"),
], ids=["ising-n-bool", "ising-float-key", "qubo-float-key",
        "qubo-one-float-key", "qubo-int-key"])
def test_models_reject_non_integer_sizes_and_keys(build, why):
    # each used to build, a float key failing later as an IndexError in the
    # energy table, or to raise a TypeError
    with pytest.raises(ValueError, match=why):
        build()


_COEFF = st.one_of(st.just(0.0), st.just(-0.0),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _model_cases(draw):
    """A model of either kind on n = vars * bits qubits with finite
    coefficients, zeros of both signs included, and a layout or None."""
    dim, bits = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = dim * bits
    upper = [(j, k) for j in range(n) for k in range(j + 1, n)]
    chosen = draw(st.lists(st.sampled_from(upper), unique=True)
                  if upper else st.just([]))
    quad = {key: draw(_COEFF) for key in chosen}
    lin = np.array(draw(st.lists(_COEFF, min_size=n, max_size=n)))
    offset = draw(_COEFF)
    if draw(st.booleans()):
        model = qk.QuboModel(n=n, linear=lin, quadratic=quad, offset=offset)
    else:
        model = qk.IsingModel(n=n, h=lin, offset=offset,
                              J={(k, j): v for (j, k), v in quad.items()})
    encoding = draw(st.sampled_from([None, "hamming", "radix2"]))
    layout = (None if encoding is None
              else getattr(qk.PrecisionLayout, encoding)(dim, bits))
    return model, layout


@given(_model_cases())
@settings(max_examples=60, deadline=None)
def test_model_file_round_trip_property(case):
    model, layout = case
    text = format_model(model, layout)
    back, back_layout = parse_model(text)
    assert type(back) is type(model) and back.n == model.n
    if isinstance(model, qk.QuboModel):
        assert np.array_equal(back.linear, model.linear)
        assert back.quadratic == model.quadratic
    else:
        assert np.array_equal(back.h, model.h)
        assert back.J == model.J
    assert back.offset == model.offset
    if layout is None:
        assert back_layout is None
    else:
        assert (back_layout.encoding, back_layout.dim,
                back_layout.bits_per_var) == (layout.encoding, layout.dim,
                                              layout.bits_per_var)
        assert np.array_equal(back_layout.precision, layout.precision)
    assert format_model(back, back_layout) == text


@given(st.sampled_from(["hamming", "radix2"]), st.integers(1, 3),
       st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_decode_samples_matches_per_bit_decode(encoding, dim, bits, data):
    layout = getattr(qk.PrecisionLayout, encoding)(dim, bits)
    strings = data.draw(st.lists(
        st.text("01", min_size=layout.n, max_size=layout.n), max_size=6))
    expected = [[sum(w * (c == "1") for w, c in
                     zip(layout.precision, s[p * bits:(p + 1) * bits]))
                 for p in range(dim)] for s in strings]
    got = qk.decode_samples(strings, layout)
    assert got.shape == (len(strings), dim)
    np.testing.assert_allclose(got, np.reshape(expected, got.shape),
                               rtol=0, atol=1e-15)
