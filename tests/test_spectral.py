import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import qhdkit as qk
from qhdkit.errors import DomainError
from qhdkit.mesh import discretize_objective, kron_sum
from qhdkit.objectives import Objective, affine_to_unit_box
from qhdkit.spectral import DENSE_LIMIT, BoxHamiltonian


def zero_objective(dim):
    return Objective(dim=dim,
                     eval_fn=lambda x: np.zeros(len(np.atleast_2d(x))))


def test_build_hamiltonian_requires_dirichlet():
    mesh = qk.Mesh(1, 8, qk.PERIODIC)
    with pytest.raises(ValueError):
        qk.build_hamiltonian(mesh, zero_objective(1), 1.0, 0.0)


def test_build_hamiltonian_symmetric():
    mesh = qk.Mesh(2, 6, qk.DIRICHLET)
    H = qk.build_hamiltonian(mesh, qk.get_objective("levy"), 0.5, 2.0)
    diff = (H.matrix - H.matrix.T)
    assert diff.count_nonzero() == 0


def test_kinetic_limit_spectrum_2d():
    mesh = qk.Mesh(2, 64, qk.DIRICHLET)
    H = qk.build_hamiltonian(mesh, zero_objective(2), 1.0, 0.0)
    eig = qk.lowest_eigenpairs(H, 4)
    assert eig.eigenvalues[0] == pytest.approx(np.pi ** 2, rel=0.02)
    assert qk.energy_ratio(eig) == pytest.approx(2.5, abs=0.05)


def test_kinetic_scaling_with_coefficient():
    mesh = qk.Mesh(2, 32, qk.DIRICHLET)
    e_phi = 3.7
    H = qk.build_hamiltonian(mesh, zero_objective(2), e_phi, 0.0)
    eig = qk.lowest_eigenpairs(H, 2)
    assert eig.eigenvalues[0] == pytest.approx(e_phi * np.pi ** 2, rel=0.02)


def test_potential_only_spectrum_is_sorted_values():
    mesh = qk.Mesh(1, 6, qk.DIRICHLET)
    f = Objective(dim=1,
                  eval_fn=lambda x: np.cos(7.0 * np.atleast_2d(x)[:, 0]))
    H = qk.build_hamiltonian(mesh, f, 0.0, 1.5)
    eig = qk.lowest_eigenpairs(H, 5)
    interior_vals = 1.5 * discretize_objective(mesh, f).values[1:-1]
    assert np.allclose(eig.eigenvalues, np.sort(interior_vals)[:5])


def test_lowest_eigenpairs_plain_diagonal():
    eig = qk.lowest_eigenpairs(np.diag([3.0, 1.0, 2.0]), 3)
    assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0])


def test_lowest_eigenpairs_k_bounds():
    with pytest.raises(ValueError):
        qk.lowest_eigenpairs(np.eye(4), 0)
    with pytest.raises(ValueError):
        qk.lowest_eigenpairs(np.eye(40), 33)


def test_1d_dirichlet_kinetic_mode_scaling():
    mesh = qk.Mesh(1, 256, qk.DIRICHLET)
    H = qk.build_hamiltonian(mesh, zero_objective(1), 1.0, 0.0)
    eig = qk.lowest_eigenpairs(H, 4)
    # interior unknowns exceed the dense threshold only in 2D; this exercises
    # the dense-oracle path against the continuum n^2 law
    for n in range(1, 5):
        assert eig.eigenvalues[n - 1] / eig.eigenvalues[0] == pytest.approx(
            n ** 2, rel=0.01)


def test_2d_kinetic_first_excited_degenerate():
    mesh = qk.Mesh(2, 24, qk.DIRICHLET)
    H = qk.build_hamiltonian(mesh, zero_objective(2), 1.0, 0.0)
    eig = qk.lowest_eigenpairs(H, 3)
    assert abs(eig.eigenvalues[1] - eig.eigenvalues[2]) < 1e-8


def test_sparse_and_dense_paths_agree():
    mesh = qk.Mesh(2, 48, qk.DIRICHLET)   # interior 47^2 = 2209 > DENSE_LIMIT
    assert (mesh.nodes_per_edge - 2) ** 2 > DENSE_LIMIT
    f = qk.get_objective("levy")
    H = qk.build_hamiltonian(mesh, f, 0.1, 10.0)
    eig = qk.lowest_eigenpairs(H, 4)
    dense = np.linalg.eigvalsh(H.matrix.toarray())[:4]
    assert np.allclose(eig.eigenvalues, dense, rtol=1e-9)


def test_eigenvectors_vanish_on_boundary_and_orthonormal():
    mesh = qk.Mesh(2, 12, qk.DIRICHLET)
    H = qk.build_hamiltonian(mesh, qk.get_objective("levy"), 1.0, 5.0)
    eig = qk.lowest_eigenpairs(H, 4)
    grid = eig.eigenvectors[:, 0].reshape(mesh.shape)
    assert np.all(grid[0, :] == 0.0) and np.all(grid[:, -1] == 0.0)
    gram = eig.eigenvectors.T @ eig.eigenvectors
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10


def test_spectrum_shift_invariance():
    mesh = qk.Mesh(1, 40, qk.DIRICHLET)
    f = Objective(dim=1,
                  eval_fn=lambda x: (np.atleast_2d(x)[:, 0] - 0.4) ** 2)
    shifted = Objective(dim=1,
                        eval_fn=lambda x:
                        (np.atleast_2d(x)[:, 0] - 0.4) ** 2 + 3.0)
    e_chi = 2.0
    e1 = qk.lowest_eigenpairs(qk.build_hamiltonian(mesh, f, 1.0, e_chi), 3)
    e2 = qk.lowest_eigenpairs(
        qk.build_hamiltonian(mesh, shifted, 1.0, e_chi), 3)
    assert np.allclose(e2.eigenvalues, e1.eigenvalues + e_chi * 3.0,
                       atol=1e-9)
    assert abs(abs(e1.eigenvectors[:, 0] @ e2.eigenvectors[:, 0]) - 1.0) < 1e-9


def test_probability_spectrum_eigenvector_and_unity():
    mesh = qk.Mesh(1, 30, qk.DIRICHLET)
    fq = Objective(dim=1,
                   eval_fn=lambda x: (np.atleast_2d(x)[:, 0] - 0.5) ** 2)
    H = qk.build_hamiltonian(mesh, fq, 1.0, 1.0)
    eig = qk.lowest_eigenpairs(H, 5)
    psi = qk.WaveFunction(mesh, eig.eigenvectors[:, 0].astype(complex))
    probs, residual = qk.probability_spectrum(psi, eig)
    assert probs[0] == pytest.approx(1.0, abs=1e-10)
    assert np.all(probs[1:] < 1e-10)
    assert residual == pytest.approx(0.0, abs=1e-10)

    rng = np.random.default_rng(1)
    amp = rng.standard_normal(mesh.size) + 1j * rng.standard_normal(mesh.size)
    amp /= np.linalg.norm(amp)
    psi2 = qk.WaveFunction(mesh, amp)
    probs2, residual2 = qk.probability_spectrum(psi2, eig)
    assert probs2.sum() + residual2 == pytest.approx(1.0, abs=1e-10)


def test_uniform_state_low_energy_concentration():
    # the uniform state is the ground mode of the periodic instantaneous
    # Hamiltonian at the start of the descent schedule
    mesh = qk.Mesh(2, 32, qk.PERIODIC)
    f = qk.get_objective("levy")
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    t0 = 1e-3
    H = qk.build_fourier_hamiltonian(mesh, f, sched.kinetic_coeff(t0),
                                     sched.potential_coeff(t0))
    eig = qk.lowest_eigenpairs(H, 10)
    probs, residual = qk.probability_spectrum(qk.uniform_state(mesh), eig)
    assert residual <= 1e-3


def test_probability_spectrum_cross_boundary_pairing():
    # sine-mode diagnostics of a periodic-engine state: node grids coincide
    # on [0, 1) and the modes vanish on the boundary layer
    n = 32
    pmesh = qk.Mesh(1, n, qk.PERIODIC)
    dmesh = qk.Mesh(1, n, qk.DIRICHLET)
    H = qk.build_hamiltonian(dmesh, zero_objective(1), 1.0, 0.0)
    eig = qk.lowest_eigenpairs(H, 6)
    psi = qk.uniform_state(pmesh)
    probs, residual = qk.probability_spectrum(psi, eig)
    # uniform vs sine modes: odd modes carry 8/(n^2 pi^2), even modes vanish
    assert probs[0] == pytest.approx(8.0 / np.pi ** 2, abs=0.01)
    assert probs[1] < 1e-3
    assert probs.sum() + residual == pytest.approx(1.0, abs=1e-6)


def test_probability_spectrum_mesh_mismatch():
    mesh = qk.Mesh(1, 30, qk.DIRICHLET)
    other = qk.Mesh(1, 31, qk.DIRICHLET)
    H = qk.build_hamiltonian(mesh, zero_objective(1), 1.0, 0.0)
    eig = qk.lowest_eigenpairs(H, 2)
    with pytest.raises(ValueError):
        qk.probability_spectrum(qk.uniform_state(other), eig)


def test_energy_ratio_kinetic_and_errors():
    mesh = qk.Mesh(2, 40, qk.DIRICHLET)
    eig = qk.lowest_eigenpairs(
        qk.build_hamiltonian(mesh, zero_objective(2), 2.0, 0.0), 2)
    assert qk.energy_ratio(eig) == pytest.approx(2.5, abs=0.05)

    from qhdkit.spectral import EigenSystem
    bad = EigenSystem(eigenvalues=np.array([-1.0, 2.0]),
                      eigenvectors=np.eye(2))
    with pytest.raises(DomainError):
        qk.energy_ratio(bad)


def test_harmonic_oscillator_ratio():
    # 1D oscillator levels are proportional to n + 1/2, so E_1/E_0 = 3
    mesh = qk.Mesh(1, 256, qk.DIRICHLET)
    f = Objective(dim=1,
                  eval_fn=lambda x: 0.5 * (np.atleast_2d(x)[:, 0] - 0.5) ** 2)
    eig = qk.lowest_eigenpairs(qk.build_hamiltonian(mesh, f, 1e-3, 1e3), 2)
    assert qk.energy_ratio(eig) == pytest.approx(3.0, rel=0.02)


def test_semiclassical_ratio():
    assert qk.semiclassical_ratio([1.0, 1.0]) == pytest.approx(2.0)
    assert qk.semiclassical_ratio([1.4979, 0.3536]) == pytest.approx(
        1.3819, abs=1e-3)
    assert qk.semiclassical_ratio([1.0, 1e-9]) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(DomainError):
        qk.semiclassical_ratio([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        qk.semiclassical_ratio([0.5, 1.0])


def test_levy_energy_ratio_approaches_semiclassical_limit():
    # values-preserving box convention; the gradient-preserving squeeze
    # leaves the soft mode too anharmonic at these coefficients
    f = affine_to_unit_box(qk.get_objective("levy", rescaled=False))
    om = np.sqrt(np.sort(np.diag(qk.levy2().hessian_at_min))[::-1])
    target = qk.semiclassical_ratio(om)
    mesh = qk.Mesh(2, 64, qk.DIRICHLET)
    sched = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    ratios = {}
    for t in (0.1, 10.0):
        H = qk.build_hamiltonian(mesh, f, sched.kinetic_coeff(t),
                                 sched.potential_coeff(t))
        ratios[t] = qk.energy_ratio(qk.lowest_eigenpairs(H, 2))
    assert ratios[0.1] == pytest.approx(2.5, abs=0.05)
    assert abs(ratios[10.0] - target) < abs(ratios[0.1] - target)


def test_lyapunov_limit_and_lower_bound():
    mesh = qk.Mesh(1, 64, qk.PERIODIC)
    f = Objective(dim=1,
                  eval_fn=lambda x: (np.atleast_2d(x)[:, 0] - 0.5) ** 2,
                  minimizer=np.array([0.5]), f_min=0.0)
    fop = discretize_objective(mesh, f)
    psi = qk.gaussian_state(mesh, [0.5], 0.003)
    sched = qk.make_schedule("nesterov_three_param")
    t = 2.0
    w = qk.lyapunov_W(psi, sched, t, fop, [0.5])
    e_beta_f = np.exp(sched.beta(t)) * qk.expectation(psi, fop)
    assert w >= e_beta_f  # the squared-generator term is non-negative

    # momentum suppressed at large gamma: W tends to <x^2/2> + e^beta <f>
    coords = mesh.node_coords()[:, 0] - 0.5
    x2_half = 0.5 * float(np.sum(coords ** 2 * psi.density()))
    big_t = 1e6
    w_limit = qk.lyapunov_W(psi, sched, big_t, fop, [0.5])
    expected = x2_half + np.exp(sched.beta(big_t)) * qk.expectation(psi, fop)
    assert w_limit == pytest.approx(expected, rel=1e-6)


def _old_lyapunov_W(psi, sched, t, f, center):
    """W as the monitor computed it with whole-array temporaries."""
    center = np.asarray(center, dtype=float).reshape(-1)
    grid = psi.amplitudes.reshape(psi.mesh.shape)
    coords = psi.mesh.axis_coords()
    e_neg_gamma = np.exp(-sched.gamma(t))
    j_sq = 0.0
    for ax in range(psi.mesh.dim):
        shape = [1] * psi.mesh.dim
        shape[ax] = coords.size
        xc = (coords - center[ax]).reshape(shape)
        k = np.fft.fftfreq(coords.size, d=1.0 / coords.size)
        mom = np.fft.ifft(2.0 * np.pi * k.reshape(shape)
                          * np.fft.fft(grid, axis=ax), axis=ax)
        j_psi = e_neg_gamma * mom + xc * grid
        j_sq += float(np.sum(np.abs(j_psi) ** 2))
    ef = float(np.sum(f.values * np.abs(psi.amplitudes) ** 2))
    return 0.5 * j_sq + float(np.exp(sched.beta(t))) * ef


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 32), (2, 30), (3, 12)])
def test_lyapunov_bitwise_equal_to_old_expression(dim, n):
    mesh = qk.Mesh(dim, n, qk.PERIODIC)
    rng = np.random.default_rng(dim * n)
    amp = rng.standard_normal(mesh.size) + 1j * rng.standard_normal(mesh.size)
    psi = qk.WaveFunction(mesh, amp / np.linalg.norm(amp))
    f = Objective(dim=dim, eval_fn=lambda x: np.sum(
        (np.atleast_2d(x) - 0.4) ** 2, axis=1))
    fop = discretize_objective(mesh, f)
    sched = qk.make_schedule("nesterov_three_param")
    center = rng.uniform(0, 1, dim)
    for t in (0.7, 2.0, 30.0):
        assert (qk.lyapunov_W(psi, sched, t, fop, center)
                == _old_lyapunov_W(psi, sched, t, fop, center))


@pytest.mark.parametrize("dim, n, block", [
    (1, 64, 7),       # a line is never cut: one block of 64
    (2, 30, 1),       # single lines along every axis
    (2, 30, 120),     # 8 blocks of 3 or 4 lines
    (3, 12, 60),      # axis 0: 29 blocks of 4 or 5 columns; else single rows
    (3, 10, 350),     # axis 0: 33, 33, 34 columns; else 2, 3, 2, 3 rows
])
def test_lyapunov_line_blocks_equal_old_expression(dim, n, block,
                                                   monkeypatch):
    mesh = qk.Mesh(dim, n, qk.PERIODIC)
    rng = np.random.default_rng(dim * n)
    amp = rng.standard_normal(mesh.size) + 1j * rng.standard_normal(mesh.size)
    psi = qk.WaveFunction(mesh, amp / np.linalg.norm(amp))
    fop = discretize_objective(mesh, lambda x: np.sum((x - 0.4) ** 2, axis=1))
    sched = qk.make_schedule("nesterov_three_param")
    center = rng.uniform(0, 1, dim)
    monkeypatch.setattr(qk.mesh, "GRID_BLOCK", block)
    for t in (0.7, 2.0, 30.0):
        assert (qk.lyapunov_W(psi, sched, t, fop, center)
                == _old_lyapunov_W(psi, sched, t, fop, center))


def test_lyapunov_requires_three_param_and_periodic():
    mesh = qk.Mesh(1, 16, qk.PERIODIC)
    f = Objective(dim=1, eval_fn=lambda x: np.atleast_2d(x)[:, 0] ** 2)
    fop = discretize_objective(mesh, f)
    psi = qk.uniform_state(mesh)
    two_param = qk.make_schedule("nesterov_nonconvex", stepsize=1e-3)
    with pytest.raises(ValueError):
        qk.lyapunov_W(psi, two_param, 1.0, fop, [0.5])
    dmesh = qk.Mesh(1, 16, qk.DIRICHLET)
    fop_d = discretize_objective(dmesh, f)
    sched = qk.make_schedule("nesterov_three_param")
    with pytest.raises(ValueError):
        qk.lyapunov_W(qk.uniform_state(dmesh), sched, 1.0, fop_d, [0.5])


def test_lowest_eigenpairs_k_must_be_an_integer():
    # 2.5 used to raise TypeError from slicing and True returned one pair
    for k in (2.5, True, 1.0):
        with pytest.raises(ValueError, match="integer between 1 and 32"):
            qk.lowest_eigenpairs(np.eye(4), k)
    assert qk.lowest_eigenpairs(np.eye(4), np.int64(2)).eigenvalues.size == 2
    # more pairs than unknowns used to return all n pairs without a word
    with pytest.raises(ValueError, match="exceeds the 3 unknowns"):
        qk.lowest_eigenpairs(np.diag([3.0, 1.0, 2.0]), 5)


@pytest.mark.parametrize("e_phi, e_chi", [
    (np.nan, 1.0), (1.0, np.inf), (-1.0, 1.0), (1.0, -1e-3), (0.0, 0.0)])
def test_coefficients_checked_before_any_matrix(e_phi, e_chi):
    # NaN and inf used to reach LAPACK (box) and every case reached ARPACK
    # (periodic); the objective is never evaluated on a rejected call
    def never(x):
        raise AssertionError("the objective was evaluated")

    f = Objective(dim=2, eval_fn=never)
    with pytest.raises(ValueError, match="coefficients"):
        qk.build_hamiltonian(qk.Mesh(2, 8, qk.DIRICHLET), f, e_phi, e_chi)
    with pytest.raises(ValueError, match="coefficients"):
        qk.build_fourier_hamiltonian(qk.Mesh(2, 8, qk.PERIODIC), f, e_phi,
                                     e_chi)


def _assert_matches_dense(eig, dense, k):
    # eigenvalues to rtol 1e-9 and the projector onto the k vectors, which
    # is basis-free inside near-degenerate clusters
    w, V = scipy.linalg.eigh(dense, subset_by_index=[0, k - 1])
    np.testing.assert_allclose(eig.eigenvalues, w, rtol=1e-9)
    vecs = eig.eigenvectors
    assert np.abs(V @ (V.T @ vecs) - vecs).max() < 1e-9


def test_bare_matrix_lanczos_matches_dense_on_relaxed_grid():
    # the Hamming-grid operator of the relaxed evolution on d = 5, r = 4
    r, d, k = 4, 5, 6
    f = qk.qp_objective(qk.generate_qp(d, 5, seed=1000))
    fvals = f(qk.Mesh(d, r, qk.DIRICHLET).node_coords())
    H = -(r ** 2 / 2) * qk.relaxed_adjacency(r, d) + sp.diags(fvals)
    assert H.shape[0] > DENSE_LIMIT
    eig = qk.lowest_eigenpairs(H, k)
    assert eig.mesh is None
    _assert_matches_dense(eig, H.toarray(), k)


def test_fourier_lanczos_matches_dense_materialized_operator():
    mesh = qk.Mesh(2, 16, qk.PERIODIC)
    H = qk.build_fourier_hamiltonian(mesh, qk.get_objective("levy"), 1.0,
                                     1.0)
    dense = np.column_stack([H.matvec(col) for col in np.eye(mesh.size)])
    eig = qk.lowest_eigenpairs(H, 5)
    assert eig.mesh == mesh
    _assert_matches_dense(eig, dense, 5)


@pytest.mark.parametrize("dim, r", [(1, 40), (2, 12), (3, 6)])
def test_box_matrix_is_interior_block_of_old_formula(dim, r):
    # the Kronecker sum of interior tridiagonal blocks that the box matrix
    # was once built from, written out here
    mesh = qk.Mesh(dim, r, qk.DIRICHLET)
    f = Objective(dim=dim, eval_fn=lambda x: np.sum(
        np.cos(5.0 * np.atleast_2d(x)), axis=1))
    e_phi, e_chi = 0.3, 1.7
    m = r - 1
    a1 = sp.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)],
                  offsets=[1, 0, -1], format="csr")
    interior = np.zeros(mesh.shape, dtype=bool)
    interior[(slice(1, -1),) * dim] = True
    interior = interior.reshape(-1)
    f_int = discretize_objective(mesh, f).values[interior]
    old = ((-0.5 * e_phi) * ((r ** 2) * kron_sum(a1, dim))
           + e_chi * sp.diags(f_int)).tocsr()
    H = qk.build_hamiltonian(mesh, f, e_phi, e_chi)
    assert np.array_equal(H.interior_mask, interior)
    # the mask as once read from the whole coordinate table
    coords = mesh.node_coords()
    assert np.array_equal(H.interior_mask,
                          np.all((coords > 0.0) & (coords < 1.0), axis=1))
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(old, attr), getattr(H.matrix, attr))
