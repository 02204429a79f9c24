import numpy as np
import pytest
import scipy.sparse as sp

import qhdkit as qk
from qhdkit.errors import EvaluationError
from qhdkit.mesh import (_chain_adjacency, kron_sum, lattice_adjacency,
                         point_mass, success_mask)


def test_mesh_node_counts():
    assert qk.Mesh(1, 2, qk.DIRICHLET).nodes_per_edge == 3
    assert qk.Mesh(2, 4, qk.PERIODIC).nodes_per_edge == 4
    with pytest.raises(ValueError):
        qk.Mesh(0, 2, qk.DIRICHLET)
    with pytest.raises(ValueError):
        qk.Mesh(1, 0, qk.DIRICHLET)
    with pytest.raises(ValueError):
        qk.Mesh(1, 2, "open")


@pytest.mark.parametrize("dim, cells, what", [
    (2, 2.5, "cells_per_edge"), (2.0, 2, "dimension"),
    (True, 2, "dimension"), (2, True, "cells_per_edge"),
    (2, "4", "cells_per_edge")])
def test_mesh_rejects_non_integer_sizes(dim, cells, what):
    # a fractional cells_per_edge used to give a fractional size and nodes
    # outside the box
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        qk.Mesh(dim, cells, qk.DIRICHLET)
    m = qk.Mesh(np.int64(2), np.int32(3), qk.DIRICHLET)
    assert m.size == 16 and m.node_coords().max() == 1.0


def test_node_coords_in_unit_box_and_ordering():
    m = qk.Mesh(2, 2, qk.DIRICHLET)
    coords = m.node_coords()
    assert coords.min() >= 0.0 and coords.max() <= 1.0
    # first axis slowest: flat index 1 is (0, 1), i.e. second coordinate moves
    assert np.allclose(coords[1], [0.0, 0.5])
    assert np.allclose(coords[3], [0.5, 0.0])


def test_fdm_laplacian_1d_r2():
    m = qk.Mesh(1, 2, qk.DIRICHLET)
    lap, pos = qk.build_fdm_operators(m)
    expected = 4.0 * np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert np.allclose(lap.toarray(), expected)
    assert np.allclose(pos[0].values, [0.0, 0.5, 1.0])


def _kron_sum_written_out(a1, dim):
    # the sum over axes k of I x ... x a1 (at k) x ... x I, term by term
    eye = sp.identity(a1.shape[0], format="csr")
    total = None
    for k in range(dim):
        term = None
        for ax in range(dim):
            block = a1 if ax == k else eye
            term = block if term is None else sp.kron(term, block,
                                                      format="csr")
        total = term if total is None else total + term
    return total.tocsr()


@pytest.mark.parametrize("make_a1", [
    _chain_adjacency,
    lambda n: (_chain_adjacency(n) - 2.0 * sp.identity(n)).tocsr(),
    lambda n: sp.csr_matrix(np.cos(np.add.outer(np.arange(n), np.arange(n)))),
    lambda n: qk.relaxed_adjacency(n, 1),
], ids=["chain", "fdm_block", "dense", "relaxed"])
def test_kron_sum_equals_sum_of_axis_terms(make_a1):
    # bitwise, so the diagonal of an a1 with nonzero diagonal must be
    # summed over the axes in axis order
    for n in (2, 3, 5):
        a1 = make_a1(n)
        for dim in range(1, 5):
            got, want = kron_sum(a1, dim), _kron_sum_written_out(a1, dim)
            assert got.shape == want.shape
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))


def test_fdm_position_2d():
    m = qk.Mesh(2, 2, qk.DIRICHLET)
    _, pos = qk.build_fdm_operators(m)
    coords = m.node_coords()
    assert np.allclose(pos[0].values, coords[:, 0])
    assert np.allclose(pos[1].values, coords[:, 1])


def test_adjacency_unit_square_edge_count():
    m = qk.Mesh(2, 1, qk.DIRICHLET)
    adj = lattice_adjacency(m)
    # the unit square graph has d * 2^(d-1) = 4 edges, i.e. 2 * d * 2^(d-1)
    # symmetric nonzero matrix entries
    assert adj.count_nonzero() == 2 * 2 * 2 ** (2 - 1)


def test_fdm_requires_dirichlet():
    with pytest.raises(ValueError):
        qk.build_fdm_operators(qk.Mesh(1, 4, qk.PERIODIC))


def test_laplacian_symmetric_negative_semidefinite():
    for dim, r in [(1, 16), (2, 8), (2, 16)]:
        m = qk.Mesh(dim, r, qk.DIRICHLET)
        lap, _ = qk.build_fdm_operators(m)
        dense = lap.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.linalg.eigvalsh(dense).max() <= 1e-9


def test_discretize_objective_values():
    m = qk.Mesh(1, 2, qk.DIRICHLET)
    op = qk.discretize_objective(m, lambda pts: pts[:, 0] ** 2)
    assert np.allclose(op.values, [0.0, 0.25, 1.0])
    half = qk.discretize_objective(m, lambda pts: 0.5 * pts[:, 0] ** 2)
    assert np.allclose(half.values, [0.0, 1.0 / 8.0, 0.5])


def test_discretize_levy_minimum_node():
    # r = 20 puts the mapped minimizer (0.55, 0.55) exactly on the grid
    m = qk.Mesh(2, 20, qk.DIRICHLET)
    f = qk.get_objective("levy")
    op = qk.discretize_objective(m, f)
    idx = m.flat_index((11, 11))
    assert abs(op.values[idx]) < 1e-12


def test_discretize_objective_nonfinite():
    m = qk.Mesh(1, 2, qk.DIRICHLET)

    def bad(pts):
        vals = pts[:, 0].copy()
        vals[1] = np.nan
        return vals

    with pytest.raises(EvaluationError) as err:
        qk.discretize_objective(m, bad)
    assert err.value.index == 1


def test_uniform_state():
    m = qk.Mesh(1, 2, qk.DIRICHLET)
    psi = qk.uniform_state(m)
    assert np.allclose(psi.amplitudes, np.full(3, 1.0 / np.sqrt(3.0)))
    m2 = qk.Mesh(2, 4, qk.PERIODIC)
    psi2 = qk.uniform_state(m2)
    assert psi2.amplitudes.size == 16
    assert np.allclose(psi2.amplitudes, 0.25)
    assert np.allclose(psi2.density(), 1.0 / 16.0)


def test_wavefunction_norm_validation():
    m = qk.Mesh(1, 2, qk.DIRICHLET)
    with pytest.raises(ValueError):
        qk.WaveFunction(m, np.array([1.0, 1.0, 1.0]))


def test_wavefunction_json_roundtrip():
    m = qk.Mesh(1, 4, qk.PERIODIC)
    psi = qk.gaussian_state(m, [0.5], 0.04)
    back = qk.WaveFunction.from_json(psi.to_json())
    assert back.mesh == psi.mesh
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_gaussian_state_symmetry_and_phase():
    m = qk.Mesh(1, 10, qk.DIRICHLET)
    psi = qk.gaussian_state(m, [0.5], 1.0)
    assert np.allclose(psi.amplitudes.imag, 0.0)
    assert np.allclose(psi.amplitudes, psi.amplitudes[::-1])


def test_gaussian_state_wide_domain_variance():
    # density variance 1 on a physical domain of width 16 sampled at N = 512
    L, N = 16.0, 512
    m = qk.Mesh(1, N, qk.PERIODIC)
    psi = qk.gaussian_state(m, [0.5], 1.0 / L ** 2)
    x = L * (m.node_coords()[:, 0] - 0.5)
    var = float(np.sum(psi.density() * x ** 2))
    assert abs(var - 1.0) < 0.02


def test_gaussian_state_large_variance_limit():
    m = qk.Mesh(1, 8, qk.DIRICHLET)
    psi = qk.gaussian_state(m, [0.5], 1e6)
    uni = qk.uniform_state(m)
    assert np.max(np.abs(psi.amplitudes - uni.amplitudes)) < 1e-3


def test_gaussian_state_errors():
    m = qk.Mesh(1, 8, qk.DIRICHLET)
    with pytest.raises(ValueError):
        qk.gaussian_state(m, [1.5], 1.0)
    with pytest.raises(ValueError):
        qk.gaussian_state(m, [0.5], 0.0)


def test_expectation_examples():
    m = qk.Mesh(1, 2, qk.DIRICHLET)
    _, pos = qk.build_fdm_operators(m)
    assert qk.expectation(qk.uniform_state(m), pos[0]) == pytest.approx(0.5)
    pm = point_mass(m, [1.0])
    assert qk.expectation(pm, pos[0]) == pytest.approx(1.0)
    f = qk.discretize_objective(m, lambda p: p[:, 0] ** 2)
    assert qk.expectation(qk.uniform_state(m), f) == pytest.approx(5.0 / 12.0)


def test_expectation_uniform_position_all_axes():
    m = qk.Mesh(2, 5, qk.DIRICHLET)
    _, pos = qk.build_fdm_operators(m)
    for k in range(2):
        assert qk.expectation(qk.uniform_state(m), pos[k]) == pytest.approx(0.5)


def test_expectation_mesh_mismatch():
    m1, m2 = qk.Mesh(1, 2, qk.DIRICHLET), qk.Mesh(1, 3, qk.DIRICHLET)
    op = qk.discretize_objective(m2, lambda p: p[:, 0])
    with pytest.raises(ValueError):
        qk.expectation(qk.uniform_state(m1), op)


def test_sample_positions_point_mass_and_determinism():
    m = qk.Mesh(1, 4, qk.DIRICHLET)
    pm = point_mass(m, [0.5])
    draws = qk.sample_positions(pm, 25, seed=3)
    assert np.all(draws == 0.5)
    psi = qk.gaussian_state(m, [0.5], 0.1)
    a = qk.sample_positions(psi, 100, seed=11)
    b = qk.sample_positions(psi, 100, seed=11)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        qk.sample_positions(psi, 0, seed=1)


def test_sample_positions_frequencies():
    m = qk.Mesh(1, 9, qk.DIRICHLET)
    psi = qk.uniform_state(m)
    shots = 100_000
    draws = qk.sample_positions(psi, shots, seed=7)
    p = 1.0 / 10.0
    sigma = np.sqrt(shots * p * (1 - p))
    for node in m.axis_coords():
        count = int(np.sum(np.isclose(draws[:, 0], node)))
        assert abs(count - shots * p) < 5.0 * sigma


def test_success_probability():
    m = qk.Mesh(2, 8, qk.DIRICHLET)
    x_star = [0.5, 0.5]
    pm = point_mass(m, x_star)
    assert qk.success_probability(pm, x_star, 0.1) == pytest.approx(1.0)
    # whole box within sqrt(d) of any point
    assert qk.success_probability(qk.uniform_state(m), x_star,
                                  np.sqrt(2.0) + 1e-9) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        qk.success_probability(pm, x_star, 0.0)


@pytest.mark.parametrize("radius", [-1.0, 0.0, np.nan, np.inf])
def test_bad_radius_fails_before_any_step(radius):
    # a negative radius used to give all-zero ensemble fractions, and NaN a
    # success probability of 0.0
    def never(t):
        raise AssertionError("the evolution started")

    m = qk.Mesh(2, 8, qk.DIRICHLET)
    with pytest.raises(ValueError, match="radius"):
        qk.success_probability(qk.uniform_state(m), [0.5, 0.5], radius)
    f = qk.get_objective("levy")
    descent = qk.Schedule(kinetic_coeff=never, potential_coeff=never)
    with pytest.raises(ValueError, match="radius"):
        qk.qhd_evolve(qk.Mesh(2, 8, qk.PERIODIC), f, descent, 1.0, 0.1,
                      success_radius=radius)
    with pytest.raises(ValueError, match="radius"):
        qk.relaxed_qhd_evolve(qk.generate_qp(2, 2, seed=1), 2, descent, 1.0,
                              0.1, x_star=[0.5, 0.5], success_radius=radius)
    problem = qk.radix2_problem(f, 3)
    anneal = qk.Schedule(kinetic_coeff=never, potential_coeff=never,
                         anneal_fraction=never)
    with pytest.raises(ValueError, match="radius"):
        qk.qaa_evolve(problem.diag, anneal, 1.0, 0.1, points=problem.points,
                      x_star=f.minimizer, radius=radius)
    trace = qk.nagd_run(f, np.full((3, 2), 0.5), 1e-3, 2)
    with pytest.raises(ValueError, match="radius"):
        qk.ensemble_stats(trace, f.minimizer, radius)


def test_success_probability_uniform_1d_count():
    m = qk.Mesh(1, 100, qk.DIRICHLET)
    psi = qk.uniform_state(m)
    # nodes j/100 with |j/100 - 0.5| < 0.1 strictly: j = 41..59, 19 of 101
    assert qk.success_probability(psi, [0.5], 0.1) == pytest.approx(19.0 / 101.0)


def test_success_probability_strict_boundary():
    m = qk.Mesh(1, 10, qk.DIRICHLET)
    psi = qk.uniform_state(m)
    # node at exactly radius distance is excluded
    assert qk.success_probability(psi, [0.5], 0.1) == pytest.approx(1.0 / 11.0)
    mask = success_mask(m, [0.5], 0.1)
    assert mask.sum() == 1


def test_constructors_unit_norm():
    for make in (qk.uniform_state,
                 lambda m: qk.gaussian_state(m, [0.5] * m.dim, 0.05),
                 lambda m: point_mass(m, [0.3] * m.dim)):
        for m in (qk.Mesh(1, 7, qk.DIRICHLET), qk.Mesh(2, 6, qk.PERIODIC)):
            psi = make(m)
            assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) <= 1e-10
